"""AlphaFold's learning-rate schedule.

The two-phase batch-size plan of §4.2 is
:data:`repro.train.convergence.PRETRAIN_PHASES`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LrSchedule:
    """AlphaFold's warmup -> constant -> decay schedule."""

    base_lr: float = 1e-3
    warmup_steps: int = 1000
    decay_after_steps: int = 50_000
    decay_factor: float = 0.95
    start_lr: float = 1e-5

    def lr_at(self, step: int) -> float:
        if step < self.warmup_steps:
            frac = step / max(self.warmup_steps, 1)
            return self.start_lr + (self.base_lr - self.start_lr) * frac
        if step >= self.decay_after_steps:
            return self.base_lr * self.decay_factor
        return self.base_lr
