"""Learning-rate schedule and the two-phase batch-size plan (§4.2)."""

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


@dataclass(frozen=True)
class BatchSizePlan:
    """The paper's from-scratch plan: bs128 for 5000 steps, then bs256.

    Phase 2 also disables the Triton MHA kernel (§4.2 observed convergence
    required the unfused path after the switch).
    """

    phase1_batch: int = 128
    phase1_steps: int = 5000
    phase1_gate_lddt: float = 0.8     # must be exceeded before switching
    phase2_batch: int = 256
    phase2_fused_mha: bool = False

    def batch_at(self, step: int) -> int:
        return self.phase1_batch if step < self.phase1_steps else self.phase2_batch

    def fused_mha_at(self, step: int) -> bool:
        return True if step < self.phase1_steps else self.phase2_fused_mha

    def validate_gate(self, step: int, lddt: float) -> bool:
        """True if the phase-1 convergence gate is satisfied at ``step``."""
        if step < self.phase1_steps:
            return True
        return lddt >= self.phase1_gate_lddt
