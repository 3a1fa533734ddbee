"""Calibrated convergence model: avg_lddt_ca as a function of training.

Real AlphaFold pretraining cannot run here (it needs the OpenFold dataset
and thousands of GPU-hours), so time-to-train figures use a convergence
curve calibrated to the paper's own anchor points:

* global batch 128: avg_lddt_ca must exceed 0.8 within the first 5000 steps
  (§4.2 "Training metric avg_lddt_ca must exceed 0.8 before first 5000
  training steps");
* after switching to global batch 256, the run reaches 0.9 within 50000 to
  60000 total steps (§4.2);
* batch sizes above 256 fail to converge (§2.2 "the training batch size of
  AlphaFold cannot exceed 256, otherwise it would fail to converge"), which
  is the hard cap on data parallelism;
* the MLPerf HPC benchmark starts from a checkpoint partway up the curve
  and trains to a lowered target of 0.8.

Functional form: a shifted power law in cumulative samples,
``lddt(E) = L_inf - (L_inf - L0) * (1 + E/tau)^(-alpha)`` — exponentials
saturate far too quickly to match both anchors; the power law's long tail
reproduces the 10x step gap between the 0.8 and 0.9 crossings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: Data-parallel convergence cap (samples per optimizer step).
MAX_BATCH_SIZE = 256


@dataclass(frozen=True)
class ConvergenceModel:
    """Training quality as a function of cumulative effective samples.

    Defaults are the AlphaFold avg_lddt_ca calibration; other workloads
    instantiate the same functional form with their own parameters, metric
    name and batch-size cap (see :mod:`repro.workloads`).
    """

    lddt_start: float = 0.25
    lddt_max: float = 0.94
    tau_samples: float = 13_000.0
    alpha: float = 0.4075
    #: Per-evaluation measurement noise (std).
    noise_std: float = 0.0015
    #: Penalty on the asymptote for exceeding the batch-size cap.
    overbatch_penalty: float = 0.25
    #: What the curve measures (reporting only; does not affect values).
    metric_name: str = "avg_lddt_ca"
    #: Workload-specific batch-size convergence cap.
    max_batch_size: int = MAX_BATCH_SIZE

    def asymptote(self, batch_size: int) -> float:
        """Large batches destabilize training: the curve plateaus lower."""
        if batch_size <= self.max_batch_size:
            return self.lddt_max
        excess = (batch_size - self.max_batch_size) / self.max_batch_size
        return max(self.lddt_max - self.overbatch_penalty * excess,
                   self.lddt_start)

    def lddt_at(self, samples: float, batch_size: int = MAX_BATCH_SIZE,
                rng: Optional[np.random.Generator] = None) -> float:
        l_inf = self.asymptote(batch_size)
        decay = (1.0 + samples / self.tau_samples) ** (-self.alpha)
        value = l_inf - (l_inf - self.lddt_start) * decay
        if rng is not None:
            value += rng.normal(0.0, self.noise_std)
        return float(min(max(value, 0.0), 1.0))

    def samples_to_reach(self, target: float,
                         batch_size: int = MAX_BATCH_SIZE) -> float:
        """Cumulative samples needed to reach a target lDDT (inf if capped)."""
        l_inf = self.asymptote(batch_size)
        if target >= l_inf:
            return math.inf
        decay = (l_inf - target) / (l_inf - self.lddt_start)
        return self.tau_samples * (decay ** (-1.0 / self.alpha) - 1.0)

    def steps_to_reach(self, target: float, batch_size: int,
                       start_samples: float = 0.0) -> float:
        """Optimizer steps from ``start_samples`` to the target."""
        needed = self.samples_to_reach(target, batch_size)
        if math.isinf(needed):
            return math.inf
        return max((needed - start_samples) / batch_size, 0.0)


@dataclass(frozen=True)
class TrainingPhase:
    """One segment of a batch-size schedule."""

    batch_size: int
    max_steps: Optional[int] = None       # None = run to target
    target_lddt: Optional[float] = None


@dataclass
class CurvePoint:
    step: int
    samples: float
    lddt: float
    batch_size: int


def simulate_curve(model: ConvergenceModel, phases: Sequence[TrainingPhase],
                   eval_interval: int = 250, seed: int = 0,
                   start_samples: float = 0.0,
                   max_total_steps: int = 200_000) -> List[CurvePoint]:
    """Walk a batch-size schedule, evaluating every ``eval_interval`` steps.

    Reproduces Figure 11's two-phase curve (bs128 -> 0.8, then bs256 -> 0.9).
    """
    rng = np.random.default_rng(seed)
    points: List[CurvePoint] = []
    samples = start_samples
    step = 0
    for phase in phases:
        phase_steps = 0
        while True:
            if phase.max_steps is not None and phase_steps >= phase.max_steps:
                break
            if step >= max_total_steps:
                return points
            advance = min(eval_interval,
                          (phase.max_steps - phase_steps)
                          if phase.max_steps is not None else eval_interval)
            step += advance
            phase_steps += advance
            samples += advance * phase.batch_size
            lddt = model.lddt_at(samples, phase.batch_size, rng)
            points.append(CurvePoint(step=step, samples=samples, lddt=lddt,
                                     batch_size=phase.batch_size))
            if phase.target_lddt is not None and lddt >= phase.target_lddt:
                break
    return points


#: The paper's from-scratch schedule (§4.2): 5000 steps at bs128 gated on
#: 0.8, then bs256 to 0.9.  The one copy of the plan:
#: :func:`repro.perf.time_to_train.pretraining_time_to_train` prices it
#: (with the Triton MHA kernel off in phase 2, as §4.2 needed).
PRETRAIN_PHASES: Tuple[TrainingPhase, ...] = (
    TrainingPhase(batch_size=128, max_steps=5000, target_lddt=None),
    TrainingPhase(batch_size=256, max_steps=None, target_lddt=0.9),
)

#: MLPerf HPC v3.0 OpenFold benchmark: resume from a partially-converged
#: checkpoint, train at bs256 to the lowered target of 0.8.
MLPERF_TARGET_LDDT = 0.8
MLPERF_CHECKPOINT_SAMPLES = 512_000.0  # checkpoint quality ~0.787 lDDT
