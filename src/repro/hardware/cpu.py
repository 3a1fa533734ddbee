"""Host-CPU jitter calibration: background-process peaks and garbage collection.

§3.1/§3.2 of the paper: "background processes in the cluster environment
sporadically made CPU peaks and slowed down the corresponding workers ...
there are always some CPU cores reaching 100% utilization, which slow down
the training processes scheduled to these CPU cores", and §3.2's anecdote
that "disabling Python garbage collection at runtime could alleviate machine
CPU usage peaks".

:class:`CpuJitterConfig` holds the calibration; its one reader is
:meth:`repro.distributed.straggler.StragglerModel.sample_rank_delays`.  Per
rank and per step, a peak arrives as a Bernoulli event (Poisson arrivals
coarsened to step granularity) with a heavy-tailed dispatch slowdown that
bites only the eager dispatch work inside the peak window; Python GC adds
periodic pauses unless disabled.  CUDA-Graph replay is immune to the
dispatch inflation (the whole point of §3.2), but not to GC pauses.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CpuJitterConfig:
    """Calibration of host-side interference."""

    #: Probability that a given rank is hit by a background-process peak
    #: during a given step.
    peak_probability: float = 0.04
    #: Mean dispatch slowdown during a peak (factor > 1, heavy tail).
    peak_slowdown_mean: float = 2.5
    peak_slowdown_sigma: float = 0.35
    #: Mean duration of a background-process peak (seconds); the slowdown
    #: only applies to dispatch work that falls inside the peak window.
    peak_duration_mean_s: float = 0.15
    #: Python GC: pause every ``gc_period_steps`` steps on average.
    gc_enabled: bool = True
    gc_period_steps: float = 12.0
    gc_pause_s: float = 0.060
    #: Baseline dispatch multiplier (shared-core contention is never zero).
    #: No sampler reads it, but it stays: ``StragglerModel`` seeds each draw
    #: from a hash of this config's field tuple, so dropping the field would
    #: change every sampled delay and every golden estimate.
    baseline_slowdown: float = 1.0
