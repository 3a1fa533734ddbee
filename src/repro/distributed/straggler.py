"""Straggler / imbalance model: the slowest rank sets the pace.

§3.1: "Slow workers that fall behind the rest in reaching the synchronization
point slow down the overall training progress.  In AlphaFold training, this
is mainly attributed to: 1) the data pipeline, where ~10% of training data
batches took significantly more time to process; and 2) background processes
in the cluster environment."

The model: per rank-step, a delay is the sum of a host-jitter term (CPU
peaks inflating eager dispatch; zero when the step is CUDA-Graph-captured),
a Python GC pause, and a data-stall term (positive when the rank's next
batch isn't ready; zero under the non-blocking pipeline with enough
workers).  :func:`repro.perf.scaling.estimate_step_time` draws these delays
for the simulated DAP ranks and for the world gate: every rank must reach
the gradient all-reduce, so a step waits for the slowest of the whole
synchronized world, E[max over R] per step.  That wait grows with R, which
is why DAP-4/-8 suffer most (Figure 3).
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..hardware.cpu import CpuJitterConfig


@dataclass
class ImbalanceInputs:
    """Per-rank-step delay sources feeding the imbalance estimate."""

    #: Eager CPU dispatch seconds per step (0 if the step is graph-captured).
    eager_dispatch_s: float
    #: CUDA Graphs in use (immune to CPU peaks).
    graphed: bool
    #: Probability that a rank stalls on data this step.
    data_stall_probability: float
    #: Mean stall duration when stalling (seconds).
    data_stall_mean_s: float


class StragglerModel:
    """Monte-Carlo sampler of per-rank-step delays."""

    def __init__(self, jitter: Optional[CpuJitterConfig] = None,
                 seed: int = 7) -> None:
        self.jitter_config = jitter or CpuJitterConfig()
        self.seed = seed

    def _rng_for(self, inputs: ImbalanceInputs, n_ranks: int,
                 n_steps: int) -> np.random.Generator:
        """A fresh generator derived from the seed plus the call's inputs.

        A generator shared across calls would make every draw depend on the
        order the caller happened to make them in; deriving a per-call
        stream makes each draw a pure function of (seed, inputs, shape).
        """
        material = repr((self.seed, dataclasses.astuple(inputs),
                         dataclasses.astuple(self.jitter_config),
                         n_ranks, n_steps)).encode()
        digest = hashlib.blake2b(material, digest_size=16).digest()
        return np.random.default_rng(np.frombuffer(digest, dtype=np.uint64))

    def sample_rank_delays(self, inputs: ImbalanceInputs,
                           n_ranks: int, n_steps: int) -> np.ndarray:
        """(n_steps, n_ranks) extra seconds per rank-step."""
        rng = self._rng_for(inputs, n_ranks, n_steps)
        cfg = self.jitter_config
        delays = np.zeros((n_steps, n_ranks))
        if not inputs.graphed and inputs.eager_dispatch_s > 0:
            peaks = rng.random((n_steps, n_ranks)) < cfg.peak_probability
            magnitude = rng.lognormal(np.log(cfg.peak_slowdown_mean),
                                      cfg.peak_slowdown_sigma,
                                      size=(n_steps, n_ranks))
            duration = rng.exponential(cfg.peak_duration_mean_s,
                                       size=(n_steps, n_ranks))
            # The slowdown only bites dispatch work inside the peak window.
            affected = np.minimum(duration, inputs.eager_dispatch_s)
            delays += peaks * (magnitude - 1.0).clip(0.0) * affected
        if cfg.gc_enabled:
            # Python GC pauses hit the training loop itself — CUDA Graphs do
            # not protect against them (which is why ScaleFold disables GC
            # even after graph capture, §4.1's extra 1.13x).
            gc_hits = rng.random((n_steps, n_ranks)) < 1.0 / cfg.gc_period_steps
            delays += gc_hits * cfg.gc_pause_s
        if inputs.data_stall_probability > 0:
            stalls = rng.random((n_steps, n_ranks)) < inputs.data_stall_probability
            stall_len = rng.exponential(max(inputs.data_stall_mean_s, 1e-9),
                                        size=(n_steps, n_ranks))
            delays += stalls * stall_len
        return delays
