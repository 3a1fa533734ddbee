"""CUDA-Graph-aware training-step execution (§3.2's graph cache, in use).

AlphaFold samples the recycling iteration count per step, so a single
captured graph keeps getting invalidated; ScaleFold's fix is a cache of
captured graphs keyed by the recycling count.  This module simulates a
training loop drawing random recycling counts and accounts the host-side
cost of every step: the first step at each count pays capture, subsequent
steps replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..hardware.cudagraph import CudaGraphCache
from ..hardware.gpu import GpuSpec, get_gpu
from ..model.config import KernelPolicy


@dataclass
class GraphedStepRecord:
    step: int
    n_recycle: int
    mode: str          # "capture" | "replay" | "eager"
    host_seconds: float


@dataclass
class GraphedRunSummary:
    records: List[GraphedStepRecord]
    cache_hits: int
    cache_misses: int
    captures: int

    @property
    def total_host_seconds(self) -> float:
        return sum(r.host_seconds for r in self.records)

    @property
    def steady_state_host_seconds(self) -> float:
        """Mean host cost per step after every graph is captured."""
        replays = [r.host_seconds for r in self.records if r.mode == "replay"]
        return float(np.mean(replays)) if replays else 0.0


class GraphedStepRunner:
    """Simulates graph-captured training steps over recycling draws."""

    def __init__(self, gpu: str = "H100",
                 policy: Optional[KernelPolicy] = None,
                 graphs_enabled: bool = True,
                 max_recycle: int = 3,
                 max_graphs: int = 8) -> None:
        self.gpu: GpuSpec = get_gpu(gpu)
        self.policy = policy or KernelPolicy.scalefold(checkpointing=False)
        self.graphs_enabled = graphs_enabled
        self.max_recycle = max_recycle
        self.cache = CudaGraphCache(self.gpu, max_graphs=max_graphs)
        self._kernel_counts: Dict[int, int] = {}

    def kernels_for(self, n_recycle: int) -> int:
        """Kernel launches of one step at a recycling count (cached)."""
        if n_recycle not in self._kernel_counts:
            # Imported lazily: perf -> datapipe -> sim -> train would cycle.
            from ..perf.trace_builder import build_step_trace

            trace = build_step_trace(self.policy, n_recycle=n_recycle)
            self._kernel_counts[n_recycle] = trace.n_kernels
        return self._kernel_counts[n_recycle]

    def run_step(self, step: int, n_recycle: int) -> GraphedStepRecord:
        n_kernels = self.kernels_for(n_recycle)
        if not self.graphs_enabled:
            return GraphedStepRecord(
                step=step, n_recycle=n_recycle, mode="eager",
                host_seconds=self.cache.eager_cpu_seconds(n_kernels))
        if self.cache.lookup(n_recycle) is None:
            self.cache.capture(n_recycle, n_kernels)
            return GraphedStepRecord(
                step=step, n_recycle=n_recycle, mode="capture",
                host_seconds=self.cache.capture_seconds(n_kernels))
        return GraphedStepRecord(
            step=step, n_recycle=n_recycle, mode="replay",
            host_seconds=self.cache.replay_cpu_seconds(n_kernels))

    def run(self, n_steps: int, seed: int = 0) -> GraphedRunSummary:
        """Run ``n_steps`` with uniformly-drawn recycling counts (AF2)."""
        rng = np.random.default_rng(seed)
        records = []
        for step in range(n_steps):
            n_recycle = int(rng.integers(0, self.max_recycle + 1))
            records.append(self.run_step(step, n_recycle))
        return GraphedRunSummary(
            records=records,
            cache_hits=self.cache.stats.hits,
            cache_misses=self.cache.stats.misses,
            captures=self.cache.stats.captures,
        )
