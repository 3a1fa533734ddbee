"""CUDA Graph capture/replay model with a multi-graph cache.

§3.2: "CUDA Graph eliminates the need to interact with the CPU after graph
capture ... if the CUDA kernels within this scope are modified due to a
dynamic computation graph, such as recycling, CUDA Graph needs to be
recaptured.  To address this, we designed a CUDA Graph cache that can
capture multiple graphs for different recycling scenarios."

The model: a step executed eagerly pays ``cpu_launch_overhead_us`` of host
work per kernel; a step replayed from a captured graph pays
``graph_replay_overhead_us`` per kernel (both through
:meth:`GpuSpec.dispatch_seconds`).  CPU peaks, which only eager steps pay,
are modelled per rank by
:meth:`repro.distributed.straggler.StragglerModel.sample_rank_delays`.
Capture itself costs one eager pass plus a fixed instantiation overhead.
The cache is keyed by the recycling iteration count (the dynamic shape in
AlphaFold training).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional

from .gpu import GpuSpec


@dataclass
class GraphCacheStats:
    hits: int = 0
    misses: int = 0
    captures: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class CapturedGraph:
    key: Hashable
    n_kernels: int


class CudaGraphCache:
    """Capture-once, replay-many graphs keyed by dynamic-shape signature."""

    #: Fixed graph instantiation overhead on top of the capture pass (s).
    INSTANTIATION_OVERHEAD_S = 0.35

    def __init__(self, gpu: GpuSpec, max_graphs: int = 8) -> None:
        self.gpu = gpu
        self.max_graphs = max_graphs
        self._graphs: Dict[Hashable, CapturedGraph] = {}
        self.stats = GraphCacheStats()

    def lookup(self, key: Hashable) -> Optional[CapturedGraph]:
        graph = self._graphs.get(key)
        if graph is not None:
            self.stats.hits += 1
        else:
            self.stats.misses += 1
        return graph

    def capture(self, key: Hashable, n_kernels: int) -> CapturedGraph:
        if len(self._graphs) >= self.max_graphs:
            # Evict the oldest entry (insertion order).
            oldest = next(iter(self._graphs))
            del self._graphs[oldest]
        graph = CapturedGraph(key=key, n_kernels=n_kernels)
        self._graphs[key] = graph
        self.stats.captures += 1
        return graph

    def __len__(self) -> int:
        return len(self._graphs)

    # ------------------------------------------------------------------
    # Cost model hooks
    # ------------------------------------------------------------------
    def eager_cpu_seconds(self, n_kernels: int) -> float:
        """Host dispatch cost of one eager step."""
        return n_kernels * self.gpu.dispatch_seconds()

    def replay_cpu_seconds(self, n_kernels: int) -> float:
        """Host cost of replaying a captured graph."""
        return n_kernels * self.gpu.dispatch_seconds(graphed=True)

    def capture_seconds(self, n_kernels: int) -> float:
        """One-time capture cost: an eager pass plus instantiation."""
        return self.eager_cpu_seconds(n_kernels) + self.INSTANTIATION_OVERHEAD_S
