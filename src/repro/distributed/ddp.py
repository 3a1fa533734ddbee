"""Data-parallel gradient synchronization: the DDP bucket schedule.

PyTorch DDP packs gradients into ~25 MB buckets and all-reduces each bucket
as soon as its gradients are ready, overlapping communication with the rest
of the backward pass.  ScaleFold reuses exactly these buckets for gradient
clipping (§3.3.1) so the clip's norm computation rides along for free.

This module only lays the buckets out; the rank-level simulation in
:mod:`repro.perf.scaling` launches each one at its ready point on a per-rank
NIC, so how much of the all-reduce backward hides is an outcome of the
schedule, not a formula.
"""

from __future__ import annotations

from typing import List, Tuple

from .collectives import hierarchical_all_reduce_time
from .topology import ClusterTopology


def gradient_buckets(param_bytes: float, bucket_bytes: int) -> int:
    return max(1, int((param_bytes + bucket_bytes - 1) // bucket_bytes))


def bucket_schedule(param_bytes: float, dp_degree: int, topo: ClusterTopology,
                    bucket_bytes: int = 25 * 2**20
                    ) -> List[Tuple[float, float]]:
    """Per-bucket ``(ready_fraction, all_reduce_seconds)`` for the simulator.

    DDP fills buckets in gradient-ready (reverse layer) order and launches
    each one's all-reduce as soon as it is full, so bucket i becomes ready
    at roughly the (i+1)/B fraction of backward compute.  Each bucket pays
    the full hierarchical all-reduce latency on its own (this is why DDP
    buckets at ~25 MB instead of per-tensor).
    """
    if dp_degree <= 1:
        return []
    n_buckets = gradient_buckets(param_bytes, bucket_bytes)
    per_bucket = param_bytes / n_buckets
    seconds = hierarchical_all_reduce_time(per_bucket, topo, dp_degree)
    return [((i + 1) / n_buckets, seconds) for i in range(n_buckets)]
