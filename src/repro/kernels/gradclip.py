"""Gradient clipping: per-tensor reference vs bucket-reuse optimization.

§3.3.1: "there are over four thousand gradient tensors at each training
step.  The concatenation and scaling operation each launches numerous CUDA
kernels ... PyTorch created gradient buffers for distributed training, which
can be reused by gradient clipping to avoid concatenating overhead ...
effectively reducing the kernel launch from thousands to tens.  In addition
... the communication time perfectly hides the computation latency of the
gradient clipping."

The reference path emits 3 launches per gradient tensor; the optimized path
emits 2 per DDP bucket (a few tens of buckets) and its latency is flagged
``hidden_by_comm`` so the step-time model can overlap it with all-reduce.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from ..framework import tracer


def reference_grad_norm(grads: Sequence[np.ndarray], itemsize: int = 4) -> float:
    """Global L2 norm computed per tensor, eager-style (2 launches/tensor)."""
    total = 0.0
    for g in grads:
        tracer.emit("clip_square", tracer.KernelCategory.MEMORY, g.size,
                    2.0 * g.size * itemsize, g.shape, "fp32")
        tracer.emit("clip_reduce", tracer.KernelCategory.MEMORY, g.size,
                    1.0 * g.size * itemsize, (1,), "fp32")
        total += float(np.sum(np.square(g, dtype=np.float64)))
    tracer.emit("clip_norm_finalize", tracer.KernelCategory.MEMORY,
                len(grads), len(grads) * itemsize, (1,), "fp32")
    return math.sqrt(total)


def reference_apply_clip(grads: Sequence[np.ndarray], clip_coef: float,
                         itemsize: int = 4) -> None:
    """Scale every gradient tensor individually (1 launch/tensor)."""
    if clip_coef >= 1.0:
        return
    for g in grads:
        g *= clip_coef
        tracer.emit("clip_scale", tracer.KernelCategory.MEMORY, g.size,
                    2.0 * g.size * itemsize, g.shape, "fp32")


def bucketed_grad_norm(buckets: Sequence[np.ndarray], itemsize: int = 4,
                       hidden_by_comm: bool = True) -> float:
    """Global L2 norm from DDP gradient buffers (2 launches/bucket).

    ``hidden_by_comm`` tags the records so the distributed step-time model
    overlaps this work with the gradient all-reduce, making it free on the
    critical path — the paper's "perfectly hides the computation latency".
    """
    total = 0.0
    tags = {"hidden_by_comm": True} if hidden_by_comm else None
    for b in buckets:
        tracer.emit("bucket_sq_reduce", tracer.KernelCategory.MEMORY,
                    2.0 * b.size, 1.0 * b.size * itemsize, (1,), "fp32",
                    fused=True, tags=tags)
        total += float(np.sum(np.square(b, dtype=np.float64)))
    tracer.emit("bucket_norm_finalize", tracer.KernelCategory.MEMORY,
                len(buckets), len(buckets) * itemsize, (1,), "fp32",
                fused=True, tags=tags)
    return math.sqrt(total)


def clip_coefficient(norm: float, max_norm: float, eps: float = 1e-6) -> float:
    """torch-compatible clip factor: 1.0 when already within the threshold."""
    if max_norm <= 0:
        return 1.0
    coef = max_norm / (norm + eps)
    return min(coef, 1.0)


def pack_buckets(grads: Sequence[np.ndarray], bucket_bytes: int = 25 * 2**20,
                 itemsize: int = 4) -> List[np.ndarray]:
    """Pack gradient tensors into flat DDP-style buckets (~25 MB each).

    Mirrors PyTorch DDP's gradient-bucketing: tensors are flattened into a
    small number of contiguous buffers which both NCCL all-reduce and the
    bucketed clip operate on.
    """
    buckets: List[np.ndarray] = []
    current: List[np.ndarray] = []
    current_bytes = 0
    for g in grads:
        current.append(np.ravel(g))
        current_bytes += g.size * itemsize
        if current_bytes >= bucket_bytes:
            buckets.append(np.concatenate(current))
            current, current_bytes = [], 0
    if current:
        buckets.append(np.concatenate(current))
    return buckets


def unpack_buckets(buckets: Sequence[np.ndarray],
                   grads: Sequence[np.ndarray],
                   bucket_bytes: int = 25 * 2**20,
                   itemsize: int = 4) -> None:
    """Write bucket contents back into the original gradient tensors."""
    flat = np.concatenate([np.ravel(b) for b in buckets]) if len(buckets) != 1 \
        else np.ravel(buckets[0])
    offset = 0
    for g in grads:
        g[...] = flat[offset:offset + g.size].reshape(g.shape)
        offset += g.size
    if offset != flat.size:
        raise ValueError("bucket contents do not match gradient sizes")
