"""Fused Adam + SWA (the paper's third Triton kernel).

§3.3.1: "As SWA follows immediately after Adam optimizer, and both consist of
elemwise operations, we fused Adam and SWA, along with other adjacent
miscellaneous elemwise operations, into a single CUDA kernel ... we packed
all parameter and optimizer state data pointers into a buffer and passed it
to the fused CUDA kernel, allowing a single call to access all the elements."

The reference path launches ~10 small kernels *per parameter tensor* (the
AlphaFold model has thousands), which is why the paper measures weight update
at 6% of step time at 10% of theoretical throughput and SWA at 6% at <5%.
The fused path makes exactly ONE launch per step for the whole model.

Both paths share :func:`adam_swa_math` so they are bit-identical; tests
assert it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..framework import tracer


@dataclass(frozen=True)
class AdamParams:
    """Adam + SWA hyperparameters (OpenFold defaults)."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-6
    weight_decay: float = 0.0
    swa_decay: float = 0.999


def adam_swa_math(
    param: np.ndarray,
    grad: np.ndarray,
    exp_avg: np.ndarray,
    exp_avg_sq: np.ndarray,
    swa: Optional[np.ndarray],
    step: int,
    hp: AdamParams,
    grad_scale: float = 1.0,
) -> None:
    """In-place Adam update followed by SWA EMA update (single source of truth).

    ``grad_scale`` folds gradient clipping's rescale into the update — the
    "other adjacent element-wise training logic" the paper fuses in.
    """
    g = grad * grad_scale if grad_scale != 1.0 else grad
    if hp.weight_decay:
        g = g + hp.weight_decay * param
    exp_avg *= hp.beta1
    exp_avg += (1.0 - hp.beta1) * g
    exp_avg_sq *= hp.beta2
    exp_avg_sq += (1.0 - hp.beta2) * np.square(g)
    bias1 = 1.0 - hp.beta1**step
    bias2 = 1.0 - hp.beta2**step
    denom = np.sqrt(exp_avg_sq / bias2) + hp.eps
    param -= hp.lr * (exp_avg / bias1) / denom
    if swa is not None:
        swa *= hp.swa_decay
        swa += (1.0 - hp.swa_decay) * param


#: Unfused eager launch sequence for one tensor's Adam step (name, flops/elem).
_REFERENCE_ADAM_KERNELS: Tuple[Tuple[str, float], ...] = (
    ("adam_mul_beta1", 1.0),
    ("adam_add_grad", 2.0),
    ("adam_mul_beta2", 1.0),
    ("adam_addcmul_grad_sq", 3.0),
    ("adam_sqrt_denom", 2.0),
    ("adam_add_eps", 1.0),
    ("adam_div_corrected", 2.0),
    ("adam_param_update", 2.0),
)

_REFERENCE_SWA_KERNELS: Tuple[Tuple[str, float], ...] = (
    ("swa_mul_decay", 1.0),
    ("swa_add_param", 2.0),
)


def reference_adam_swa_step(
    tensors: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]],
    step: int,
    hp: AdamParams,
    grad_scale: float = 1.0,
    itemsize: int = 4,
) -> None:
    """Per-tensor unfused update: ~10 kernel launches per parameter tensor.

    Args:
        tensors: ``(param, grad, exp_avg, exp_avg_sq, swa_or_None)`` tuples,
            all numpy arrays updated in place.
    """
    for param, grad, m, v, swa in tensors:
        n = param.size
        for name, flops_per in _REFERENCE_ADAM_KERNELS:
            tracer.emit(name, tracer.KernelCategory.MEMORY, flops_per * n,
                        3.0 * n * itemsize, param.shape, "fp32")
        if swa is not None:
            for name, flops_per in _REFERENCE_SWA_KERNELS:
                tracer.emit(name, tracer.KernelCategory.MEMORY, flops_per * n,
                            3.0 * n * itemsize, param.shape, "fp32")
        adam_swa_math(param, grad, m, v, swa, step, hp, grad_scale)


def fused_adam_swa_step(
    tensors: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]],
    step: int,
    hp: AdamParams,
    grad_scale: float = 1.0,
    itemsize: int = 4,
) -> None:
    """One launch for the whole model: the pointer-packed fused kernel.

    Traffic model: read param/grad/m/v/swa, write param/m/v/swa — one pass.
    """
    total = 0
    for param, grad, m, v, swa in tensors:
        adam_swa_math(param, grad, m, v, swa, step, hp, grad_scale)
        total += param.size
    has_swa = any(t[4] is not None for t in tensors)
    streams = 9 if has_swa else 7  # arrays touched per element
    tracer.emit("fused_adam_swa", tracer.KernelCategory.MEMORY,
                16.0 * total, float(streams * total * itemsize),
                (total,), "fp32", fused=True, tunable="fused_adam_swa")
