"""Training-step update: Adam + SWA + gradient clipping.

Two execution paths, numerically identical (both delegate the math to
:mod:`repro.kernels.adam_swa`):

* reference — per-tensor eager kernels: ~10 launches per parameter tensor
  for Adam+SWA plus 3 per tensor for clipping.  With ~5000 parameter
  tensors this is tens of thousands of launches per step (§2.2: weight
  update 6% of step at 10% of theoretical, SWA 6% at <5%, clip 3% at <1%).
* fused — ScaleFold: ONE launch for Adam+SWA+misc, clipping reduced to a
  few launches over DDP buckets whose latency hides under communication.

For meta-mode profiling (paper-scale parameter counts without numerics),
``emit_update_trace`` emits the same kernel records from shapes alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..framework import tracer
from ..framework.module import Module, Parameter
from ..kernels.adam_swa import (_REFERENCE_ADAM_KERNELS,
                                _REFERENCE_SWA_KERNELS, AdamParams,
                                fused_adam_swa_step, reference_adam_swa_step)
from ..kernels.gradclip import (bucketed_grad_norm, clip_coefficient,
                                pack_buckets, reference_apply_clip,
                                reference_grad_norm)


@dataclass
class OptimizerConfig:
    adam: AdamParams = field(default_factory=AdamParams)
    max_grad_norm: float = 0.1       # OpenFold clips hard
    use_swa: bool = True
    fused: bool = False              # fused Adam+SWA kernel
    bucketed_clip: bool = False      # reuse DDP buckets for the grad norm
    bucket_bytes: int = 25 * 2**20


class AlphaFoldOptimizer:
    """Optimizer over a :class:`Module`'s parameters with SWA and clipping."""

    def __init__(self, module: Module, config: Optional[OptimizerConfig] = None,
                 lr: Optional[float] = None) -> None:
        self.module = module
        self.config = config or OptimizerConfig()
        if lr is not None:
            self.config.adam = AdamParams(
                lr=lr, beta1=self.config.adam.beta1, beta2=self.config.adam.beta2,
                eps=self.config.adam.eps, weight_decay=self.config.adam.weight_decay,
                swa_decay=self.config.adam.swa_decay)
        self.step_count = 0
        self._params: List[Parameter] = module.parameters()
        self._exp_avg: List[np.ndarray] = []
        self._exp_avg_sq: List[np.ndarray] = []
        self._swa: List[Optional[np.ndarray]] = []
        for p in self._params:
            if p.is_meta:
                raise ValueError("cannot optimize a meta-built module; use "
                                 "emit_update_trace for profiling instead")
            self._exp_avg.append(np.zeros_like(p.data))
            self._exp_avg_sq.append(np.zeros_like(p.data))
            self._swa.append(p.data.copy() if self.config.use_swa else None)

    # ------------------------------------------------------------------
    def set_lr(self, lr: float) -> None:
        a = self.config.adam
        self.config.adam = AdamParams(lr=lr, beta1=a.beta1, beta2=a.beta2,
                                      eps=a.eps, weight_decay=a.weight_decay,
                                      swa_decay=a.swa_decay)

    def grad_arrays(self) -> List[np.ndarray]:
        grads = []
        for p in self._params:
            if p.grad is None:
                grads.append(np.zeros_like(p.data))
            else:
                grads.append(p.grad.numpy().astype(np.float32))
        return grads

    def step(self) -> Dict[str, float]:
        """Clip + Adam + SWA over all parameters.  Returns step stats."""
        self.step_count += 1
        cfg = self.config
        grads = self.grad_arrays()

        if cfg.bucketed_clip:
            buckets = pack_buckets(grads, bucket_bytes=cfg.bucket_bytes)
            norm = bucketed_grad_norm(buckets)
            coef = clip_coefficient(norm, cfg.max_grad_norm)
            # Scale folds into the fused update (grad_scale), no extra pass.
        else:
            norm = reference_grad_norm(grads)
            coef = clip_coefficient(norm, cfg.max_grad_norm)
            reference_apply_clip(grads, coef)

        tensors = [
            (p.data, g, m, v, s)
            for p, g, m, v, s in zip(self._params, grads, self._exp_avg,
                                     self._exp_avg_sq, self._swa)
        ]
        scale = coef if cfg.bucketed_clip else 1.0
        if cfg.fused:
            fused_adam_swa_step(tensors, self.step_count, cfg.adam,
                                grad_scale=scale)
        else:
            reference_adam_swa_step(tensors, self.step_count, cfg.adam,
                                    grad_scale=scale)
        return {"grad_norm": float(norm), "clip_coef": float(coef),
                "lr": cfg.adam.lr, "step": self.step_count}

    def swa_state_dict(self) -> Dict[str, np.ndarray]:
        named = [name for name, _ in self.module.named_parameters()]
        return {n: s.copy() for n, s in zip(named, self._swa) if s is not None}

    def swap_in_swa_weights(self) -> Dict[str, np.ndarray]:
        """Load the SWA (EMA) weights into the module for evaluation.

        OpenFold evaluates the averaged model, not the raw weights — this
        is part of what the paper's synchronous evaluation materializes
        before each eval pass.  Returns the raw weights so the caller can
        restore them with ``restore_weights``.
        """
        if not self.config.use_swa:
            raise ValueError("SWA is disabled for this optimizer")
        saved: Dict[str, np.ndarray] = {}
        for (name, p), swa in zip(self.module.named_parameters(), self._swa):
            saved[name] = p.data.copy()
            p._data = swa.astype(p.dtype.storage).copy()
        return saved

    def restore_weights(self, saved: Dict[str, np.ndarray]) -> None:
        """Undo :meth:`swap_in_swa_weights`."""
        for name, p in self.module.named_parameters():
            p._data = saved[name].astype(p.dtype.storage)


# ----------------------------------------------------------------------
# Meta-mode emission (profiling at paper-scale parameter counts)
# ----------------------------------------------------------------------
def emit_update_trace(param_shapes: Sequence[Tuple[int, ...]],
                      fused: bool, bucketed_clip: bool,
                      use_swa: bool = True, itemsize: int = 4,
                      bucket_bytes: int = 25 * 2**20) -> None:
    """Emit the optimizer-update kernel records for given parameter shapes.

    Mirrors exactly what :meth:`AlphaFoldOptimizer.step` would emit, without
    touching any numerics — used when the model was built meta.
    """
    sizes = [int(np.prod(s)) if s else 1 for s in param_shapes]
    total = sum(sizes)

    # --- gradient clipping ---
    if bucketed_clip:
        n_buckets = max(1, (total * itemsize + bucket_bytes - 1) // bucket_bytes)
        per_bucket = total // n_buckets
        tags = {"hidden_by_comm": True}
        for _ in range(n_buckets):
            tracer.emit("bucket_sq_reduce", tracer.KernelCategory.MEMORY,
                        2.0 * per_bucket, per_bucket * itemsize, (1,), "fp32",
                        fused=True, tags=tags)
        tracer.emit("bucket_norm_finalize", tracer.KernelCategory.MEMORY,
                    n_buckets, n_buckets * itemsize, (1,), "fp32",
                    fused=True, tags=tags)
    else:
        for shape, n in zip(param_shapes, sizes):
            tracer.emit("clip_square", tracer.KernelCategory.MEMORY, n,
                        2.0 * n * itemsize, shape, "fp32")
            tracer.emit("clip_reduce", tracer.KernelCategory.MEMORY, n,
                        1.0 * n * itemsize, (1,), "fp32")
        tracer.emit("clip_norm_finalize", tracer.KernelCategory.MEMORY,
                    len(sizes), len(sizes) * itemsize, (1,), "fp32")
        for shape, n in zip(param_shapes, sizes):
            tracer.emit("clip_scale", tracer.KernelCategory.MEMORY, n,
                        2.0 * n * itemsize, shape, "fp32")

    # --- Adam + SWA ---
    if fused:
        streams = 9 if use_swa else 7
        tracer.emit("fused_adam_swa", tracer.KernelCategory.MEMORY,
                    16.0 * total, float(streams * total * itemsize),
                    (total,), "fp32", fused=True, tunable="fused_adam_swa")
    else:
        for shape, n in zip(param_shapes, sizes):
            for name, flops_per in _REFERENCE_ADAM_KERNELS:
                tracer.emit(name, tracer.KernelCategory.MEMORY, flops_per * n,
                            3.0 * n * itemsize, shape, "fp32")
            if use_swa:
                for name, flops_per in _REFERENCE_SWA_KERNELS:
                    tracer.emit(name, tracer.KernelCategory.MEMORY, flops_per * n,
                                3.0 * n * itemsize, shape, "fp32")
