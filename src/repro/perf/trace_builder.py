"""Build (and cache) paper-scale kernel traces for performance analysis.

A *step trace* is the full kernel-launch sequence of one training step on
one rank: forward (with recycling, when the workload supports it), backward
(with checkpoint recompute when enabled), and the optimizer update.  Built
by executing the real model in meta (shape-only) mode, so the trace is
exactly what the numeric model would launch — not a hand-written
approximation.

The builder is workload-agnostic: the model, loss and canonical batch come
from the :mod:`repro.workloads` registry (``alphafold`` by default), so any
registered workload traces through the same machinery.  Cache keys lead
with the workload's registry name plus its config fingerprint, so two
workloads can never alias each other in the memo or the on-disk store.

Built traces are memoized two ways: a bounded in-process LRU (same object
returned on every hit), and the content-addressed on-disk store
(:mod:`repro.framework.trace_io`) keyed by the full
workload+policy+config signature, so a fresh process — a CLI run, an
example, a bench session — loads the serialized trace in a fraction of the
meta-build time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from ..framework import dtypes
from ..framework.caching import LruCache, register_cache
from ..framework.module import meta_build
from ..framework.tracer import Trace, phase, trace
from ..framework.trace_io import default_store
from ..model.config import KernelPolicy
from ..train.optimizer import emit_update_trace
from ..workloads import DEFAULT_WORKLOAD, Workload, get_workload

WorkloadLike = Union[str, Workload]


@dataclass
class StepTrace:
    """One rank's kernel trace for a single training step."""

    trace: Trace
    policy: KernelPolicy
    n_recycle: int
    n_params: int
    param_shapes: List[Tuple[int, ...]]
    workload: str = DEFAULT_WORKLOAD

    @property
    def n_kernels(self) -> int:
        return len(self.trace)


def _policy_key(policy: KernelPolicy, n_recycle: int,
                include_optimizer: bool) -> Tuple:
    return (policy.fused_layernorm, policy.fused_mha, policy.batched_gemm,
            policy.fused_adam_swa, policy.bucketed_clip,
            policy.activation_checkpointing, policy.dtype.name, n_recycle,
            include_optimizer)


def _cfg_key(workload: Workload, cfg) -> Tuple:
    """Workload half of the cache key: registry name + config fingerprint.

    Leading with the name makes collisions across workloads impossible even
    if two config dataclasses happen to share field names and values; the
    fingerprint keeps a custom (e.g. reduced-size) config from aliasing the
    memoized full-size trace of the same kernel policy.
    """
    return (workload.name,) + workload.config_fingerprint(cfg)


def _resolve(workload: WorkloadLike, policy: Optional[KernelPolicy],
             cfg) -> Tuple[Workload, KernelPolicy, object]:
    wl = get_workload(workload)
    policy = policy or KernelPolicy.reference()
    cfg = cfg if cfg is not None else wl.full_config(policy)
    if cfg.kernel_policy is not policy:
        cfg = cfg.replace(kernel_policy=policy)
    return wl, policy, cfg


def trace_key(policy: Optional[KernelPolicy] = None,
              n_recycle: int = 1,
              include_optimizer: bool = True,
              cfg=None,
              workload: WorkloadLike = DEFAULT_WORKLOAD) -> Tuple:
    """Full cache identity of one step trace (workload + policy + config)."""
    wl, policy, cfg = _resolve(workload, policy, cfg)
    return _policy_key(policy, n_recycle, include_optimizer) + _cfg_key(wl, cfg)


def trace_store_material(key: Tuple) -> str:
    """Content-address material for one step-trace cache entry."""
    return repr(("step-trace", key))


#: Bounded trace memo: each entry holds a ~150k-record trace, so the cap is
#: small; repeated lookups return the *same* StepTrace object.
_CACHE = register_cache(LruCache(capacity=8, name="step-traces"))


def build_step_trace(policy: Optional[KernelPolicy] = None,
                     n_recycle: int = 1,
                     include_optimizer: bool = True,
                     cfg=None,
                     use_cache: bool = True,
                     workload: WorkloadLike = DEFAULT_WORKLOAD) -> StepTrace:
    """Trace one full-size training step of ``workload`` under ``policy``.

    Results are memoized per (workload, policy, config) signature (building
    a trace costs up to a few seconds of shape propagation over ~100k ops)
    — in memory and, unless ``REPRO_TRACE_CACHE=0``, in the on-disk trace
    store.
    """
    wl, policy, cfg = _resolve(workload, policy, cfg)
    key = _policy_key(policy, n_recycle, include_optimizer) + _cfg_key(wl, cfg)
    material = trace_store_material(key)
    if use_cache:
        hit = _CACHE.get(key)
        if hit is not None:
            return hit
        stored = default_store().get_trace(material)
        if stored is not None:
            t, meta = stored
            result = _from_stored(t, meta, policy, n_recycle, wl.name)
            if result is not None:
                _CACHE.put(key, result)
                return result

    with meta_build():
        model, loss_fn = wl.build(cfg)
    if policy.dtype is not dtypes.float32:
        model.to_dtype(policy.dtype)
    batch = wl.meta_batch(cfg, dtype=policy.dtype)
    param_shapes = [p.shape for p in model.parameters()]

    with trace("step") as t:
        with phase("forward"):
            loss = wl.call(model, loss_fn, batch, n_recycle=n_recycle)
        with phase("backward"):
            loss.backward()
        if include_optimizer:
            with phase("update"):
                emit_update_trace(param_shapes, fused=policy.fused_adam_swa,
                                  bucketed_clip=policy.bucketed_clip)

    result = StepTrace(trace=t, policy=policy, n_recycle=n_recycle,
                       n_params=model.num_parameters(),
                       param_shapes=param_shapes, workload=wl.name)
    if use_cache:
        _CACHE.put(key, result)
        default_store().put_trace(material, t, meta={
            "kind": "step-trace",
            "workload": wl.name,
            "n_params": result.n_params,
            "param_shapes": [list(s) for s in param_shapes],
        })
    return result


def trace_is_warm(policy: Optional[KernelPolicy] = None,
                  n_recycle: int = 1,
                  include_optimizer: bool = True,
                  cfg=None,
                  workload: WorkloadLike = DEFAULT_WORKLOAD) -> bool:
    """True when this trace would be served without a meta-build.

    Checks the in-process memo, then the disk store's existence probe.
    Sweep pre-warm uses this to skip traces that are already warm instead
    of serially rebuilding the first scenario's trace unconditionally.
    """
    wl, policy, cfg = _resolve(workload, policy, cfg)
    key = _policy_key(policy, n_recycle, include_optimizer) + _cfg_key(wl, cfg)
    if key in _CACHE:
        return True
    return default_store().has_trace(trace_store_material(key))


def _from_stored(t: Trace, meta: Optional[dict], policy: KernelPolicy,
                 n_recycle: int, workload: str) -> Optional[StepTrace]:
    """Reassemble a StepTrace from a disk-cache hit (None if meta is off)."""
    if not meta or meta.get("kind") != "step-trace":
        return None
    if meta.get("workload", DEFAULT_WORKLOAD) != workload:
        return None  # hash collision across workloads: never trust it
    try:
        n_params = int(meta["n_params"])
        param_shapes = [tuple(int(d) for d in s)
                        for s in meta["param_shapes"]]
    except (KeyError, TypeError, ValueError):
        return None
    return StepTrace(trace=t, policy=policy, n_recycle=n_recycle,
                     n_params=n_params, param_shapes=param_shapes,
                     workload=workload)


def clear_cache() -> None:
    _CACHE.clear()
