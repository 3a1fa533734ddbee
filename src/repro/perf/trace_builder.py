"""Build (and cache) paper-scale kernel traces for performance analysis.

A *step trace* is the full kernel-launch sequence of one training step on
one rank: forward (with recycling, when the workload supports it), backward
(with checkpoint recompute when enabled), and the optimizer update.  Built
by executing the real model in meta (shape-only) mode, so the trace is
exactly what the numeric model would launch — not a hand-written
approximation.

The build is templated: every block of a stack launches the same kernels,
so the forward and backward are meta-executed with each of the workload's
``block_stacks`` cut to :data:`~repro.perf.trace_template.TEMPLATE_DEPTH`
blocks, and :func:`~repro.perf.trace_template.extend_stack` extends each
deeper stack to full depth — exactly the records a full-depth execution
gives (:func:`meta_execute` at full depth is the fallback and the tests'
oracle).  The optimizer update is emitted from the full model's parameter
shapes, which a meta build of the full model provides.

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
from ..framework.tracer import KernelRecord, Trace, phase, trace
from ..framework.trace_io import default_store
from ..model.config import KernelPolicy
from ..train.optimizer import emit_update_trace
from ..workloads import DEFAULT_WORKLOAD, Workload, get_workload
from .trace_template import TEMPLATE_DEPTH, extend_stack

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
    #: The store material the trace was built or loaded under, which keys
    #: the analyses' cost arrays (None when built with ``use_cache=False``).
    store_material: Optional[str] = None

    @property
    def n_kernels(self) -> int:
        return len(self.trace)


def _policy_key(policy: KernelPolicy, n_recycle: int,
                include_optimizer: bool) -> Tuple:
    # Values only, in field order: stored traces are addressed by this
    # tuple, so its shape must not change.
    return (tuple(value for _, value in policy.signature())
            + (n_recycle, include_optimizer))


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

    Results are memoized per (workload, policy, config) signature — in
    memory and, unless ``REPRO_TRACE_CACHE=0``, in the on-disk trace store.
    A miss meta-executes the step with every block stack cut to a few
    blocks and extends the stacks to full depth (:func:`templated_records`;
    about 0.7 s for the golden AlphaFold trace against 1.3-1.6 s at full
    depth on a 2-vCPU host).  A config whose stacks are all that shallow
    already, or whose reduced trace lacks the repeating structure, is
    meta-executed at full depth.  Only the full-depth result is memoized.
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
            result = _from_stored(t, meta, policy, n_recycle, wl.name,
                                  material)
            if result is not None:
                _CACHE.put(key, result)
                return result

    records = templated_records(wl, cfg, n_recycle)
    if records is None:
        t, model = meta_execute(wl, cfg, n_recycle)
    else:
        t = Trace("step")
        t.records = records
        with meta_build():
            model, _ = wl.build(cfg)
    param_shapes = [p.shape for p in model.parameters()]
    if include_optimizer:
        with trace("step", into=t), phase("update"):
            emit_update_trace(param_shapes, fused=policy.fused_adam_swa,
                              bucketed_clip=policy.bucketed_clip)

    result = StepTrace(trace=t, policy=policy, n_recycle=n_recycle,
                       n_params=model.num_parameters(),
                       param_shapes=param_shapes, workload=wl.name,
                       store_material=material if use_cache else None)
    if use_cache:
        _CACHE.put(key, result)
        default_store().put_trace(material, t, meta={
            "kind": "step-trace",
            "workload": wl.name,
            "n_params": result.n_params,
            "param_shapes": [list(s) for s in param_shapes],
        })
    return result


def meta_execute(wl: Workload, cfg, n_recycle: int):
    """Meta-execute one forward and backward pass of ``cfg``: returns the
    trace and the meta-built model.

    At full depth this is the fallback of :func:`templated_records` and
    the oracle its tests compare against.
    """
    policy = cfg.kernel_policy
    with meta_build():
        model, loss_fn = wl.build(cfg)
    if policy.dtype is not dtypes.float32:
        model.to_dtype(policy.dtype)
    batch = wl.meta_batch(cfg, dtype=policy.dtype)
    with trace("step") as t:
        with phase("forward"):
            loss = wl.call(model, loss_fn, batch, n_recycle=n_recycle)
        with phase("backward"):
            loss.backward()
    return t, model


def templated_records(wl: Workload, cfg,
                      n_recycle: int) -> Optional[List[KernelRecord]]:
    """The forward and backward records of ``cfg``, meta-executed with each
    of ``wl.block_stacks`` cut to at most :data:`TEMPLATE_DEPTH` blocks and
    each deeper stack extended back to full depth.

    Exactly the records of ``meta_execute(wl, cfg, n_recycle)``, or None
    when no stack is deeper than :data:`TEMPLATE_DEPTH` or a reduced trace
    lacks the structure the extension needs.
    """
    depths = [(prefix, field, getattr(cfg, field))
              for prefix, field in wl.block_stacks]
    deep = [(prefix, depth) for prefix, _, depth in depths
            if depth > TEMPLATE_DEPTH]
    if not deep:
        return None
    reduced = cfg.replace(**{field: min(depth, TEMPLATE_DEPTH)
                             for _, field, depth in depths})
    records = meta_execute(wl, reduced, n_recycle)[0].records
    for prefix, depth in deep:
        records = extend_stack(records, prefix, depth)
        if records is None:
            return None
    return records


def _from_stored(t: Trace, meta: Optional[dict], policy: KernelPolicy,
                 n_recycle: int, workload: str,
                 material: str) -> Optional[StepTrace]:
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
                     workload=workload, store_material=material)


def clear_cache() -> None:
    _CACHE.clear()
