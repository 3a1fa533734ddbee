"""Simulation-pipeline benchmark: ``repro bench`` and BENCH_simulation.json.

Times the four workloads the fast-path/caching work targets and writes one
machine-readable report:

* **trace build** — cold meta-build, warm in-memory hit, and (when the disk
  cache is enabled) a fresh-process-style load from the content-addressed
  store;
* **single-rank step simulation** — the vectorized closed-form engine vs
  the discrete-event engine over the same ~100k-kernel trace, with an exact
  field-by-field equality check;
* **64-rank estimate** — the golden DAP-8 x DP-8 scenario through
  :func:`estimate_step_time` under each engine (warm caches), recording the
  event-engine baseline and the fast/event speedup;
* **ladder sweep** — the Figure-8 optimization ladder, one
  :func:`estimate_step_time` per rung, cold and estimate-cache-warm;
* **cross-workload table** — for every registered workload (alphafold,
  transformer, ...): cold trace build, fast-vs-event step simulation, and
  the workload's canonical multi-rank estimate under both engines, each
  with the same bit-identity contract.

The two engines must agree bit-for-bit on every simulated number;
``golden_match`` is false (and the CLI exits nonzero) if any field differs.
"""

from __future__ import annotations

import dataclasses
import json
import time
from typing import Callable, Dict, List, Optional, Tuple

from ..framework.caching import cache_registry, reset_registry_stats
from ..framework.trace_io import default_store
from ..hardware.gpu import get_gpu
from ..hardware.roofline import CostModel
from ..model.config import KernelPolicy
from ..workloads import get_workload, list_workloads
from .scaling import (Scenario, StepEstimate, clear_estimate_cache,
                      clear_partition_cache, estimate_step_time,
                      optimization_ladder)
from .step_time import StepTimeBreakdown, simulate_step
from .trace_builder import build_step_trace, clear_cache
from .vector_cost import clear_cost_cache, trace_cost_arrays

BENCH_VERSION = 1

#: The fast path must beat the event engine by at least this factor on the
#: warm-cache 64-rank estimate (the workload every figure re-runs).
SPEEDUP_TARGET = 5.0

#: How many ladder rungs a ``--quick`` (CI) run sweeps.
QUICK_LADDER_RUNGS = 3

#: Minimum hit rate per registered cache over one bench session (stats are
#: reset at session start).  Only gated when the cache saw at least
#: :data:`CACHE_GATE_MIN_LOOKUPS` lookups, so an unexercised cache can
#: never fail.  Values sit below the measured rates with margin (quick /
#: full: step-traces 0.73/0.66, cost-arrays 0.59/0.50, dap-partitions
#: 0.65/0.54; the ladder runs serially, so every run reads the same rates);
#: a capacity regression (re-evicting what a sweep re-uses) drops the
#: measured rate well under these floors.
CACHE_HIT_THRESHOLDS: Dict[str, float] = {
    "step-traces": 0.50,
    "cost-arrays": 0.40,
    "dap-partitions": 0.40,
}

#: Below this many lookups a hit rate is noise, not a signal.
CACHE_GATE_MIN_LOOKUPS = 4


def golden_scenario(gpu: str = "H100") -> Scenario:
    """The 64-rank pretraining configuration (DAP-8 x DP-8, all opts on)."""
    return Scenario(policy=KernelPolicy.scalefold(checkpointing=False),
                    gpu=gpu, dap_n=8, dp_degree=8, cuda_graphs=True,
                    gc_disabled=True, torch_compile=True,
                    nonblocking_pipeline=True)


def _timed(fn: Callable[[], object]) -> Tuple[float, object]:
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def breakdowns_equal(a: StepTimeBreakdown, b: StepTimeBreakdown) -> bool:
    """Exact (bit-level) equality of two step-time breakdowns."""
    if (a.total_s != b.total_s or a.gpu_busy_s != b.gpu_busy_s
            or a.cpu_exposed_s != b.cpu_exposed_s
            or a.dispatch_total_s != b.dispatch_total_s
            or a.kernel_count != b.kernel_count
            or a.category_seconds != b.category_seconds
            or a.category_calls != b.category_calls
            or a.limiter_seconds != b.limiter_seconds
            or len(a.segments) != len(b.segments)):
        return False
    return all(dataclasses.astuple(x) == dataclasses.astuple(y)
               for x, y in zip(a.segments, b.segments))


def estimates_equal(a: StepEstimate, b: StepEstimate) -> bool:
    """Exact equality of every numeric field of two step estimates."""
    return a.as_dict() == b.as_dict()


def _bench_trace_build(policy: KernelPolicy) -> Dict[str, object]:
    store = default_store()
    was_enabled = store.enabled
    store.enabled = False
    try:
        clear_cache()
        cold_s, step = _timed(lambda: build_step_trace(policy))
        warm_s, again = _timed(lambda: build_step_trace(policy))
        assert again is step  # memory hit returns the same object
    finally:
        store.enabled = was_enabled
    result: Dict[str, object] = {
        "n_records": len(step.trace.records),
        "cold_s": cold_s,
        "warm_memory_s": warm_s,
    }
    if store.enabled:
        clear_cache()
        build_step_trace(policy)       # populate the disk entry
        clear_cache()
        disk_s, _ = _timed(lambda: build_step_trace(policy))
        result["disk_s"] = disk_s
    return result


def _bench_step_sim(policy: KernelPolicy, gpu: str) -> Dict[str, object]:
    gpu_spec = get_gpu(gpu)
    cost = CostModel(gpu_spec, autotune=True)
    records = list(build_step_trace(policy).trace.records)
    costs = trace_cost_arrays(records, cost)
    event_s, event_bd = _timed(
        lambda: simulate_step(records, gpu_spec, cost, engine="event"))
    fast_s, fast_bd = _timed(
        lambda: simulate_step(records, gpu_spec, cost, engine="fast",
                              costs=costs))
    return {
        "n_records": len(records),
        "event_s": event_s,
        "fast_s": fast_s,
        "speedup": event_s / max(fast_s, 1e-12),
        "total_s": fast_bd.total_s,
        "match": breakdowns_equal(event_bd, fast_bd),
    }


def _bench_estimate(gpu: str) -> Dict[str, object]:
    scenario = golden_scenario(gpu)
    estimate_step_time(scenario)       # warm traces, partitions, cost arrays

    # Pre-PR-equivalent baseline: event engine with every derived cache
    # dropped and the disk store bypassed, so the call re-partitions,
    # re-costs and event-walks the trace exactly as every call used to.
    # (The trace meta-build memo existed pre-PR and stays warm.  Costing
    # still goes through the vectorized evaluator, which is *faster* than
    # the old scalar split loop, so this baseline understates the true
    # pre-PR cost.)
    store = default_store()
    was_enabled = store.enabled
    store.enabled = False
    try:
        clear_estimate_cache()
        clear_partition_cache()
        clear_cost_cache()
        baseline_s, baseline_est = _timed(
            lambda: estimate_step_time(scenario, engine="event"))
    finally:
        store.enabled = was_enabled

    # Warm-cache runs of both engines (what sweeps actually pay per call):
    # the baseline left the partition and cost arrays in memory.
    event_s, event_est = _timed(
        lambda: estimate_step_time(scenario, engine="event"))
    clear_estimate_cache()
    fast_s, fast_est = _timed(lambda: estimate_step_time(scenario))
    speedup = baseline_s / max(fast_s, 1e-12)
    return {
        "scenario": scenario.label(),
        "world_size": scenario.world_size,
        "kernel_count": fast_est.kernel_count,
        "total_s": fast_est.total_s,
        "baseline_s": baseline_s,
        "event_warm_s": event_s,
        "fast_s": fast_s,
        "speedup": speedup,
        "speedup_vs_warm_event": event_s / max(fast_s, 1e-12),
        "speedup_target": SPEEDUP_TARGET,
        "meets_target": speedup >= SPEEDUP_TARGET,
        "match": (estimates_equal(event_est, fast_est)
                  and estimates_equal(baseline_est, fast_est)),
    }


def _bench_workload(name: str, gpu: str, quick: bool) -> Dict[str, object]:
    """One row of the cross-workload golden table.

    Times a cold trace build of the workload, runs the single-rank step
    through both simulation engines, and pushes the workload's canonical
    multi-rank scenario through :func:`estimate_step_time` under each
    engine — asserting bit-identity at every stage, exactly like the
    default-workload golden sections.
    """
    wl = get_workload(name)
    policy = KernelPolicy.scalefold(checkpointing=False)
    config_name = "small" if quick else "full"
    cfg = wl.preset(config_name, policy)
    build_s, step = _timed(lambda: build_step_trace(
        policy=policy, cfg=cfg, use_cache=False, workload=wl))

    gpu_spec = get_gpu(gpu)
    cost = CostModel(gpu_spec, autotune=True)
    records = list(step.trace.records)
    costs = trace_cost_arrays(records, cost)
    event_s, event_bd = _timed(
        lambda: simulate_step(records, gpu_spec, cost, engine="event"))
    fast_s, fast_bd = _timed(
        lambda: simulate_step(records, gpu_spec, cost, engine="fast",
                              costs=costs))
    step_match = breakdowns_equal(event_bd, fast_bd)

    scenario = Scenario(workload=wl.name, **wl.bench_scenario_kwargs(gpu))
    estimate_step_time(scenario)       # warm traces, partitions, cost arrays
    est_event_s, est_event = _timed(
        lambda: estimate_step_time(scenario, engine="event"))
    clear_estimate_cache()
    est_fast_s, est_fast = _timed(lambda: estimate_step_time(scenario))
    est_match = estimates_equal(est_event, est_fast)

    return {
        "workload": wl.name,
        "config": config_name,
        "n_records": len(records),
        "n_params": step.n_params,
        "trace_build_s": build_s,
        "step_sim": {
            "event_s": event_s,
            "fast_s": fast_s,
            "total_s": fast_bd.total_s,
            "match": step_match,
        },
        "estimate": {
            "scenario": scenario.label(),
            "world_size": scenario.world_size,
            "kernel_count": est_fast.kernel_count,
            "total_s": est_fast.total_s,
            "event_s": est_event_s,
            "fast_s": est_fast_s,
            "match": est_match,
        },
        "match": bool(step_match and est_match),
    }


def _bench_incremental(gpu: str) -> Dict[str, object]:
    """Single-knob deltas off the golden scenario — the optimizer's access
    pattern.  A GPU flip must re-price only the cost segment (the trace
    structure and shard mask come with the cached partition); a GC or
    bucket flip must re-run only the rank-level DES.  Runs with the disk store
    bypassed so the cache hits measured here are the in-memory ones the
    hit-rate gates check.
    """
    base = golden_scenario(gpu)
    other_gpu = "A100" if gpu != "A100" else "H100"
    store = default_store()
    was_enabled = store.enabled
    store.enabled = False
    try:
        clear_estimate_cache()
        clear_partition_cache()
        clear_cost_cache()
        estimate_step_time(base)       # warm structure, partition, mask, cost
        deltas: Dict[str, float] = {}
        for name, changed in (
                ("gpu", dataclasses.replace(base, gpu=other_gpu)),
                ("gc_disabled", dataclasses.replace(
                    base, gc_disabled=not base.gc_disabled)),
                ("ddp_bucket_mb", dataclasses.replace(
                    base, ddp_bucket_mb=base.ddp_bucket_mb * 2))):
            clear_estimate_cache()
            seconds, _ = _timed(lambda: estimate_step_time(changed))
            deltas[name] = seconds
    finally:
        store.enabled = was_enabled
    return {"scenario": base.label(), "delta_s": deltas}


def _bench_ladder(gpu: str, quick: bool) -> Dict[str, object]:
    ladder = optimization_ladder(gpu=gpu)
    if quick:
        ladder = ladder[:QUICK_LADDER_RUNGS]
    clear_estimate_cache()
    cold_s, _ = _timed(lambda: [estimate_step_time(s) for s in ladder])
    warm_s, _ = _timed(lambda: [estimate_step_time(s) for s in ladder])
    return {
        "n_scenarios": len(ladder),
        "quick": quick,
        "cold_s": cold_s,
        "warm_s": warm_s,
    }


def cache_gate_report() -> Dict[str, object]:
    """Per-cache hit-rate gates over the current registry counters."""
    gates: Dict[str, object] = {}
    ok = True
    for name, stats in sorted(cache_registry().items()):
        threshold = CACHE_HIT_THRESHOLDS.get(name)
        if threshold is None:
            continue
        applicable = stats.lookups >= CACHE_GATE_MIN_LOOKUPS
        passed = (not applicable) or stats.hit_rate >= threshold
        gates[name] = {
            "hit_rate": stats.hit_rate,
            "lookups": stats.lookups,
            "evictions": stats.evictions,
            "threshold": threshold,
            "applicable": applicable,
            "ok": passed,
        }
        ok = ok and passed
    return {"gates": gates, "ok": ok}


def run_bench(gpu: str = "H100", quick: bool = False,
              skip_ladder: bool = False,
              workloads: Optional[List[str]] = None) -> Dict[str, object]:
    """Run every benchmark stage; returns the BENCH_simulation payload.

    ``workloads`` selects the rows of the cross-workload table (default:
    every registered workload).  The default-workload golden sections
    (trace_build/step_sim/estimate_64rank) always run so the report stays
    comparable across revisions.
    """
    reset_registry_stats()
    policy = KernelPolicy.scalefold(checkpointing=False)
    report: Dict[str, object] = {
        "version": BENCH_VERSION,
        "gpu": gpu,
        "quick": quick,
        "trace_build": _bench_trace_build(policy),
        "step_sim": _bench_step_sim(policy, gpu),
        "estimate_64rank": _bench_estimate(gpu),
        "incremental_deltas": _bench_incremental(gpu),
    }
    names = list(workloads) if workloads is not None else list_workloads()
    report["workloads"] = {name: _bench_workload(name, gpu, quick)
                           for name in names}
    if not skip_ladder:
        report["ladder_sweep"] = _bench_ladder(gpu, quick)
    report["caches"] = {name: stats.as_dict()
                        for name, stats in sorted(cache_registry().items())}
    report["cache_gates"] = cache_gate_report()
    report["disk_store"] = default_store().stats()
    report["golden_match"] = bool(
        report["step_sim"]["match"] and report["estimate_64rank"]["match"]
        and all(row["match"] for row in report["workloads"].values()))
    return report


def write_bench(path: str, report: Dict[str, object]) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")


def format_bench(report: Dict[str, object]) -> str:
    lines: List[str] = []
    tb = report["trace_build"]
    lines.append(f"trace build ({tb['n_records']:,} records): "
                 f"cold {tb['cold_s']:.3f}s, memory {tb['warm_memory_s']*1e3:.2f}ms"
                 + (f", disk {tb['disk_s']:.3f}s" if "disk_s" in tb else ""))
    ss = report["step_sim"]
    lines.append(f"step sim ({ss['n_records']:,} records): "
                 f"event {ss['event_s']:.3f}s, fast {ss['fast_s']:.3f}s "
                 f"({ss['speedup']:.1f}x), match={ss['match']}")
    est = report["estimate_64rank"]
    lines.append(f"64-rank estimate ({est['scenario']}): "
                 f"baseline {est['baseline_s']:.3f}s, "
                 f"warm event {est['event_warm_s']:.3f}s, "
                 f"warm fast {est['fast_s']:.3f}s "
                 f"({est['speedup']:.1f}x vs target {est['speedup_target']:.0f}x), "
                 f"match={est['match']}")
    if "incremental_deltas" in report:
        inc = report["incremental_deltas"]
        parts = ", ".join(f"{name} {seconds*1e3:.1f}ms"
                          for name, seconds in inc["delta_s"].items())
        lines.append(f"single-knob deltas ({inc['scenario']}): {parts}")
    for name, row in report.get("workloads", {}).items():
        ws, we = row["step_sim"], row["estimate"]
        lines.append(
            f"workload {name} [{row['config']}] "
            f"({row['n_records']:,} records, {row['n_params']:,} params): "
            f"build {row['trace_build_s']:.3f}s, "
            f"step fast {ws['fast_s']:.3f}s match={ws['match']}, "
            f"{we['world_size']}-rank est {we['total_s']:.4f}s "
            f"match={we['match']}")
    if "ladder_sweep" in report:
        ls = report["ladder_sweep"]
        lines.append(f"ladder sweep ({ls['n_scenarios']} scenarios): "
                     f"cold {ls['cold_s']:.3f}s, warm {ls['warm_s']*1e3:.2f}ms")
    if "cache_gates" in report:
        cg = report["cache_gates"]
        gated = [f"{name} {row['hit_rate']:.2f}/{row['threshold']:.2f}"
                 + ("" if row["ok"] else " FAIL")
                 for name, row in cg["gates"].items() if row["applicable"]]
        lines.append("cache gates: " + (", ".join(gated) or "none applicable")
                     + f" -> ok={cg['ok']}")
    store = report["disk_store"]
    lines.append(f"disk store: {store['entries']} entries, {store['bytes']:,} B "
                 f"at {store['root']} "
                 f"({'enabled' if store['enabled'] else 'disabled'})")
    lines.append(f"golden_match: {report['golden_match']}")
    return "\n".join(lines)
