"""Simulation-pipeline benchmark: ``repro bench`` and BENCH_simulation.json.

Writes one machine-readable report of three parts:

* **cross-workload table** — for every registered workload (alphafold,
  transformer, ...): a cold trace build, the single-rank step through both
  simulation engines, and the workload's canonical 64-rank estimate under
  both engines, with the fast path's speedup over the event engine;
* **ladder sweep** — the Figure-8 optimization ladder, one
  :func:`estimate_step_time` per rung, cold and then again with the
  estimate memo cleared;
* **cache gates** — in the ladder's warm pass, no trace or partition
  lookup, and every cost-array lookup a hit.

The two engines must agree bit-for-bit on every simulated number;
``golden_match`` is false (and the CLI exits nonzero) if any row differs.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, List, Optional, Tuple

from ..framework.caching import cache_registry, reset_registry_stats
from ..framework.trace_io import default_store
from ..hardware.gpu import get_gpu
from ..hardware.roofline import CostModel
from ..model.config import KernelPolicy
from ..workloads import get_workload, list_workloads
from .scaling import (Scenario, clear_estimate_cache, estimate_step_time,
                      optimization_ladder)
from .step_time import simulate_step
from .trace_builder import build_step_trace
from .vector_cost import trace_cost_arrays

BENCH_VERSION = 2

#: The fast path should beat the warm event engine by at least this factor
#: on every row's multi-rank estimate.  Reported, not an exit condition.
SPEEDUP_TARGET = 5.0

#: How many ladder rungs a ``--quick`` (CI) run sweeps.
QUICK_LADDER_RUNGS = 3

#: Caches the ladder's warm pass must not look up at all: every rung's cost
#: entry is in memory, and a fast estimate reads nothing else from its
#: trace or partition.
WARM_PASS_UNTOUCHED = ("step-traces", "dap-partitions")

#: The cache whose every warm-pass lookup must hit: the cold pass just
#: stored each rung's cost entry, so a miss means the cache lost one (a
#: capacity regression that re-evicts what a sweep re-uses).
WARM_PASS_HITS = "cost-arrays"


def _timed(fn: Callable[[], object]) -> Tuple[float, object]:
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def _bench_workload(name: str, gpu: str, quick: bool) -> Dict[str, object]:
    """One row of the cross-workload golden table.

    Times a cold trace build of the workload, runs the single-rank step
    through both simulation engines, and pushes the workload's canonical
    multi-rank scenario through :func:`estimate_step_time` under each
    engine, asserting bit-identity at both levels.
    """
    wl = get_workload(name)
    gpu_spec = get_gpu(gpu)
    policy = KernelPolicy.scalefold(checkpointing=False)
    config_name = "small" if quick else "full"
    cfg = wl.preset(config_name, policy)
    build_s, step = _timed(lambda: build_step_trace(
        policy=policy, cfg=cfg, use_cache=False, workload=wl))

    cost = CostModel(gpu_spec, autotune=True)
    records = list(step.trace.records)
    costs = trace_cost_arrays(records, cost)
    event_s, event_bd = _timed(
        lambda: simulate_step(records, gpu_spec, cost, engine="event"))
    fast_s, fast_bd = _timed(
        lambda: simulate_step(records, gpu_spec, cost, engine="fast",
                              costs=costs))
    step_match = event_bd == fast_bd

    scenario = Scenario(workload=wl.name, **wl.bench_scenario_kwargs(gpu))
    # Warm the trace, partition and cost entry: a fast estimate alone
    # would load only the cost entry, and leave the timed event estimate
    # to build the records it walks.
    estimate_step_time(scenario, engine="event")
    est_event_s, est_event = _timed(
        lambda: estimate_step_time(scenario, engine="event"))
    clear_estimate_cache()
    est_fast_s, est_fast = _timed(lambda: estimate_step_time(scenario))
    est_match = est_event == est_fast
    speedup = est_event_s / max(est_fast_s, 1e-12)

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
            "speedup": speedup,
            "meets_target": speedup >= SPEEDUP_TARGET,
            "match": est_match,
        },
        "match": step_match and est_match,
    }


def _bench_ladder(gpu: str, quick: bool) -> Dict[str, object]:
    ladder = optimization_ladder(gpu=gpu)
    if quick:
        ladder = ladder[:QUICK_LADDER_RUNGS]
    clear_estimate_cache()
    cold_s, _ = _timed(lambda: [estimate_step_time(s) for s in ladder])
    # Without this the warm pass is all memo hits; with it, every rung runs
    # through the cost-array cache the gates watch.
    clear_estimate_cache()
    before = cache_registry()
    warm_s, _ = _timed(lambda: [estimate_step_time(s) for s in ladder])
    after = cache_registry()
    return {
        "n_scenarios": len(ladder),
        "quick": quick,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "warm_lookups": {name: after[name].lookups - before[name].lookups
                         for name in WARM_PASS_UNTOUCHED + (WARM_PASS_HITS,)},
        "warm_misses": {WARM_PASS_HITS: (after[WARM_PASS_HITS].misses
                                         - before[WARM_PASS_HITS].misses)},
    }


def cache_gate_report(ladder: Dict[str, object]) -> Dict[str, object]:
    """The ladder warm pass's cache gates: no lookup of
    :data:`WARM_PASS_UNTOUCHED`, and at least one lookup of
    :data:`WARM_PASS_HITS`, every one a hit."""
    lookups, misses = ladder["warm_lookups"], ladder["warm_misses"]
    ok = (not any(lookups[name] for name in WARM_PASS_UNTOUCHED)
          and lookups[WARM_PASS_HITS] > 0 and not misses[WARM_PASS_HITS])
    return {"warm_pass_lookups": dict(lookups),
            "warm_pass_misses": dict(misses), "ok": ok}


def run_bench(gpu: str = "H100", quick: bool = False,
              workloads: Optional[List[str]] = None) -> Dict[str, object]:
    """Run every benchmark stage; returns the BENCH_simulation payload.

    ``workloads`` selects the rows of the cross-workload table (default:
    every registered workload).
    """
    reset_registry_stats()
    names = list(workloads) if workloads is not None else list_workloads()
    rows = {name: _bench_workload(name, gpu, quick) for name in names}
    ladder = _bench_ladder(gpu, quick)
    return {
        "version": BENCH_VERSION,
        "gpu": gpu,
        "quick": quick,
        "workloads": rows,
        "ladder_sweep": ladder,
        "caches": {name: stats.as_dict()
                   for name, stats in sorted(cache_registry().items())},
        "cache_gates": cache_gate_report(ladder),
        "disk_store": default_store().stats(),
        "golden_match": all(row["match"] for row in rows.values()),
    }


def write_bench(path: str, report: Dict[str, object]) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")


def format_bench(report: Dict[str, object]) -> str:
    lines: List[str] = []
    for name, row in report["workloads"].items():
        ws, we = row["step_sim"], row["estimate"]
        lines.append(
            f"workload {name} [{row['config']}] "
            f"({row['n_records']:,} records, {row['n_params']:,} params): "
            f"build {row['trace_build_s']:.3f}s, "
            f"step fast {ws['fast_s']:.3f}s match={ws['match']}, "
            f"{we['world_size']}-rank est {we['total_s']:.4f}s "
            f"({we['speedup']:.1f}x vs target {SPEEDUP_TARGET:.0f}x) "
            f"match={we['match']}")
    ls = report["ladder_sweep"]
    lines.append(f"ladder sweep ({ls['n_scenarios']} scenarios): "
                 f"cold {ls['cold_s']:.3f}s, warm {ls['warm_s']:.3f}s")
    cg = report["cache_gates"]
    lookups, misses = cg["warm_pass_lookups"], cg["warm_pass_misses"]
    gated = [f"{name} warm-pass lookups {lookups[name]}/0"
             + (" FAIL" if lookups[name] else "")
             for name in WARM_PASS_UNTOUCHED]
    n, missed = lookups[WARM_PASS_HITS], misses[WARM_PASS_HITS]
    gated.append(f"{WARM_PASS_HITS} warm-pass misses {missed}/0 of {n}"
                 + ("" if n and not missed else " FAIL"))
    lines.append("cache gates: " + ", ".join(gated) + f" -> ok={cg['ok']}")
    store = report["disk_store"]
    lines.append(f"disk store: {store['entries']} entries, {store['bytes']:,} B "
                 f"at {store['root']} "
                 f"({'enabled' if store['enabled'] else 'disabled'})")
    lines.append(f"golden_match: {report['golden_match']}")
    return "\n".join(lines)
