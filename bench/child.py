"""One benchmark child process: set up, run a block of estimates, report.

Run by ``bench/run.py`` with one JSON argument::

    {"workload": "sweep-alphafold", "seed": 0, "calls": [0, 1, ...],
     "warm": true, "trace": false, "spawned": <time.monotonic() at spawn>,
     "src": "<checkout>/src", "out": "<file to write the result to>"}

Set-up is the import of the estimate path plus, with ``warm``, one estimate
of the workload's base scenario per warm-up GPU; ``setup_s`` runs from the
parent's spawn stamp (``time.monotonic`` is system-wide on Linux) to the
end of set-up.  Each call is timed on its own (``seconds``), and so is the
timed block, the calls and the work between them (``block_s``).  The
process runs under the host-speed sampler of ``bench/probe.py``: the time
spent in it is left out of every timing, its memory out of ``maxrss_mb``,
and each timing also comes scaled to the host's speed in a quiet period
(``ref_setup_s``, ``ref_seconds``, ``ref_block_s``).  Each call's result
digest is the first 16 hex characters of the SHA-256 of
``json.dumps(estimate.as_dict(), sort_keys=True)``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import sys
import time
import traceback

import plan
import spans
from probe import Sampler

DIGEST_CHARS = 16


def digest(estimate) -> str:
    text = json.dumps(estimate.as_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_CHARS]


def _store_counters(store) -> dict:
    stats = store.stats()
    return {k: stats[k] for k in ("trace_hits", "trace_misses", "array_hits",
                                  "array_misses", "writes")}


def main(spec: dict, sampler: Sampler) -> dict:
    clock = sampler.clock
    started = clock()
    import repro
    from repro.framework import caching, trace_io
    from repro.perf import scaling, vector_cost
    from repro.workloads import get_workload

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(repro.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported repro from {repro.__file__}, "
                           f"not from {src}")
    workload = plan.get(spec["workload"])
    model = get_workload(workload.model)

    def scenario(overrides: dict):
        kwargs = model.bench_scenario_kwargs(overrides.get("gpu", "H100"))
        kwargs.update(overrides)
        return scaling.Scenario(workload=workload.model, **kwargs)

    points = plan.block_points(workload.model) if workload.sweep else []
    if workload.sweep and len(points) != plan.SWEEP_BLOCK:
        raise RuntimeError(f"the search space gives {len(points)} sweep "
                           f"points per block, plan.SWEEP_BLOCK is "
                           f"{plan.SWEEP_BLOCK}")
    if spec["warm"]:
        for gpu in sorted({p["gpu"] for p in points} or {"H100"}):
            scaling.estimate_step_time(scenario({"gpu": gpu}))
    ready = clock()
    setup_s = time.monotonic() - spec["spawned"] - sampler.probing

    calls = spec["calls"]
    # Set-up's garbage is collected before timing, so timed calls pay for
    # their own and every child's calls start from the same collector state.
    gc.collect()
    out = {"setup_s": setup_s, "setup": (started, ready), "seconds": [],
           "intervals": [], "digests": [], "totals": [], "errors": []}

    def run_calls():
        block_start = clock()
        for i in calls:
            sc = scenario(plan.call_overrides(workload, spec["seed"], i,
                                              points))
            start = clock()
            try:
                est, error = scaling.estimate_step_time(sc), None
            except Exception:
                est, error = None, traceback.format_exc(limit=4)
            out["intervals"].append((start, clock()))
            out["digests"].append(None if est is None else digest(est))
            out["totals"].append(None if est is None else est.total_s)
            out["errors"].append(error)
        # The whole timed block: the calls and everything between them
        # (scenario construction, digests, collections).
        out["block"] = (block_start, clock())
        out["seconds"] = [end - start for start, end in out["intervals"]]

    if not spec["trace"]:
        run_calls()
    else:
        store = trace_io.default_store()
        caching.reset_registry_stats()
        store0, builds0 = _store_counters(store), vector_cost.build_counters()
        rec = spans.Recorder(clock=clock)
        with spans.instrument(rec):
            run_calls()
        # Latency of a traced call is its root span, so the layers' self
        # times add up to it exactly.
        out["seconds"] = rec.root_seconds()
        out["layers"] = rec.self_times()
        out["calls"] = dict(rec.calls())
        out["counters"] = dict(rec.counters)
        out["store"] = {k: v - store0[k]
                        for k, v in _store_counters(store).items()}
        out["builds"] = {k: v - builds0[k]
                         for k, v in vector_cost.build_counters().items()}
        out["caches"] = {name: {"hits": s.hits, "lookups": s.lookups}
                         for name, s in caching.cache_registry().items()}
        out["spans"] = rec.spans
    # The memory probe's array stays resident from start to end, so the
    # peak without it is the peak less its size.
    out["maxrss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        - sampler.memory_probe.nbytes / 1024) / 1024
    return out


def scale(out: dict, sampler: Sampler) -> None:
    """Add the timings at the reference host speed (``ref_*``)."""
    start, ready = out["setup"]
    out["ref_setup_s"] = out["setup_s"] * sampler.scaled(start, ready) / (
        ready - start)
    out["ref_seconds"] = [sampler.scaled(*span) for span in out["intervals"]]
    out["block_s"] = out["block"][1] - out["block"][0]
    out["ref_block_s"] = sampler.scaled(*out["block"])
    out["samples"] = len(sampler.times)


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    with Sampler() as sampler:
        result = main(spec, sampler)
    scale(result, sampler)
    with open(spec["out"], "w") as handle:
        json.dump(result, handle)
