"""Host-time benchmark of the estimate pipeline (``estimate_step_time``).

Usage, from the root of a checkout::

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace 0|1] [--golden PATH] [--out DIR]
    python3 bench/run.py --record-golden

Without ``--workload`` every workload runs in turn.  The load is one
closed loop: this process starts one child process at a time
(``bench/child.py``, single-threaded), each with a fresh interpreter, and
keeps starting children until ``--seconds`` of children have run (at least
three; four, in pairs, when traced).  Every child runs the same block of
calls under the host-speed sampler of ``bench/probe.py``, which scales its
timings to the host's speed in a quiet period; the time metrics are
medians of those over every call (``estimate_p50_s``) or every child
(``setup_s``, ``throughput_eps``).  Children import
``repro`` from ``src/`` of this checkout, and every child gets
``REPRO_CACHE_DIR`` under a temporary root inside ``--out`` that is removed
at exit; other ``REPRO_*`` variables are stripped, so no cache outside the
run can warm it.

With ``--trace 0`` the last line of standard output is one JSON object
with every end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` it
holds every per-layer metric, from a run whose children alternate traced
and untraced over the same calls.  Each run also writes its samples (and,
when traced, its spans) to a JSON file in ``--out``.  Results are checked
against ``bench/golden.json``; seeds without recorded digests are checked
by recomputing sampled calls in a cold child.  Exit status: 0 when every
estimate is correct, 1 when any failed, 2 on a usage or set-up error.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import plan
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
GOLDEN = BENCH / "golden.json"

#: A run stops starting children, and kills a hung one, at this age; the
#: benchmark must exit within 180 s.
RUN_DEADLINE_S = 150.0
#: Calls of each sweep run that a cold child recomputes as a cross-check.
VERIFY_CALLS = 2
#: Tail percentiles a run reports, highest first: the first with ten
#: samples beyond it.  It is not an end-to-end metric, because the af-*
#: runs make too few calls for any of them.
TAIL_PERCENTILES = (99, 95, 90, 80, 75)


class SetupError(Exception):
    """The benchmark cannot run here (printed, exit status 2)."""


def load_catalogue() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError(f"{path} is missing")
    return json.loads(path.read_text())


def store_mb(path: Path) -> float:
    if not path.is_dir():
        return 0.0
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file()) / 2**20


def tail(values: List[float]) -> Optional[Tuple[int, float, int]]:
    """The highest percentile with at least ten samples beyond it, as
    (percentile, value, samples beyond), or None when none has."""
    if len(values) < 2:
        return None
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    for q in TAIL_PERCENTILES:
        beyond = sum(v > cuts[q - 1] for v in values)
        if beyond >= 10:
            return q, cuts[q - 1], beyond
    return None


class Run:
    """One workload run: its children, their results and the checks."""

    def __init__(self, workload: plan.Workload, seed: int, tmp: Path,
                 golden: dict) -> None:
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.golden = golden
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.problems: List[str] = []
        self._spawned = 0

    def child_env(self, store: Path) -> Dict[str, str]:
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_") and k != "PYTHONPATH"}
        # A fixed hash seed makes every child lay out its dicts and sets
        # the same way.
        env.update(PYTHONPATH=str(SRC), REPRO_CACHE_DIR=str(store),
                   TMPDIR=str(self.tmp), PYTHONHASHSEED="0",
                   OMP_NUM_THREADS="1",
                   OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        return env

    def spawn(self, calls: List[int], store: Path, warm: bool = False,
              trace: bool = False) -> Optional[dict]:
        """Run one child to completion; None (and a problem) on failure."""
        self._spawned += 1
        out = self.tmp / f"child-{self._spawned}.json"
        spec = {"workload": self.workload.name, "seed": self.seed,
                "calls": calls, "warm": warm, "trace": trace,
                "src": str(SRC), "out": str(out),
                "spawned": time.monotonic()}
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            self.problems.append("run deadline reached")
            return None
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), json.dumps(spec)],
                env=self.child_env(store), capture_output=True, text=True,
                timeout=timeout, cwd=str(ROOT))
        except subprocess.TimeoutExpired:
            self.problems.append(f"child {self._spawned} timed out")
            return None
        if proc.returncode != 0:
            self.problems.append(f"child {self._spawned} exited "
                                 f"{proc.returncode}: {proc.stderr[-1500:]}")
            return None
        return json.loads(out.read_text())

    # ------------------------------------------------------------------
    def execute(self, seconds: float, traced: bool) -> List[dict]:
        """Timed children until ``seconds`` are used; each dict holds the
        child's result, its ``calls`` and ``traced`` flag, and the size of
        its private store."""
        wl = self.workload
        shared = self.tmp / "store"
        if wl.prefill and self.spawn([], shared, warm=True) is None:
            raise SetupError(f"{wl.name}: the store prefill child failed: "
                             f"{self.problems[-1]}")
        per_step = 2 if traced else 1      # children per block
        min_children = 4 if traced else 3
        children: List[dict] = []
        start = time.monotonic()
        k = 0
        while k < wl.max_blocks * per_step:
            if k % per_step == 0 and k >= min_children:
                mean_wall = (time.monotonic() - start) / k
                if time.monotonic() - start + per_step * mean_wall > seconds:
                    break
            if time.monotonic() >= self.deadline:
                self.problems.append("run deadline reached")
                break
            block = k // per_step
            calls = plan.block_calls(wl, block)
            # Pairs alternate which side runs first.
            child_traced = traced and k % 2 == block % 2
            store = self.tmp / f"store-{k}" if wl.private_store else shared
            child = {"calls": calls, "traced": child_traced,
                     "result": self.spawn(calls, store, warm=wl.sweep,
                                          trace=child_traced)}
            if wl.private_store:
                child["store_mb"] = store_mb(store)
                shutil.rmtree(store, ignore_errors=True)
            children.append(child)
            k += 1
        return children

    # ------------------------------------------------------------------
    def check(self, children: List[dict]) -> int:
        """Count failed calls: errors, crashes and digest mismatches."""
        wl = self.workload
        failed = 0
        digests: Dict[int, str] = {}
        expected = self.golden.get(wl.name, {}).get(str(self.seed))
        af = self.golden["alphafold_64rank"]
        for child in children:
            result = child["result"]
            if result is None:
                failed += len(child["calls"])
                continue
            for call, got, total, err in zip(child["calls"],
                                             result["digests"],
                                             result["totals"],
                                             result["errors"]):
                if got is None:
                    self.problems.append(f"call {call} raised: {err}")
                    failed += 1
                elif not wl.sweep and (got != af["digest"]
                                       or total != af["total_s"]):
                    self.problems.append(
                        f"call {call}: total_s {total!r} digest {got}, "
                        f"golden {af['total_s']!r} {af['digest']}")
                    failed += 1
                elif (expected is not None and call < len(expected)
                      and got != expected[call]):
                    self.problems.append(f"call {call}: digest {got}, "
                                         f"golden {expected[call]}")
                    failed += 1
                elif digests.setdefault(call, got) != got:
                    self.problems.append(f"call {call}: traced and untraced "
                                         f"digests differ")
                    failed += 1
        if wl.sweep and digests:
            failed += self.verify(digests)
        return failed

    def verify(self, digests: Dict[int, str]) -> int:
        """Recompute sampled calls in a cold child with an empty store."""
        rng = random.Random(f"verify/{self.workload.name}/{self.seed}")
        calls = sorted(rng.sample(sorted(digests),
                                  min(VERIFY_CALLS, len(digests))))
        result = self.spawn(calls, self.tmp / "verify-store")
        if result is None:
            return len(calls)
        failed = 0
        for call, got in zip(calls, result["digests"]):
            if got != digests[call]:
                self.problems.append(f"call {call}: cold recompute digest "
                                     f"{got}, timed {digests[call]}")
                failed += 1
        return failed


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(run: Run, children: List[dict]) -> Dict[str, float]:
    done = [c["result"] for c in children if c["result"] is not None]
    if not done:
        return {}
    if run.workload.private_store:
        store = statistics.median(c["store_mb"] for c in children
                                  if c["result"] is not None)
    else:
        store = store_mb(run.tmp / "store")
    # The host's speed swings by up to 2x; the times are scaled to its
    # speed in a quiet period (bench/probe.py).
    return {
        "setup_s": statistics.median(r["ref_setup_s"] for r in done),
        "estimate_p50_s": statistics.median(s for r in done
                                            for s in r["ref_seconds"]),
        "throughput_eps": statistics.median(
            len(r["ref_seconds"]) / r["ref_block_s"] for r in done),
        "peak_rss_mb": max(r["maxrss_mb"] for r in done),
        "store_mb": store,
    }


def per_layer(children: List[dict]) -> Dict[str, float]:
    done = [c for c in children if c["result"] is not None]
    traced = [c["result"] for c in done if c["traced"]]
    plain = [c["result"] for c in done if not c["traced"]]
    if not traced or not plain:
        return {}
    n = sum(len(r["seconds"]) for r in traced)

    def total(key: str, name: str) -> float:
        return sum(r[key].get(name, 0) for r in traced)

    def ref_mean(results: List[dict]) -> float:
        return (sum(sum(r["ref_seconds"]) for r in results)
                / sum(len(r["ref_seconds"]) for r in results))

    # The two sides ran in different children, so the overhead compares
    # times scaled to the same host speed.
    out = {"trace.estimate_s": sum(sum(r["seconds"]) for r in traced) / n,
           "trace.overhead": ref_mean(traced) / ref_mean(plain) - 1.0}
    for layer, metric in spans.SELF_METRICS.items():
        out[metric] = total("layers", layer) / n
    for layer, metric in spans.CALL_METRICS.items():
        out[metric] = total("calls", layer) / n
    lookups = sum(total("store", k) for k in ("trace_hits", "trace_misses",
                                              "array_hits", "array_misses"))
    hits = total("store", "trace_hits") + total("store", "array_hits")
    out["framework.trace_io.hit_rate"] = hits / lookups if lookups else 0.0
    out["framework.trace_io.writes"] = total("store", "writes") / n
    out["perf.vector_cost.cost_builds"] = total("builds", "cost_builds") / n
    out["perf.vector_cost.structure_builds"] = (
        total("builds", "structure_builds") / n)
    for counter in ("perf.step_time.kernels", "distributed.ddp.buckets",
                    "sim.des.events", spans.GC_PAUSE, spans.GC_FULL):
        out[counter] = total("counters", counter) / n
    events = total("counters", "sim.des.events")
    out["sim.des.us_per_event"] = (
        1e6 * total("layers", spans.RANK_DES) / events if events else 0.0)
    for cache in spans.CACHES:
        stats = [r["caches"].get(cache, {}) for r in traced]
        found = sum(s.get("hits", 0) for s in stats)
        seen = sum(s.get("lookups", 0) for s in stats)
        out[f"framework.caching.{cache}.hit_rate"] = found / seen if seen else 0.0
        out[f"framework.caching.{cache}.lookups"] = seen / n
    return out


# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 golden: dict, catalogue: dict, tmp: Path,
                 out_dir: Path) -> dict:
    workload = plan.get(name)
    run = Run(workload, seed, tmp / name, golden)
    run.tmp.mkdir()
    children = run.execute(seconds, trace)
    failed = run.check(children)
    attempted = sum(len(c["calls"]) for c in children)
    declared = catalogue["per_layer" if trace else "end_to_end"]
    values = per_layer(children) if trace else end_to_end(run, children)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        run.problems.append(f"no value for {', '.join(missing)}")
    estimates = [s for c in children if c["result"]
                 for s in c["result"]["ref_seconds"]]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": failed == 0 and not missing, "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared if m["name"] in values},
        "children": len(children),
        "tail": None if trace else tail(estimates),
        "samples": [{k: c["result"][k]
                     for k in ("setup_s", "seconds", "block_s", "samples",
                               "ref_setup_s", "ref_seconds", "ref_block_s")}
                    | {"traced": c["traced"]}
                    for c in children if c["result"]],
        "problems": run.problems,
    }
    if trace:
        record["spans"] = [c["result"]["spans"] for c in children
                           if c["result"] and c["traced"]]
    stamp = time.strftime("%Y%m%d-%H%M%S")
    path = out_dir / f"{name}-seed{seed}-trace{int(trace)}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record))

    print(f"== {name}  seed {seed}  {'traced' if trace else 'untraced'}  "
          f"children {len(children)}  estimates {len(estimates)}  "
          f"failed {failed}")
    for metric, cell in record["metrics"].items():
        print(f"   {metric:44s} {cell['value']:.6g} {cell['unit']}")
    if record["tail"]:
        q, value, beyond = record["tail"]
        print(f"   (tail: p{q} {value:.6g} s, {beyond} samples beyond it)")
    for problem in run.problems:
        print(f"   problem: {problem}")
    print(f"   wrote {path}")
    return record


def record_golden(path: Path, tmp: Path) -> None:
    """Rewrite ``golden.json`` from the current model (deliberate changes)."""
    golden: dict = {
        "about": "per-call result digests: first 16 hex characters of "
                 "sha256(json.dumps(StepEstimate.as_dict(), sort_keys=True))",
    }
    af = Run(plan.get("af-cold"), 0, tmp / "golden-af", golden)
    af.tmp.mkdir()
    result = af.spawn([0], af.tmp / "store")
    if result is None or result["digests"][0] is None:
        raise SetupError(f"af golden call failed: {af.problems}")
    golden["alphafold_64rank"] = {"total_s": result["totals"][0],
                                  "digest": result["digests"][0]}
    for workload in plan.WORKLOADS.values():
        if not workload.sweep:
            continue
        golden[workload.name] = {}
        for seed in plan.GOLDEN_SEEDS:
            run = Run(workload, seed, tmp / f"golden-{workload.name}-{seed}",
                      golden)
            run.tmp.mkdir()
            run.deadline = time.monotonic() + 3600.0
            store = run.tmp / "store"
            run.spawn([], store, warm=True)
            digests: List[str] = []
            for block in range(workload.max_blocks):
                result = run.spawn(plan.block_calls(workload, block), store,
                                   warm=True)
                if result is None or None in result["digests"]:
                    raise SetupError(f"{workload.name} seed {seed} block "
                                     f"{block} failed: {run.problems}")
                digests += result["digests"]
            golden[workload.name][str(seed)] = digests
            print(f"recorded {workload.name} seed {seed}: "
                  f"{len(digests)} digests")
    path.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {path}")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(plan.WORKLOADS),
                        help="run one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measured time per run (default: BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--golden", type=Path, default=GOLDEN)
    parser.add_argument("--out", type=Path, default=BENCH / "out")
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite --golden from the current model")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no simulator sources at {SRC / 'repro'}")
    catalogue = load_catalogue()
    seconds = args.seconds or catalogue["run_seconds"]
    compileall.compile_dir(str(SRC), quiet=1)
    args.out.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=args.out))
    try:
        if args.record_golden:
            record_golden(args.golden, tmp)
            return 0
        if not args.golden.is_file():
            raise SetupError(f"golden results {args.golden} are missing")
        golden = json.loads(args.golden.read_text())
        names = [args.workload] if args.workload else list(plan.WORKLOADS)
        records = [run_workload(name, args.seed, seconds, bool(args.trace),
                                golden, catalogue, tmp, args.out)
                   for name in names]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": cell for r in records
                   for name, cell in r["metrics"].items()}
    correct = all(r["correct"] for r in records)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SetupError as exc:
        print(f"bench/run.py: {exc}", file=sys.stderr)
        sys.exit(2)
