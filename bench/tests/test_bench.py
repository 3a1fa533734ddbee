"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root with ``python -m pytest bench/tests -q``.
The end-to-end cases run ``bench/run.py`` on ``af-warmstore`` for one
second (three or four short children) with ``--out`` and ``HOME`` inside
pytest's temporary directory.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import plan  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

CATALOGUE = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tree(root: Path) -> set:
    """Every file under ``root`` except bytecode, pytest and git state."""
    skip = {"__pycache__", ".pytest_cache", ".git"}
    return {str(p.relative_to(root)) for p in root.rglob("*")
            if p.is_file() and not skip.intersection(p.parts)}


def _bench(tmp_path: Path, *args: str) -> subprocess.CompletedProcess:
    home = tmp_path / "home"
    home.mkdir(exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(HOME=str(home), REPRO_CACHE_DIR=str(tmp_path / "must-not-use"))
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "af-warmstore",
         "--seed", "0", "--seconds", "1", "--out", str(tmp_path / "out"),
         *args], env=env, capture_output=True, text=True, timeout=170,
        cwd=str(ROOT))


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("untraced")
    before = _tree(ROOT)
    proc = _bench(tmp)
    return tmp, proc, before, _tree(ROOT)


def _last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.stdout, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_end_to_end_metric_prints_with_its_unit(untraced):
    _tmp, proc, _before, _after = untraced
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3
    for spec in CATALOGUE["end_to_end"]:
        cell = result["metrics"][spec["name"]]
        assert cell["unit"] == spec["unit"]
        assert cell["value"] > 0
        assert any(line.split()[:1] == [spec["name"]]
                   and line.split()[-1] == spec["unit"]
                   for line in proc.stdout.splitlines())
    assert len(result["metrics"]) == len(CATALOGUE["end_to_end"])


def test_nothing_written_outside_the_temp_root(untraced):
    tmp, proc, before, after = untraced
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert after == before
    assert not any((tmp / "home").iterdir())
    assert not (tmp / "must-not-use").exists()
    out = list((tmp / "out").iterdir())
    assert [p.suffix for p in out] == [".json"]  # temp root removed


def test_corrupted_golden_digest_fails_the_run(tmp_path):
    golden = json.loads(run.GOLDEN.read_text())
    golden["alphafold_64rank"]["digest"] = "0" * 16
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    proc = _bench(tmp_path, "--golden", str(path))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    result = _last_json(proc)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_traced_run_reports_every_layer_and_they_add_up(tmp_path):
    proc = _bench(tmp_path, "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    metrics = _last_json(proc)["metrics"]
    assert [m["name"] for m in CATALOGUE["per_layer"]] == list(metrics)
    layers = sum(metrics[m]["value"] for m in spans.SELF_METRICS.values())
    assert layers == pytest.approx(metrics["trace.estimate_s"]["value"],
                                   rel=0.01)


def test_traced_child_layers_add_up_on_a_sweep(tmp_path):
    store = tmp_path / "store"
    out = tmp_path / "child.json"
    spec = {"workload": "sweep-transformer", "seed": 0, "calls": [0, 1],
            "warm": True, "trace": True, "src": str(run.SRC), "out": str(out),
            "spawned": time.monotonic()}
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(run.SRC), REPRO_CACHE_DIR=str(store))
    proc = subprocess.run([sys.executable, str(run.CHILD), json.dumps(spec)],
                          env=env, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    golden = json.loads(run.GOLDEN.read_text())["sweep-transformer"]["0"]
    assert result["digests"] == golden[:2]
    assert sum(result["layers"].values()) == pytest.approx(
        sum(result["seconds"]), rel=1e-9)
    assert result["layers"]["perf.scaling"] < 0.1 * sum(result["seconds"])
    assert result["calls"][spans.RANK_DES] == 4
    assert result["counters"]["sim.des.events"] > 0
    # Collector pauses overlap the layer times, never exceed them.
    assert 0 < result["counters"][spans.GC_PAUSE] < sum(result["seconds"])
    assert result["caches"]["step-estimates"]["hits"] == 0


def test_call_metrics_are_medians_of_the_scaled_times():
    def child(seconds, block_s, setup_s):
        return {"calls": [0, 1, 2], "traced": False, "store_mb": 1.0,
                "result": {"ref_seconds": seconds, "ref_block_s": block_s,
                           "ref_setup_s": setup_s, "maxrss_mb": 80.0}}

    children = [child([0.3, 0.1, 0.2], 0.9, 0.5),
                child([0.2, 0.4, 0.3], 1.2, 0.7),
                child([0.5, 0.6, 0.4], 2.0, 0.6)]
    workload = types.SimpleNamespace(private_store=True)
    metrics = run.end_to_end(types.SimpleNamespace(workload=workload),
                             children)
    assert metrics["estimate_p50_s"] == 0.3
    # Calls over the block's time, which includes the work between calls,
    # not over the sum of the call times.
    assert metrics["throughput_eps"] == 3 / 1.2
    assert metrics["setup_s"] == 0.6


def test_sampler_scales_each_stretch_by_the_nearest_sample():
    sampler = probe.Sampler()
    ref = probe.REFERENCE_S
    # The host runs at reference speed up to t=1, then at half speed.
    sampler.times.extend([0.0, 0.5, 1.5, 2.5])
    sampler.probes.extend([ref, ref, 2 * ref, 2 * ref])
    assert sampler.scaled(0.0, 1.0) == pytest.approx(1.0)
    assert sampler.scaled(1.0, 3.0) == pytest.approx(1.0)
    assert sampler.scaled(0.25, 1.25) == pytest.approx(0.75 + 0.125)
    assert sampler.scaled(-1.0, 0.0) == pytest.approx(1.0)


def test_sampler_scales_full_collections_by_the_memory_probe():
    sampler = probe.Sampler()
    ref, mem = probe.REFERENCE_S, probe.MEMORY_REFERENCE_S
    # Interpreter work runs at half speed throughout, memory at 3/4 speed;
    # a full collection runs from t=1 to t=1.5.
    sampler.times.extend([0.0, 1.0, 2.0])
    sampler.probes.extend([2 * ref] * 3)
    sampler.memory_probes.extend([mem / 0.75] * 3)
    sampler.full_gc.extend([1.0, 1.5])
    assert sampler.scaled(0.0, 2.0) == pytest.approx(1.5 * 0.5 + 0.5 * 0.75)
    assert sampler.scaled(1.25, 2.0) == pytest.approx(0.25 * 0.75
                                                      + 0.5 * 0.5)


def test_probes_leave_the_collector_as_they_found_it():
    memory_probe = probe.MemoryProbe()
    probe.probe()
    memory_probe()
    before = gc.get_count()
    probe.probe()
    memory_probe()
    # At most the tuple ``before`` itself.
    assert gc.get_count()[0] - before[0] <= 1
    with probe.Sampler() as sampler:
        gc.collect()
    assert len(sampler.times) == 2 and sampler.probing > 0
    assert len(sampler.full_gc) == 2
    assert sampler.full_gc[0] < sampler.full_gc[1]
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert sampler._on_gc not in gc.callbacks


def test_recorder_self_times_sum_to_the_root():
    ticks = iter(range(100))
    rec = spans.Recorder(clock=lambda: float(next(ticks)))
    leaf = rec.wrap(lambda: None, "leaf")

    def middle():
        leaf()
        leaf()

    root = rec.wrap(rec.wrap(middle, "middle"), "root")
    root()
    root()
    self_s = rec.self_times()
    assert sum(self_s.values()) == sum(rec.root_seconds())
    assert self_s["leaf"] == 4.0 and rec.calls()["leaf"] == 4
    assert [s[4] for s in rec.spans] == [0] * 4 + [1] * 4


def test_declared_workloads_are_the_ones_the_benchmark_runs():
    assert [w["name"] for w in CATALOGUE["workloads"]] == list(plan.WORKLOADS)


def test_generators_are_deterministic_per_seed_and_differ_across_seeds():
    for workload in plan.WORKLOADS.values():
        points = plan.block_points(workload.model) if workload.sweep else []
        calls = range(3 * workload.block)

        def overrides(seed):
            return [plan.call_overrides(workload, seed, i, points)
                    for i in calls]

        first = overrides(7)
        assert first == overrides(7)
        if not workload.sweep:
            assert first == [{}] * len(first)
            continue
        other = overrides(8)
        assert first != other
        # Every block of every seed runs the same points in the same
        # order; only the scenario seed differs, and it is unique per call.
        blocks = {tuple(tuple(sorted((k, v) for k, v in o.items()
                                     if k != "seed"))
                        for o in calls_of_seed[b * workload.block:
                                               (b + 1) * workload.block])
                  for calls_of_seed in (first, other) for b in range(3)}
        assert len(blocks) == 1
        assert len({o["seed"] for o in first + other}) == 2 * len(first)


@pytest.mark.parametrize("model", ["alphafold", "transformer"])
def test_sweep_block_is_a_balanced_fraction(model):
    from repro.optimize.space import knob_space
    space = {k.name: k.values for k in knob_space(model)
             if k.stage in plan.SWEEP_STAGES}
    space["dp_degree"] = space.pop("batch")
    points = plan.block_points(model)
    assert len(points) == plan.SWEEP_BLOCK
    assert all(p["nonblocking_pipeline"] is True for p in points)
    for knob, values in space.items():
        # Every candidate the optimizer would try, in equal shares.
        seen = [p[knob] for p in points]
        assert sorted(set(seen), key=values.index) == list(values)
        assert len({seen.count(v) for v in values}) == 1
    # Each (dp, bucket) cell twice, with complementary two-valued knobs.
    cells = {}
    for p in points:
        cells.setdefault((p["dp_degree"], p["ddp_bucket_mb"]), []).append(p)
    assert len(cells) == len(space["dp_degree"]) * len(space["ddp_bucket_mb"])
    for a, b in cells.values():
        for knob in ("gpu", "cuda_graphs", "gc_disabled"):
            assert a[knob] != b[knob]


@pytest.mark.parametrize("n,expected", [
    (8, None), (25, None), (41, 75), (68, 80), (100, 90), (136, 90),
    (200, 95), (1000, 99)])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, expected):
    samples = [float(i) for i in range(n)]
    got = run.tail(samples)
    if expected is None:
        assert got is None
        return
    q, value, beyond = got
    assert q == expected and beyond >= 10
    assert beyond == sum(s > value for s in samples)


@pytest.mark.parametrize("parent,change,higher,bound,expected", [
    ([1.0 + 0.001 * i for i in range(10)], [0.8] * 10, False, 0.1, "better"),
    ([1.0] * 10, [1.2] * 10, False, 0.1, "worse"),
    ([1.0 + 0.001 * i for i in range(10)], [1.01] * 10, False, 0.1,
     "unchanged"),
    ([0.5, 1.5] * 5, [0.9, 1.0] * 5, False, 0.1, "unresolved"),
    ([1.0] * 9, [0.5] * 9, False, 0.1, "unchanged"),   # too few pairs
    ([1.0] * 10, [2.0] * 10, True, None, "better"),
])
def test_compare_verdicts(parent, change, higher, bound, expected):
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    assert compare.verdict(parent, change, wins, higher, bound) == expected


def _write_results(tmp_path: Path, side: str, value: float,
                   failed: int = 0) -> Path:
    d = tmp_path / side
    d.mkdir()
    for seed in range(10):
        (d / f"af-cold-seed{seed}.json").write_text(json.dumps({
            "workload": "af-cold", "trace": False, "seed": seed,
            "correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {"estimate_p50_s": {"value": value + 0.01 * seed,
                                           "unit": "s"}}}))
    return d


def test_compare_pairs_runs_by_seed(tmp_path):
    rows = compare.compare(
        compare.load([_write_results(tmp_path, "parent", 1.0)]),
        compare.load([_write_results(tmp_path, "change", 0.5)]), CATALOGUE)
    assert [(r["metric"], r["wins"], r["verdict"]) for r in rows] == [
        ("failed", 0, "unchanged"), ("estimate_p50_s", 10, "better")]


def test_compare_a_failing_change_is_worse_and_gains_nothing(tmp_path):
    parent = _write_results(tmp_path, "parent", 1.0)
    change = _write_results(tmp_path, "change", 0.5, failed=1)
    rows = compare.compare(compare.load([parent]), compare.load([change]),
                           CATALOGUE)
    assert [(r["metric"], r["verdict"]) for r in rows] == [
        ("failed", "worse"), ("estimate_p50_s", "unresolved")]
    assert compare.main(["--parent", str(parent),
                         "--change", str(change)]) == 1


def test_refuses_to_run_without_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "af-cold", "--seed", "0"], cwd=str(tmp_path),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "no simulator sources" in proc.stderr
    assert not proc.stdout.strip()
