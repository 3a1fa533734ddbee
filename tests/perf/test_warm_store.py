"""The warm-store estimate: one cost entry holds everything a fast estimate
reads from the partitioned records, so a hit builds no trace, partition or
compiled record list, in this process or a fresh one."""

import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.framework import dtypes
from repro.framework.trace_io import (CACHE_DIR_ENV, CACHE_DISABLE_ENV,
                                      default_store, reset_default_store)
from repro.hardware.gpu import get_gpu
from repro.hardware.roofline import CostModel
from repro.model.config import KernelPolicy
from repro.perf import scaling, trace_builder
from repro.perf.scaling import Scenario, estimate_step_time
from repro.perf.step_time import simulate_step
from repro.perf.vector_cost import (ARRAYS_FORMAT_VERSION, TraceCostArrays,
                                    TraceStructure, build_counters,
                                    clear_cost_cache, compute_cost_arrays,
                                    cost_cache_material,
                                    reset_build_counters)
from repro.workloads import get_workload

#: The stages a hit must not run, as ``repro.perf.scaling`` calls them.
BUILD_STAGES = ("build_step_trace", "partition_step", "apply_torch_compile")

CHILD = """
import json, sys
from repro.framework.trace_io import default_store
from repro.perf import scaling
from repro.workloads import get_workload

calls = dict.fromkeys(sys.argv[1].split(","), 0)
for name in calls:
    def counted(*args, _name=name, _fn=getattr(scaling, name), **kwargs):
        calls[_name] += 1
        return _fn(*args, **kwargs)
    setattr(scaling, name, counted)
out = []
for name in ("alphafold", "transformer"):
    kwargs = get_workload(name).bench_scenario_kwargs("H100")
    sc = scaling.Scenario(workload=name, **kwargs)
    out.append(scaling.estimate_step_time(sc).as_dict())
stats = default_store().stats()
print(json.dumps({"estimates": out, "calls": calls,
                  "trace_reads": stats["trace_hits"] + stats["trace_misses"]}))
"""


def _clear_in_process_caches() -> None:
    scaling.clear_estimate_cache()
    scaling.clear_partition_cache()
    clear_cost_cache()
    trace_builder.clear_cache()


@pytest.fixture
def store_dir(tmp_path, monkeypatch):
    """An empty default store and empty in-process caches for one test."""
    root = str(tmp_path / "cache")
    monkeypatch.setenv(CACHE_DIR_ENV, root)
    monkeypatch.delenv(CACHE_DISABLE_ENV, raising=False)
    reset_default_store()
    _clear_in_process_caches()
    yield root
    reset_default_store()
    _clear_in_process_caches()


@pytest.fixture
def stage_calls(monkeypatch):
    """Count the calls of every build stage made through ``scaling``."""
    calls = dict.fromkeys(BUILD_STAGES, 0)
    for name in BUILD_STAGES:
        fn = getattr(scaling, name)

        def counted(*args, _name=name, _fn=fn, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(scaling, name, counted)
    return calls


def _tiny() -> Scenario:
    """A DAP-2 compiled scenario: COMM records, a shard mask, fusions."""
    return Scenario.scalefold(dap_n=2, dp_degree=8, preset="tiny")


def _cold(scenario: Scenario, monkeypatch) -> scaling.StepEstimate:
    """``scenario`` estimated with every cache empty and no store."""
    with monkeypatch.context() as m:
        m.setattr(default_store(), "enabled", False)
        _clear_in_process_caches()
        estimate = estimate_step_time(scenario)
        _clear_in_process_caches()
    return estimate


def _entry_path(scenario: Scenario) -> str:
    material = cost_cache_material(repr(scaling._records_id(scenario)),
                                   get_gpu(scenario.gpu), True)
    return default_store().path(material)


def test_fresh_process_on_a_warm_store_builds_nothing(tmp_path):
    """Both bench scenarios from a warm store: estimates equal to the cold
    ones, no trace read and no build stage called."""
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env[CACHE_DIR_ENV] = str(tmp_path / "cache")
    env.pop(CACHE_DISABLE_ENV, None)

    def child() -> dict:
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, ",".join(BUILD_STAGES)], env=env,
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    cold, warm = child(), child()
    assert cold["calls"] == dict.fromkeys(BUILD_STAGES, 2)
    assert warm["estimates"] == cold["estimates"]
    assert warm["calls"] == dict.fromkeys(BUILD_STAGES, 0)
    assert warm["trace_reads"] == 0


def test_gpu_flip_after_a_disk_hit_recosts_the_loaded_structure(
        store_dir, stage_calls, monkeypatch):
    h100 = _tiny()
    a100 = dataclasses.replace(h100, gpu="A100")
    first = estimate_step_time(h100)
    _clear_in_process_caches()
    reset_build_counters()
    stage_calls.update(dict.fromkeys(BUILD_STAGES, 0))

    assert estimate_step_time(h100) == first          # a disk hit
    assert build_counters() == {"structure_builds": 0, "cost_builds": 0}
    assert stage_calls == dict.fromkeys(BUILD_STAGES, 0)

    flipped = estimate_step_time(a100)
    assert build_counters() == {"structure_builds": 0, "cost_builds": 1}
    assert stage_calls == dict.fromkeys(BUILD_STAGES, 1)
    assert flipped == _cold(a100, monkeypatch)


@pytest.mark.parametrize("damage", ["v2", "truncated"])
def test_rejected_entry_is_a_miss_and_rebuilt(store_dir, damage):
    scenario = _tiny()
    expected = estimate_step_time(scenario)
    path = _entry_path(scenario)
    with np.load(path) as data:
        payload = {k: data[k] for k in data.files}
    if damage == "v2":
        payload["format"] = payload["format"][:2].copy()
        payload["format"][0] = 2
        with open(path, "wb") as handle:
            np.savez(handle, **payload)
    else:
        blob = pathlib.Path(path).read_bytes()
        pathlib.Path(path).write_bytes(blob[:len(blob) // 2])
    _clear_in_process_caches()
    before = default_store().stats()

    assert estimate_step_time(scenario) == expected
    after = default_store().stats()
    # One miss, no hit, and the rebuilt entry rewritten.
    assert after["array_misses"] == before["array_misses"] + 1
    assert after["array_hits"] == before["array_hits"]
    assert after["writes"] == before["writes"] + 1
    with np.load(path) as data:
        assert int(data["format"][0]) == ARRAYS_FORMAT_VERSION


def test_structure_round_trips_through_the_entry(store_dir):
    scenario = _tiny()
    estimate_step_time(scenario)
    built = scaling._DAP_CACHE.get(scaling._records_id(scenario)).structure
    assert built.comm_positions.size and built.shardable.any()
    assert not built.shardable.all() and built.n_params > 0
    with np.load(_entry_path(scenario)) as data:
        loaded = TraceCostArrays.from_arrays(
            {k: data[k] for k in data.files}).structure
    for f in dataclasses.fields(TraceStructure):
        a, b = getattr(built, f.name), getattr(loaded, f.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype, f.name
            np.testing.assert_array_equal(a, b, err_msg=f.name)
        else:
            assert a == b, f.name


def _material(scenario: Scenario) -> str:
    return cost_cache_material(repr(scaling._records_id(scenario)),
                               get_gpu("H100"), True)


def _changed(value, name: str):
    other = {"workload": "transformer", "preset": "tiny", "gpu": "A100",
             "dtype": dtypes.bfloat16}
    if name in other:
        return other[name]
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    raise AssertionError(f"no changed value for {name}")


#: Scenario fields that must not reach the records' identity: the GPU and
#: the rank-stage fields.
RANK_FIELDS = ("gpu", "dp_degree", "cuda_graphs", "gc_disabled",
               "nonblocking_pipeline", "data_workers", "imbalance_enabled",
               "seed", "ddp_bucket_mb")


def test_cost_material_covers_every_records_field():
    """Every Scenario and KernelPolicy field reaches the cost entry's key,
    except the GPU and the rank-stage fields, which must not."""
    base = Scenario()
    assert _material(base) == _material(Scenario())
    for f in dataclasses.fields(Scenario):
        if f.name == "policy":
            continue
        changed = dataclasses.replace(
            base, **{f.name: _changed(getattr(base, f.name), f.name)})
        if f.name in RANK_FIELDS:
            assert _material(changed) == _material(base), f.name
        else:
            assert _material(changed) != _material(base), f.name
    for f in dataclasses.fields(KernelPolicy):
        policy = base.policy.replace(
            **{f.name: _changed(getattr(base.policy, f.name), f.name)})
        changed = dataclasses.replace(base, policy=policy)
        assert _material(changed) != _material(base), f.name


def test_fast_step_runs_from_the_cost_arrays_alone():
    step = trace_builder.build_step_trace(
        KernelPolicy.scalefold(), cfg=get_workload("alphafold").preset(
            "tiny", KernelPolicy.scalefold()))
    records = list(step.trace.records)
    gpu = get_gpu("H100")
    costs = compute_cost_arrays(records, CostModel(gpu, autotune=True))
    marks = costs.structure.default_marks
    assert (simulate_step(None, gpu, segment_marks=marks, costs=costs)
            == simulate_step(records, gpu, segment_marks=marks, costs=costs))
    with pytest.raises(ValueError, match="event engine needs the records"):
        simulate_step(None, gpu, costs=costs, engine="event")
    with pytest.raises(ValueError, match="needs the records"):
        simulate_step(None, gpu, costs=costs,
                      on_kernel=lambda record, start, end: None)
