"""AlphaFold-through-the-registry is bit-identical to the pre-refactor
pipeline: every number in ``golden_alphafold.json`` (captured from the
pre-workload-abstraction code) must match exactly — no tolerances."""

from __future__ import annotations

import json
import os

import pytest

from repro.hardware import CostModel
from repro.hardware.gpu import get_gpu
from repro.model.config import KernelPolicy
from repro.perf.scaling import (Scenario, clear_estimate_cache,
                                estimate_step_time)
from repro.perf.step_time import simulate_step
from repro.perf.trace_builder import build_step_trace, trace_key
from repro.workloads import get_workload

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_alphafold.json")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_small_trace_bit_identical(golden):
    expect = golden["small_trace"]
    wl = get_workload("alphafold")
    policy = KernelPolicy.reference()
    cfg = wl.preset(expect["config"], policy)
    step = build_step_trace(policy=policy, cfg=cfg, workload=wl)
    assert step.workload == "alphafold"
    assert len(step.trace.records) == expect["n_records"]
    assert step.n_params == expect["n_params"]

    gpu = get_gpu("A100")
    cost = CostModel(gpu, autotune=True)
    bd = simulate_step(list(step.trace.records), gpu, cost, engine="event")
    assert bd.total_s == expect["total_s"]
    assert bd.gpu_busy_s == expect["gpu_busy_s"]
    assert bd.cpu_exposed_s == expect["cpu_exposed_s"]
    assert bd.kernel_count == expect["kernel_count"]


def test_estimate_64rank_bit_identical(golden):
    expect = golden["estimate_64rank"]
    clear_estimate_cache()
    wl = get_workload("alphafold")
    est = estimate_step_time(Scenario(**wl.bench_scenario_kwargs("H100")))
    got = est.as_dict()
    for key, value in expect.items():
        assert got[key] == value, f"estimate field {key!r} drifted"


def test_default_workload_key_unchanged():
    # The default cache key leads with the workload name; an explicit
    # "alphafold" and the default must alias the same entry.
    policy = KernelPolicy.scalefold(checkpointing=False)
    assert trace_key(policy) == trace_key(policy, workload="alphafold")
    assert trace_key(policy)[9] == "alphafold"

