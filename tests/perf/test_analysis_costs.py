"""The paper's analyses read the cost arrays every estimate uses.

Each analysis must equal, bit for bit, a per-record fold of
``CostModel.kernel_seconds`` over the kernels the simulated step runs
(COMM and comm-hidden records left out); that fold stays here as the
oracle.  A warm store serves the analyses without extracting a structure
or costing a kernel.
"""

import numpy as np
import pytest

from repro.analysis.tracelint import _launch_bound_kernels
from repro.framework.caching import LruCache
from repro.framework.trace_io import (CACHE_DIR_ENV, CACHE_DISABLE_ENV,
                                      reset_default_store)
from repro.framework.tracer import KernelCategory, KernelRecord, Trace
from repro.hardware.gpu import get_gpu
from repro.hardware.roofline import CostModel
from repro.model.config import KernelPolicy
from repro.perf import trace_builder, vector_cost
from repro.perf.profiler import (key_operation_analysis, module_time_shares,
                                 scope_flame, table1_breakdown, top_kernels)
from repro.perf.trace_builder import StepTrace, build_step_trace
from repro.perf.vector_cost import (_executable, build_counters,
                                    reset_build_counters)
from repro.workloads import get_workload

POLICIES = {"reference": KernelPolicy.reference(),
            "scalefold": KernelPolicy.scalefold(checkpointing=True)}

#: Reference groups of the key-operation analysis, as record predicates.
KEY_OPS = {
    "MHA": lambda r: "attention" in r.scope,
    "LayerNorm": lambda r: "layer_norm" in r.scope,
    "WeightUpdate": lambda r: r.name.startswith("adam_"),
    "SWA": lambda r: r.name.startswith("swa_"),
    "GradClip": lambda r: r.name.startswith("clip_"),
}


def _fold(records, seconds, label, keep=lambda r, s: True):
    """``{label: (seconds, calls)}`` summed record by record, first-seen
    order, over the executable records ``keep`` accepts."""
    out = {}
    for r, s in zip(records, seconds):
        if keep(r, s):
            total, calls = out.get(label(r), (0.0, 0))
            out[label(r)] = (total + s, calls + 1)
    return out


def _module(r):
    return "/".join(r.scope.split("/")[:2]) if r.scope else "(update)"


def _check_against_the_fold(step, fused, gpu):
    cost_model = CostModel(gpu, autotune=False)
    executed = [r for r in step.trace.records if _executable(r)]
    seconds = [cost_model.kernel_seconds(r) for r in executed]

    per_name = _fold(executed, seconds, lambda r: r.name)
    total = sum(s for s, _ in per_name.values())
    expected = sorted(((name, s, calls, 100.0 * s / total, 1e6 * s / calls)
                       for name, (s, calls) in per_name.items()),
                      key=lambda row: -row[1])
    got = [(r.name, r.seconds, r.calls, r.pct_of_step, r.mean_us)
           for r in top_kernels(step, gpu, k=len(per_name) + 1)]
    assert got == expected

    shares = {k: s for k, (s, _) in _fold(executed, seconds,
                                           _module).items()}
    total = sum(shares.values())
    expected = [(k, v / total) for k, v in
                sorted(shares.items(), key=lambda kv: -kv[1])]
    assert list(module_time_shares(step, gpu).items()) == expected

    step_total = table1_breakdown(step, gpu).total_seconds
    dispatch_s = gpu.dispatch_seconds()
    for stats in key_operation_analysis(step, fused, gpu):
        matched = [s for r, s in zip(executed, seconds)
                   if KEY_OPS[stats.name](r)]
        secs = sum(matched)
        if stats.name in ("WeightUpdate", "SWA", "GradClip"):
            secs = max(secs, len(matched) * dispatch_s)
        assert stats.calls == len(matched), stats.name
        assert stats.step_share_pct == (100.0 * secs / step_total
                                        if step_total > 0 else 0.0)

    dispatch = gpu.dispatch_seconds(graphed=False)
    assert _launch_bound_kernels(step.trace, gpu) == _fold(
        executed, seconds, lambda r: r.name, lambda r, s: s < dispatch)


def _seeded_step(seed):
    """A record list with COMM records, comm-hidden records, tiny kernels
    below the dispatch cost and overlapping key-operation groups."""
    rng = np.random.default_rng(seed)
    names = ("matmul", "softmax", "adam_step", "swa_avg", "clip_norm",
             "bucket_sq_reduce", "add")
    scopes = ("", "alphafold/evoformer/blocks.0/attention",
              "alphafold/evoformer/blocks.1/layer_norm", "alphafold/heads")
    category = (KernelCategory.MATH, KernelCategory.MEMORY,
                KernelCategory.MEMORY_OP, KernelCategory.COMM)
    trace = Trace("seeded")
    for _ in range(400):
        cat = category[rng.integers(len(category))]
        hidden = cat is not KernelCategory.COMM and rng.random() < 0.15
        flops = 0.0 if rng.random() < 0.3 else float(rng.uniform(1, 1e10))
        trace.records.append(KernelRecord(
            names[rng.integers(len(names))], cat, flops,
            float(10 ** rng.uniform(0, 9)), (int(rng.integers(1, 512)),),
            ("fp32", "bf16")[rng.integers(2)],
            scopes[rng.integers(len(scopes))], bool(rng.random() < 0.5),
            ("forward", "backward", "update")[rng.integers(3)], None,
            {"hidden_by_comm": True} if hidden else None))
    return StepTrace(trace=trace, policy=KernelPolicy.reference(),
                     n_recycle=1, n_params=0, param_shapes=[])


@pytest.fixture
def lrus(tmp_path, monkeypatch):
    """An empty default store, and empty trace and cost LRUs of this test
    only (the process-wide ones hold session fixtures' traces)."""
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    monkeypatch.delenv(CACHE_DISABLE_ENV, raising=False)
    reset_default_store()
    caches = (LruCache(capacity=8, name="step-traces-test"),
              LruCache(capacity=96, name="cost-arrays-test"))
    monkeypatch.setattr(trace_builder, "_CACHE", caches[0])
    monkeypatch.setattr(vector_cost, "_ARRAY_CACHE", caches[1])
    yield caches
    reset_default_store()


@pytest.mark.parametrize("gpu", ["A100", "H100"])
def test_analyses_equal_the_scalar_fold(gpu, lrus):
    gpu = get_gpu(gpu)
    for name in ("alphafold", "transformer"):
        wl = get_workload(name)
        for preset in ("tiny", "small"):
            steps = {label: build_step_trace(
                policy, cfg=wl.preset(preset, policy), workload=wl)
                for label, policy in POLICIES.items()}
            for step in steps.values():
                _check_against_the_fold(step, steps["scalefold"], gpu)
    for seed in range(3):
        step = _seeded_step(seed)
        assert any(not _executable(r) for r in step.trace.records)
        _check_against_the_fold(step, step, gpu)


def test_a_warm_store_serves_the_analyses(lrus):
    """With the cost and trace LRUs cleared, a warm store runs the
    analyses without a structure extraction or a cost build."""
    policy = KernelPolicy.scalefold(checkpointing=True)
    gpu = get_gpu("A100")
    wl = get_workload("alphafold")

    def analyses():
        step = build_step_trace(policy, cfg=wl.preset("tiny", policy),
                                workload=wl)
        return (table1_breakdown(step, gpu), top_kernels(step, gpu),
                scope_flame(step, gpu).folded())

    cold = analyses()
    for cache in lrus:
        cache.clear()
    reset_build_counters()
    assert analyses() == cold
    assert build_counters() == {"structure_builds": 0, "cost_builds": 0}
