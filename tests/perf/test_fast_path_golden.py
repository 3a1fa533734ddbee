"""The vectorized fast engine must be *bit-identical* to the event engine.

Every simulated number — totals, aggregates, segments, timeline intervals,
per-kernel replay timestamps — is compared with exact ``==`` across a grid
of policies, dispatch regimes (eager, graphed, a slowed host) and
segment-mark shapes, and the vectorized cost arrays are compared with the
scalar cost model on seeded random kernels.  Any drift here invalidates
the fast path's contract (and fails ``repro bench``).
"""

import dataclasses
import itertools

import numpy as np
import pytest

from repro.distributed.dap import partition_step
from repro.framework.tracer import KernelCategory, KernelRecord
from repro.hardware.gpu import get_gpu, list_gpus
from repro.hardware.roofline import LIMITERS, CostModel
from repro.model.config import AlphaFoldConfig, KernelPolicy
from repro.perf import step_time
from repro.perf.scaling import Scenario, estimate_step_time
from repro.perf.step_time import simulate_step
from repro.perf.trace_builder import build_step_trace
from repro.perf.vector_cost import compute_cost_arrays, extract_structure
from repro.sim.des import Timeline
from repro.workloads import get_workload

from .knob_cells import cell_id, knob_cell_scenarios, preset_scenarios


@pytest.fixture(scope="module")
def tiny_traces():
    """Small eager and fused traces, plus a DAP-partitioned one with
    embedded COMM and comm-hidden records."""
    ref_policy = KernelPolicy.reference()
    sf_policy = KernelPolicy.scalefold(checkpointing=False)
    ref = build_step_trace(ref_policy, cfg=AlphaFoldConfig.tiny(ref_policy))
    sf = build_step_trace(sf_policy, cfg=AlphaFoldConfig.tiny(sf_policy))
    cfg = AlphaFoldConfig.tiny(sf_policy)
    return {
        "reference": list(ref.trace.records),
        "scalefold": list(sf.trace.records),
        "dap2": partition_step(sf, 2, get_workload("alphafold"), cfg),
    }


def _run_both(records, gpu_name="A100", dispatch_scale=1.0, **kwargs):
    gpu = get_gpu(gpu_name)
    if dispatch_scale != 1.0:
        gpu = dataclasses.replace(
            gpu, cpu_launch_overhead_us=gpu.cpu_launch_overhead_us
            * dispatch_scale)
    cost = CostModel(gpu, autotune=True)
    event = simulate_step(records, gpu, cost, engine="event", **kwargs)
    fast = simulate_step(records, gpu, cost, engine="fast", **kwargs)
    return event, fast


class TestGoldenGrid:
    @pytest.mark.parametrize("trace_key", ["reference", "scalefold", "dap2"])
    @pytest.mark.parametrize("graphed", [False, True])
    @pytest.mark.parametrize("dispatch_scale", [1.0, 2.5])
    def test_breakdown_identical(self, tiny_traces, trace_key, graphed,
                                 dispatch_scale):
        # 2.5x the eager launch cost is the host under a CPU peak.
        event, fast = _run_both(tiny_traces[trace_key], graphed=graphed,
                                dispatch_scale=dispatch_scale)
        assert event == fast

    @pytest.mark.parametrize("trace_key", ["scalefold", "dap2"])
    def test_default_and_adversarial_marks(self, tiny_traces, trace_key):
        records = tiny_traces[trace_key]
        n = len(records)
        default = extract_structure(records).default_marks.tolist()
        adversarial = [0, 5, 5, n // 2, n + 7]  # dupes + out of range
        for marks in (default, adversarial):
            event, fast = _run_both(records, segment_marks=marks)
            assert event == fast

    def test_h100_and_precomputed_costs(self, tiny_traces):
        records = tiny_traces["scalefold"]
        gpu = get_gpu("H100")
        cost = CostModel(gpu, autotune=True)
        costs = compute_cost_arrays(records, cost)
        event = simulate_step(records, gpu, cost, engine="event")
        fast = simulate_step(records, gpu, cost, engine="fast", costs=costs)
        assert event == fast

    def test_timeline_intervals_identical(self, tiny_traces):
        records = tiny_traces["dap2"]
        gpu = get_gpu("A100")
        cost = CostModel(gpu, autotune=True)
        tl_event, tl_fast = Timeline(), Timeline()
        simulate_step(records, gpu, cost, engine="event", timeline=tl_event,
                      rank=3)
        simulate_step(records, gpu, cost, engine="fast", timeline=tl_fast,
                      rank=3)
        as_tuples = lambda tl: [(iv.resource, iv.tag, iv.start, iv.end,
                                 iv.rank) for iv in tl.intervals]
        assert as_tuples(tl_event) == as_tuples(tl_fast)
        assert as_tuples(tl_fast)  # the eager trace does starve the GPU

    def test_on_kernel_replay_identical(self, tiny_traces):
        records = tiny_traces["scalefold"]
        gpu = get_gpu("A100")
        cost = CostModel(gpu, autotune=True)
        seen = {"event": [], "fast": []}
        for engine in ("event", "fast"):
            simulate_step(
                records, gpu, cost, engine=engine,
                on_kernel=lambda r, s, e, _eng=engine:
                    seen[_eng].append((id(r), s, e)))
        # Same record objects, same execution order, same exact timestamps.
        assert seen["event"] == seen["fast"]
        assert len(seen["fast"]) > 0

    def test_costs_length_mismatch_rejected(self, tiny_traces):
        records = tiny_traces["scalefold"]
        gpu = get_gpu("A100")
        cost = CostModel(gpu, autotune=True)
        costs = compute_cost_arrays(records[:-1], cost)
        with pytest.raises(ValueError, match="cost arrays"):
            simulate_step(records, gpu, cost, engine="fast", costs=costs)


class TestEngineResolution:
    def test_unknown_engine_rejected(self, tiny_traces):
        records = tiny_traces["scalefold"]
        with pytest.raises(ValueError, match="engine"):
            simulate_step(records, get_gpu("A100"), engine="auto")
        with pytest.raises(ValueError, match="engine"):
            estimate_step_time(Scenario(), engine="warp")

    def test_event_after_memoized_fast_runs_event_engine(self, monkeypatch):
        scenario = Scenario(policy=KernelPolicy.scalefold(checkpointing=False),
                            gpu="H100", dap_n=2, dp_degree=2,
                            workload="transformer")
        fast = estimate_step_time(scenario)
        assert estimate_step_time(scenario) is fast  # memoized
        calls = []
        event_engine = step_time._simulate_step_event

        def spy(*args, **kwargs):
            calls.append(args)
            return event_engine(*args, **kwargs)

        monkeypatch.setattr(step_time, "_simulate_step_event", spy)
        event = estimate_step_time(scenario, engine="event")
        assert len(calls) == 1
        assert event is not fast
        assert event == fast


def _one_leaf_changes(value, path=""):
    """``(path, copy)`` pairs, each copy of ``value`` differing from it in
    exactly one leaf: every dataclass field except ``timeline``, the first
    entry of each dict and the first element of each list."""
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            if f.name == "timeline":
                continue
            for leaf, changed in _one_leaf_changes(getattr(value, f.name),
                                                   f"{path}.{f.name}"):
                yield leaf, dataclasses.replace(value, **{f.name: changed})
    elif isinstance(value, dict):
        key = next(iter(value))
        for leaf, changed in _one_leaf_changes(value[key], f"{path}[{key}]"):
            yield leaf, {**value, key: changed}
    elif isinstance(value, list):
        for leaf, changed in _one_leaf_changes(value[0], f"{path}[0]"):
            yield leaf, [changed] + value[1:]
    elif isinstance(value, str):
        yield path, value + "*"
    else:
        yield path, value + 1


class TestDataclassEquality:
    """``==`` on estimates and breakdowns is the fast-vs-event check: it
    must see every simulated number, and only the timeline is exempt."""

    @pytest.fixture(scope="class")
    def estimates(self):
        scenario = Scenario(policy=KernelPolicy.scalefold(checkpointing=False),
                            gpu="H100", dap_n=2, dp_degree=2,
                            workload="transformer")
        return (estimate_step_time(scenario),
                estimate_step_time(scenario, engine="event"))

    def test_fast_equals_event_without_a_timeline(self, estimates):
        fast, event = estimates
        assert fast.timeline is None and event.timeline.intervals
        assert fast == event

    def test_every_estimate_field_is_compared(self, estimates):
        fast, _ = estimates
        changes = dict(_one_leaf_changes(fast))
        fields = {f.name for f in dataclasses.fields(fast)} - {"timeline"}
        assert {leaf.split(".")[1] for leaf in changes} == fields
        assert {".stall.probability", ".stall.mean_stall_s"} <= set(changes)
        for leaf, changed in changes.items():
            assert changed != fast, leaf

    def test_every_breakdown_field_is_compared(self, tiny_traces):
        records = tiny_traces["dap2"]
        marks = extract_structure(records).default_marks.tolist()
        _, fast = _run_both(records, segment_marks=marks)
        changes = dict(_one_leaf_changes(fast))
        fields = {f.name for f in dataclasses.fields(fast)}
        assert {leaf.split(".")[1].split("[")[0] for leaf in changes} == fields
        segment = {f".segments[0].{f.name}"
                   for f in dataclasses.fields(fast.segments[0])}
        assert segment <= set(changes)
        for leaf, changed in changes.items():
            assert changed != fast, leaf


class TestEstimateLevel:
    """Whole estimates: both closed forms against both event engines."""

    @pytest.mark.parametrize("scenario", knob_cell_scenarios("alphafold")
                             + preset_scenarios("alphafold"), ids=cell_id)
    def test_knob_cells_match_the_event_engine(self, scenario):
        fast = estimate_step_time(scenario)
        event = estimate_step_time(scenario, engine="event")
        assert fast.as_dict() == event.as_dict()
        # Only the event engine records the rank-level timeline.
        assert fast.timeline is None and event.timeline.intervals


class TestVectorCost:
    """Seeded differential test: each element of the cost arrays equals
    :meth:`CostModel.kernel_cost` of its record, seconds and limiter, to
    the last bit."""

    CATEGORIES = (KernelCategory.MATH, KernelCategory.MEMORY,
                  KernelCategory.MEMORY_OP)
    DTYPES = ("fp32", "bf16", "fp16")

    @staticmethod
    def _count(rng, kind: str, large_exp: float) -> float:
        if kind == "zero":
            return 0.0
        if kind == "latency":  # far below one launch latency of work
            return float(10.0 ** rng.uniform(0.0, 4.0))
        return float(10.0 ** rng.uniform(4.0, large_exp))

    @pytest.mark.parametrize("gpu_name", list_gpus())
    def test_arrays_equal_scalar_cost(self, gpu_name):
        rng = np.random.default_rng(list_gpus().index(gpu_name))
        kinds = ("zero", "latency", "large")
        records = [
            KernelRecord(name="k", category=category,
                         flops=self._count(rng, flop_kind, 13.0),
                         bytes=self._count(rng, byte_kind, 10.5),
                         shape=(1,), dtype=dtype, scope="", fused=False,
                         phase="forward", tunable=None, tags=None)
            for category, dtype, flop_kind, byte_kind in itertools.product(
                self.CATEGORIES, self.DTYPES, kinds, kinds)
            for _ in range(50)]
        cost = CostModel(get_gpu(gpu_name), autotune=True)
        arrays = compute_cost_arrays(records, cost)
        scalar = [cost.kernel_cost(r) for r in records]
        assert arrays.seconds.tolist() == [c.seconds for c in scalar]
        assert ([LIMITERS[code] for code in arrays.limiter_codes.tolist()]
                == [c.limiter for c in scalar])
        assert {c.limiter for c in scalar} == set(LIMITERS)
