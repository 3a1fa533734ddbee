"""The vectorized fast engine must be *bit-identical* to the event engine.

Every simulated number — totals, aggregates, segments, timeline intervals,
per-kernel replay timestamps — is compared with exact ``==`` across a grid
of policies, dispatch regimes, slowdowns, and segment-mark shapes.  Any
drift here invalidates the fast path's contract (and fails ``repro bench``).
"""

import pytest

from repro.distributed.dap import partition_step
from repro.hardware.gpu import get_gpu
from repro.hardware.roofline import CostModel
from repro.model.config import AlphaFoldConfig, KernelPolicy
from repro.perf import step_time
from repro.perf.bench import breakdowns_equal, estimates_equal
from repro.perf.scaling import Scenario, estimate_step_time
from repro.perf.step_time import default_segment_marks, simulate_step
from repro.perf.trace_builder import build_step_trace
from repro.perf.vector_cost import compute_cost_arrays
from repro.sim.des import Timeline

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
    dap = partition_step(sf, 2, cfg, emit_comm_records=True)
    return {
        "reference": list(ref.trace.records),
        "scalefold": list(sf.trace.records),
        "dap2": list(dap.records),
    }


def _run_both(records, gpu_name="A100", **kwargs):
    gpu = get_gpu(gpu_name)
    cost = CostModel(gpu, autotune=True)
    event = simulate_step(records, gpu, cost, engine="event", **kwargs)
    fast = simulate_step(records, gpu, cost, engine="fast", **kwargs)
    return event, fast


class TestGoldenGrid:
    @pytest.mark.parametrize("trace_key", ["reference", "scalefold", "dap2"])
    @pytest.mark.parametrize("graphed", [False, True])
    @pytest.mark.parametrize("cpu_slowdown", [1.0, 2.5])
    def test_breakdown_identical(self, tiny_traces, trace_key, graphed,
                                 cpu_slowdown):
        event, fast = _run_both(tiny_traces[trace_key], graphed=graphed,
                                cpu_slowdown=cpu_slowdown,
                                extra_host_s=0.003)
        assert breakdowns_equal(event, fast)

    @pytest.mark.parametrize("trace_key", ["scalefold", "dap2"])
    def test_default_and_adversarial_marks(self, tiny_traces, trace_key):
        records = tiny_traces[trace_key]
        n = len(records)
        default = list(default_segment_marks(records))
        adversarial = [0, 5, 5, n // 2, n + 7]  # dupes + out of range
        for marks in (default, adversarial):
            event, fast = _run_both(records, segment_marks=marks)
            assert breakdowns_equal(event, fast)

    def test_h100_and_precomputed_costs(self, tiny_traces):
        records = tiny_traces["scalefold"]
        gpu = get_gpu("H100")
        cost = CostModel(gpu, autotune=True)
        costs = compute_cost_arrays(records, cost)
        event = simulate_step(records, gpu, cost, engine="event")
        fast = simulate_step(records, gpu, cost, engine="fast", costs=costs)
        assert breakdowns_equal(event, fast)

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
        assert estimates_equal(event, fast)


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
