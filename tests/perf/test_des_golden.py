"""Golden equivalence and overlap tests for the unified timing engine.

1. The event-driven :func:`simulate_step` must reproduce the legacy
   two-clock recurrence (the model it replaced) on the paper-scale
   reference trace, eager and graph-captured.
2. The multi-rank estimator must show what the additive model could not:
   DDP bucket all-reduces overlapped with backward cost *less* than the
   additive sum of compute + full all-reduce time.
"""

import pytest

from repro.distributed.ddp import bucket_schedule
from repro.distributed.topology import ClusterTopology
from repro.framework.tracer import KernelCategory
from repro.hardware.gpu import get_gpu
from repro.hardware.roofline import CostModel
from repro.model.config import KernelPolicy
from repro.perf.scaling import Scenario, estimate_step_time
from repro.perf.step_time import simulate_step
from repro.perf.trace_builder import build_step_trace


@pytest.fixture(scope="module")
def reference_records():
    return list(build_step_trace(KernelPolicy.reference()).trace.records)


def _two_clock_total(records, gpu, cost, graphed):
    """The pre-DES step-time model: two clocks and a max()."""
    if graphed:
        dispatch = gpu.graph_replay_overhead_us * 1e-6
    else:
        dispatch = gpu.cpu_launch_overhead_us * 1e-6
    cpu_clock = 0.0
    gpu_free = 0.0
    prev_phase = None
    for r in records:
        if r.category is KernelCategory.COMM:
            continue
        if r.tags and r.tags.get("hidden_by_comm"):
            continue
        if r.phase != prev_phase:
            if not graphed:
                cpu_clock = max(cpu_clock, gpu_free)  # host sync: drain
            prev_phase = r.phase
        cpu_clock += dispatch
        gpu_free = max(cpu_clock, gpu_free) + cost.kernel_seconds(r)
    return gpu_free


class TestGoldenTwoClock:
    @pytest.mark.parametrize("graphed", [False, True])
    def test_des_matches_two_clock_on_reference_trace(self, reference_records,
                                                      graphed):
        gpu = get_gpu("A100")
        cost = CostModel(gpu, autotune=True)
        expected = _two_clock_total(reference_records, gpu, cost, graphed)
        result = simulate_step(reference_records, gpu, cost, graphed=graphed)
        assert result.total_s == pytest.approx(expected, rel=0.01)
        # In fact the event-driven form is numerically equivalent.
        assert result.total_s == pytest.approx(expected, rel=1e-9)

    def test_graphed_recovers_cpu_exposure(self, reference_records):
        gpu = get_gpu("A100")
        cost = CostModel(gpu, autotune=True)
        eager = simulate_step(reference_records, gpu, cost, graphed=False)
        graphed = simulate_step(reference_records, gpu, cost, graphed=True)
        assert eager.cpu_exposed_s > 0.1
        assert graphed.cpu_exposed_s < 0.01 * eager.cpu_exposed_s


def _ddp_scenario():
    return Scenario(policy=KernelPolicy.reference(), gpu="A100", dap_n=1,
                    dp_degree=128, imbalance_enabled=False)


class TestDdpOverlap:
    @pytest.fixture(scope="class")
    def estimate(self):
        return estimate_step_time(_ddp_scenario())

    def test_overlapped_all_reduce_beats_additive_sum(self, estimate):
        topo = ClusterTopology(gpu=get_gpu("A100"), n_gpus=128)
        trace = build_step_trace(KernelPolicy.reference())
        buckets = bucket_schedule(trace.n_params * 4, 128, topo)
        raw_all_reduce = sum(seconds for _, seconds in buckets)
        # Backward hides all but the tail bucket...
        assert 0.0 < estimate.ddp_exposed_s < raw_all_reduce
        # ...so the simulated step beats the no-overlap additive sum.
        additive = (estimate.compute_s + estimate.dap_comm_s
                    + raw_all_reduce + estimate.imbalance_s)
        assert estimate.total_s < additive

    def test_components_partition_the_step(self, estimate):
        assert estimate.total_s == pytest.approx(
            estimate.compute_s + estimate.dap_comm_s
            + estimate.ddp_exposed_s + estimate.imbalance_s, rel=1e-9)

    def test_timeline_shows_comm_under_compute(self, estimate):
        assert estimate.timeline is None  # only event estimates record one
        timeline = estimate_step_time(_ddp_scenario(),
                                      engine="event").timeline
        assert timeline is not None
        comm = [iv for iv in timeline.intervals if iv.tag == "ddp_comm"]
        compute = [iv for iv in timeline.intervals if iv.tag == "compute"]
        assert comm and compute
        overlapped = any(
            c.start < k.end and k.start < c.end
            for c in comm for k in compute)
        assert overlapped, "no DDP bucket overlapped any compute span"
