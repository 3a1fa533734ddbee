"""Trace builder, queue-model step simulation, torch.compile transform."""

import numpy as np
import pytest

from repro.framework.tracer import KernelCategory, KernelRecord
from repro.hardware import A100, H100, CostModel
from repro.model.config import KernelPolicy
from repro.perf.step_time import simulate_step
from repro.perf.torchcompile import apply_torch_compile, compile_summary
from repro.perf.trace_builder import build_step_trace


class TestTraceBuilder:
    def test_reference_trace_scale(self, reference_step_trace):
        """Paper: 'Each step ... launches over 150,000 operators'."""
        assert reference_step_trace.n_kernels > 120_000

    def test_param_count(self, reference_step_trace):
        assert 85e6 < reference_step_trace.n_params < 105e6
        assert len(reference_step_trace.param_shapes) > 4000

    def test_cache_returns_same_object(self, reference_step_trace):
        again = build_step_trace(KernelPolicy.reference(), n_recycle=1)
        assert again is reference_step_trace

    def test_fused_policy_launches_fewer_kernels(self, reference_step_trace,
                                                 scalefold_step_trace):
        assert scalefold_step_trace.n_kernels < \
            0.6 * reference_step_trace.n_kernels

    def test_fused_policy_moves_fewer_bytes(self, reference_step_trace,
                                            scalefold_step_trace):
        # bf16 + fused kernels: much less traffic
        assert scalefold_step_trace.trace.total_bytes() < \
            0.45 * reference_step_trace.trace.total_bytes()

    def test_memory_bound_dominates_call_count(self, reference_step_trace):
        """Table 1's shape: memory-bound calls >> math-bound calls."""
        cats = reference_step_trace.trace.by_category()
        assert cats[KernelCategory.MEMORY].calls > \
            4 * cats[KernelCategory.MATH].calls

    def test_update_phase_present(self, reference_step_trace):
        phases = {r.phase for r in reference_step_trace.trace.records}
        assert phases == {"forward", "backward", "update"}

    def test_without_optimizer(self):
        t = build_step_trace(KernelPolicy.reference(), n_recycle=1,
                             include_optimizer=False)
        assert "update" not in {r.phase for r in t.trace.records}


class TestSimulateStep:
    def test_breakdown_consistency(self, reference_step_trace):
        bd = simulate_step(reference_step_trace.trace, A100,
                           CostModel(A100, autotune=False))
        assert bd.total_s > 0
        assert bd.gpu_busy_s <= bd.total_s
        assert bd.cpu_exposed_s == pytest.approx(bd.total_s - bd.gpu_busy_s,
                                                 abs=1e-9)
        cat_total = sum(bd.category_seconds.values())
        assert cat_total == pytest.approx(bd.gpu_busy_s, rel=1e-6)

    def test_reference_step_time_near_paper(self, reference_step_trace):
        """Paper: reference 6.76s on A100, 4.07s on H100 (±25% band)."""
        t_a = simulate_step(reference_step_trace.trace, A100,
                            CostModel(A100, autotune=False)).total_s
        t_h = simulate_step(reference_step_trace.trace, H100,
                            CostModel(H100, autotune=False)).total_s
        assert 5.0 < t_a < 8.5
        assert 3.0 < t_h < 5.5
        assert 1.2 < t_a / t_h < 2.1  # paper: 1.66x

    def test_cpu_overhead_fraction_near_paper(self, reference_step_trace):
        """Table 1: CPU overhead 9.10% (we accept 5-15%)."""
        bd = simulate_step(reference_step_trace.trace, A100,
                           CostModel(A100, autotune=False))
        assert 0.05 < bd.cpu_overhead_fraction < 0.15

    def test_graphed_removes_cpu_overhead(self, reference_step_trace):
        cm = CostModel(A100, autotune=False)
        eager = simulate_step(reference_step_trace.trace, A100, cm)
        graphed = simulate_step(reference_step_trace.trace, A100, cm,
                                graphed=True)
        assert graphed.total_s < eager.total_s
        assert graphed.cpu_exposed_s < 0.1 * max(eager.cpu_exposed_s, 1e-9)

    def test_hidden_by_comm_records_skipped(self):
        hidden = KernelRecord("h", KernelCategory.MEMORY, 1e9, 1e9, (1,),
                              "fp32", "", True, "update", None,
                              {"hidden_by_comm": True})
        visible = KernelRecord("v", KernelCategory.MEMORY, 1e6, 1e6, (1,),
                               "fp32", "", False, "update", None, None)
        bd = simulate_step([hidden, visible], A100,
                           CostModel(A100, autotune=False))
        assert bd.kernel_count == 1


class TestTorchCompile:
    def _chain(self, n, scope="s", phase="forward"):
        return [KernelRecord(f"op{i}", KernelCategory.MEMORY, 1e6, 1e6,
                             (64, 64), "fp32", scope, False, phase, None,
                             None)
                for i in range(n)]

    def test_fuses_chains(self):
        out = apply_torch_compile(self._chain(6))
        assert len(out) == 1
        assert out[0].name == "compiled_fusion"
        assert out[0].tags["fused_ops"] == 6

    def test_traffic_reduced(self):
        before = self._chain(6)
        after = apply_torch_compile(before)
        assert sum(r.bytes for r in after) < sum(r.bytes for r in before)

    def test_flops_preserved(self):
        before = self._chain(6)
        after = apply_torch_compile(before)
        assert sum(r.flops for r in after) == pytest.approx(
            sum(r.flops for r in before))

    def test_scope_boundary_breaks_fusion(self):
        records = self._chain(3, scope="a") + self._chain(3, scope="b")
        out = apply_torch_compile(records)
        assert len(out) == 2

    def test_phase_boundary_breaks_fusion(self):
        records = self._chain(3) + self._chain(3, phase="backward")
        assert len(apply_torch_compile(records)) == 2

    def test_group_size_cap(self):
        out = apply_torch_compile(self._chain(15), max_group=6)
        assert len(out) == 3

    def test_math_kernels_untouched(self):
        gemm = KernelRecord("matmul", KernelCategory.MATH, 1e9, 1e6, (64, 64),
                            "fp32", "s", False, "forward", None, None)
        records = self._chain(2) + [gemm] + self._chain(2)
        out = apply_torch_compile(records)
        assert any(r.name == "matmul" for r in out)
        assert len(out) == 3

    def test_hand_fused_kernels_excluded(self):
        """§3.3.2: 'we controlled the compilation scope' around the Triton
        kernels."""
        triton = KernelRecord("fused_mha_fwd", KernelCategory.MEMORY, 1e9,
                              1e6, (64, 64), "fp32", "s", True, "forward",
                              "fused_mha", None)
        records = self._chain(2) + [triton] + self._chain(2)
        out = apply_torch_compile(records)
        assert any(r.name == "fused_mha_fwd" for r in out)

    def test_single_record_passthrough(self):
        r = self._chain(1)
        assert apply_torch_compile(r)[0] is r[0]

    def test_full_trace_reduction(self, scalefold_step_trace):
        before = scalefold_step_trace.trace.records
        after = apply_torch_compile(before)
        summary = compile_summary(before, after)
        assert summary["kernel_reduction"] > 1.2
        assert summary["bytes_after"] < summary["bytes_before"]
