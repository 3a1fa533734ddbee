"""Fidelity gate: cross-engine contracts on calibrated, non-catalog specs."""

import dataclasses

import pytest

from repro.calibrate import fit_spec, synthetic_samples
from repro.calibrate.fit import CalibrationFit
from repro.calibrate.gate import cross_engine_gate, fidelity_gate
from repro.hardware import (A100, B200, GH200, H100, get_gpu, register_gpu,
                            registry_token, unregister_gpu)
from repro.model.config import KernelPolicy
from repro.perf.scaling import Scenario, estimate_step_time
from repro.serve.costs import inference_cost


@pytest.fixture(scope="module")
def calibrated_fit():
    """A spec fitted from synthetic GH200 data — deliberately non-catalog.

    (GH200, not B200: at B200 speed every quick-grid GEMM sits under the
    launch-latency floor, so the math stage has no slope to fit — the
    harness reports that honestly as a failed quality gate, which is its
    own test below.)
    """
    samples = synthetic_samples(GH200, quick=True, seed=42, noise=0.01)
    return fit_spec(samples, base="A100", name="cal-gh200",
                    source="synthetic")


class TestCrossEngineGate:
    def test_calibrated_spec_passes_all_engines(self, calibrated_fit):
        result = cross_engine_gate(calibrated_fit.spec)
        assert result.passed, result.checks
        for label in ("reference", "scalefold", "dap2"):
            assert result.checks[f"fast_event_match:{label}"]
        assert result.checks["vector_scalar_match"]
        assert result.details["vector_scalar_mismatches"] == 0
        assert result.details["n_executable"] > 0

    def test_empty_checks_do_not_pass(self):
        from repro.calibrate.gate import GateResult
        assert not GateResult().passed


class TestFidelityGate:
    def test_registers_and_estimates_end_to_end(self, calibrated_fit):
        try:
            result = fidelity_gate(calibrated_fit, register_as="CAL-TEST")
            assert result.passed, result.checks
            assert result.checks["registry_roundtrip"]
            assert result.checks["estimate_finite"]
            assert result.details["estimate_step_s"] > 0
            assert get_gpu("CAL-TEST") == calibrated_fit.spec
        finally:
            unregister_gpu("CAL-TEST")
        with pytest.raises(ValueError):
            get_gpu("CAL-TEST")

    def test_bad_fit_quality_fails_gate(self):
        # A fit with no residual summaries has rms inf: must not pass.
        hollow = CalibrationFit(spec=A100, base="A100", source="synthetic")
        result = fidelity_gate(hollow)
        assert not result.checks["fit_quality"]
        assert not result.passed

    def test_unresolvable_grid_fails_visibly(self):
        # B200 is fast enough that the quick grid's GEMMs all sit at the
        # launch-latency floor; the fit must flag that, not hide it.
        samples = synthetic_samples(B200, quick=True, seed=0, noise=0.01)
        fit = fit_spec(samples, base="A100", source="synthetic")
        assert not fit.quality_ok()
        assert any(p.bounded for p in fit.params)


class TestRegistryCacheInvalidation:
    """Re-registering a calibrated spec must invalidate cost caches."""

    def test_reregistered_spec_changes_estimate(self, calibrated_fit):
        policy = KernelPolicy.scalefold(checkpointing=False)
        scenario = Scenario(policy=policy, gpu="CAL-EPOCH", dap_n=2,
                            dp_degree=2, nonblocking_pipeline=True,
                            preset="tiny")
        from repro.perf.scaling import _scenario_key
        try:
            fidelity_gate(calibrated_fit, register_as="CAL-EPOCH")
            token = registry_token("CAL-EPOCH")
            key = _scenario_key(scenario)
            first = estimate_step_time(scenario).total_s

            slower = dataclasses.replace(
                calibrated_fit.spec,
                gpu_launch_latency_us=(
                    calibrated_fit.spec.gpu_launch_latency_us * 10.0),
                cpu_launch_overhead_us=(
                    calibrated_fit.spec.cpu_launch_overhead_us * 10.0))
            refit = dataclasses.replace(calibrated_fit, spec=slower)
            fidelity_gate(refit, register_as="CAL-EPOCH")
            # The epoch bump changes every cache key derived from the
            # name, so no estimate/cost cache can serve the old spec.
            assert registry_token("CAL-EPOCH") > token
            assert _scenario_key(scenario) != key
            second = estimate_step_time(scenario).total_s
            assert second > first, "re-registered spec not picked up"
        finally:
            unregister_gpu("CAL-EPOCH")

    def test_reregistered_spec_changes_serve_cost(self):
        try:
            register_gpu("CAL-SERVE", H100)
            first = inference_cost("alphafold", "tiny", gpu="CAL-SERVE")
            slower = dataclasses.replace(
                H100, gpu_launch_latency_us=H100.gpu_launch_latency_us * 10.0,
                mem_bw_gbps=H100.mem_bw_gbps / 10.0)
            register_gpu("CAL-SERVE", slower, replace=True)
            second = inference_cost("alphafold", "tiny", gpu="CAL-SERVE")
            assert second.device_s > first.device_s, \
                "re-registered spec served stale costs"
            assert second.launch_s > first.launch_s
        finally:
            unregister_gpu("CAL-SERVE")
