"""GPU registry: friendly errors, runtime registration, spec validation."""

import dataclasses

import pytest

from repro.hardware import (A100, B200, GH200, H100, TPU_V5P, GpuSpec,
                            UnknownGpuError, get_gpu, list_gpus,
                            register_gpu, unregister_gpu)
from repro.hardware.gpu import CATALOG, canonical_gpu_name
from repro.hardware.roofline import _saturation


class TestUnknownGpuError:
    def test_is_a_value_error(self):
        with pytest.raises(ValueError):
            get_gpu("V100")

    def test_lists_registered_specs(self):
        with pytest.raises(UnknownGpuError, match="A100"):
            get_gpu("V100")

    def test_suggests_close_match(self):
        with pytest.raises(UnknownGpuError, match="did you mean 'H100'"):
            get_gpu("H10O")

    def test_lookup_is_case_insensitive(self):
        assert get_gpu("a100") is A100
        assert get_gpu(" h100 ") is H100


class TestCatalog:
    def test_portfolio_specs_present(self):
        names = list_gpus()
        for name in ("A100", "B200", "B200-NVL72", "GH200", "H100",
                     "H100-IB400", "TPU-V5P"):
            assert name in names

    def test_catalog_ordering_is_stable(self):
        assert list_gpus()[:len(CATALOG)] == sorted(CATALOG)

    def test_generation_ordering(self):
        assert B200.peak_flops("bf16") > H100.peak_flops("bf16") \
            > A100.peak_flops("bf16")
        assert B200.mem_bw_gbps > GH200.mem_bw_gbps > H100.mem_bw_gbps
        assert TPU_V5P.arch.startswith("tpu")

    def test_fabric_variant_inherits_and_overrides(self):
        nvl72 = get_gpu("B200-NVL72")
        assert nvl72.name.endswith("[NVL72]")
        assert nvl72.peak_tflops == B200.peak_tflops
        assert nvl72.mem_bw_gbps == B200.mem_bw_gbps
        assert nvl72.ib_bw_gbps > B200.ib_bw_gbps
        assert nvl72.inter_latency_us < B200.inter_latency_us


class TestRegistry:
    def spec(self, name="custom"):
        return dataclasses.replace(A100, name=name)

    def test_register_get_unregister(self):
        register_gpu("MY-SPEC", self.spec())
        try:
            assert get_gpu("my-spec") == self.spec()
            assert "MY-SPEC" in list_gpus()
        finally:
            unregister_gpu("MY-SPEC")
        assert "MY-SPEC" not in list_gpus()

    def test_duplicate_needs_replace(self):
        register_gpu("DUP", self.spec())
        try:
            with pytest.raises(ValueError, match="replace"):
                register_gpu("DUP", self.spec("other"))
            register_gpu("DUP", self.spec("other"), replace=True)
            assert get_gpu("DUP").name == "other"
        finally:
            unregister_gpu("DUP")

    def test_catalog_is_protected(self):
        with pytest.raises(ValueError, match="catalog"):
            unregister_gpu("A100")
        with pytest.raises(ValueError, match="catalog|replace"):
            register_gpu("A100", self.spec())

    def test_canonical_name(self):
        assert canonical_gpu_name("  cal-a100 ") == "CAL-A100"


class TestGpuSpecValidation:
    def replace(self, **over):
        return dataclasses.replace(A100, **over)

    def test_catalog_specs_validate(self):
        for name in CATALOG:
            assert get_gpu(name).mem_bw_gbps > 0

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            self.replace(name="")

    def test_missing_fp32_peak_rejected(self):
        with pytest.raises(ValueError, match="fp32"):
            self.replace(peak_tflops={"bf16": 312.0})

    def test_negative_rates_rejected(self):
        for field in ("mem_bw_gbps", "nvlink_bw_gbps", "ib_bw_gbps",
                      "hbm_gb", "cost_per_hour_usd"):
            with pytest.raises(ValueError, match=field):
                self.replace(**{field: -1.0})

    def test_efficiency_ceilings_in_unit_interval(self):
        for field in ("math_max_eff", "mem_max_eff", "memop_max_eff"):
            with pytest.raises(ValueError, match=field):
                self.replace(**{field: 1.5})
            with pytest.raises(ValueError, match=field):
                self.replace(**{field: 0.0})

    def test_half_sats_must_be_positive(self):
        with pytest.raises(ValueError, match="math_half_sat_flops"):
            self.replace(math_half_sat_flops=0.0)
        with pytest.raises(ValueError, match="mem_half_sat_bytes"):
            self.replace(mem_half_sat_bytes=-4e6)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            self.replace(mem_bw_gbps=float("nan"))
        with pytest.raises(ValueError):
            self.replace(peak_tflops={"fp32": float("inf")})


class TestSaturationGuard:
    def test_degenerate_half_point_raises(self):
        with pytest.raises(ValueError, match="half-point"):
            _saturation(1.0, 0.0)
        with pytest.raises(ValueError, match="half-point"):
            _saturation(1.0, -5.0)

    def test_half_point_is_half(self):
        assert _saturation(4e6, 4e6) == pytest.approx(0.5)
