"""GPU specs, roofline cost model, CPU jitter config."""

import numpy as np
import pytest

from repro.distributed.straggler import ImbalanceInputs, StragglerModel
from repro.framework.tracer import KernelCategory, KernelRecord
from repro.hardware import A100, H100, CostModel, CpuJitterConfig, get_gpu


def record(name="k", category=KernelCategory.MEMORY, flops=0.0, bytes_=1e6,
           shape=(1024, 256), dtype="fp32", tunable=None, fused=False):
    return KernelRecord(name=name, category=category, flops=flops,
                        bytes=bytes_, shape=shape, dtype=dtype, scope="",
                        fused=fused, phase="forward", tunable=tunable,
                        tags=None)


class TestGpuSpecs:
    def test_lookup(self):
        assert get_gpu("a100") is A100
        assert get_gpu("H100") is H100
        with pytest.raises(ValueError):
            get_gpu("V100")

    def test_h100_outclasses_a100(self):
        assert H100.mem_bw_gbps > A100.mem_bw_gbps
        assert H100.peak_flops("bf16") > A100.peak_flops("bf16")

    def test_bf16_doubles_tf32(self):
        for gpu in (A100, H100):
            assert gpu.peak_flops("bf16") == pytest.approx(
                2 * gpu.peak_flops("tf32"), rel=0.01)

    def test_unknown_dtype_falls_back_to_fp32(self):
        assert A100.peak_flops("int64") == A100.peak_flops("fp32")


class TestCostModel:
    def test_latency_floor(self):
        cm = CostModel(H100)
        tiny = record(bytes_=16.0)
        cost = cm.kernel_cost(tiny)
        assert cost.seconds == pytest.approx(
            H100.gpu_launch_latency_us * 1e-6)
        assert cost.limiter == "latency"

    def test_memory_bound_kernel(self):
        cm = CostModel(H100)
        big = record(bytes_=1e9)
        cost = cm.kernel_cost(big)
        assert cost.limiter == "memory"
        # within (bw, bw * max_eff) of the ideal streaming time
        ideal = 1e9 / H100.membw()
        assert ideal < cost.seconds < 10 * ideal

    def test_math_bound_kernel(self):
        cm = CostModel(H100)
        gemm = record(category=KernelCategory.MATH, flops=1e12, bytes_=1e6)
        cost = cm.kernel_cost(gemm)
        assert cost.limiter == "math"

    def test_fp32_matmul_uses_tf32_peak(self):
        cm = CostModel(A100)
        gemm32 = record(category=KernelCategory.MATH, flops=1e12,
                        bytes_=1e6, dtype="fp32")
        gemm16 = record(category=KernelCategory.MATH, flops=1e12,
                        bytes_=1e6, dtype="bf16")
        assert cm.kernel_seconds(gemm16) < cm.kernel_seconds(gemm32)

    def test_saturation_small_kernels_less_efficient(self):
        """Poor kernel scalability (§3.1): 1/8 the bytes takes MORE than
        1/8 the time."""
        cm = CostModel(H100)
        full = cm.kernel_seconds(record(bytes_=32e6))
        eighth = cm.kernel_seconds(record(bytes_=4e6))
        assert eighth > full / 8

    def test_comm_records_rejected(self):
        cm = CostModel(H100)
        with pytest.raises(ValueError):
            cm.kernel_cost(record(category=KernelCategory.COMM))

    def test_h100_faster_than_a100(self):
        r = record(bytes_=1e8)
        assert CostModel(H100).kernel_seconds(r) < \
            CostModel(A100).kernel_seconds(r)

    def test_theoretical_is_lower_bound(self):
        cm = CostModel(A100)
        r = record(bytes_=1e8, flops=1e9)
        assert cm.theoretical_seconds(r.flops, r.bytes) < cm.kernel_seconds(r)

    def test_tunable_kernel_uses_autotuner(self):
        cm = CostModel(H100, autotune=True)
        r = record(bytes_=32e6, tunable="fused_layernorm", fused=True)
        cm.kernel_seconds(r)
        assert len(cm.autotuner) == 1

    def test_autotune_disabled_uses_default(self):
        cm = CostModel(H100, autotune=False)
        r = record(bytes_=32e6, tunable="fused_layernorm", fused=True)
        cm.kernel_seconds(r)
        assert len(cm.autotuner) == 0

    def test_tuned_dap_workload_degrades_gracefully(self):
        """Fused-kernel efficiency drops sub-linearly as DAP shrinks work."""
        cm = CostModel(H100, autotune=True)
        full = cm.kernel_seconds(record(bytes_=64e6, shape=(32768, 256),
                                        tunable="fused_layernorm"))
        eighth = cm.kernel_seconds(record(bytes_=8e6, shape=(4096, 256),
                                          tunable="fused_layernorm"))
        assert full / 8 < eighth < full


class TestCpuJitter:
    """The config's fields as ``StragglerModel.sample_rank_delays``, their
    one reader, applies them (graphed immunity and GC-off are covered in
    ``tests/distributed``)."""

    @staticmethod
    def _delays(cfg, seed, graphed=False, n_steps=2000):
        inputs = ImbalanceInputs(eager_dispatch_s=1.0, graphed=graphed,
                                 data_stall_probability=0.0,
                                 data_stall_mean_s=0.0)
        return StragglerModel(cfg, seed=seed).sample_rank_delays(
            inputs, 1, n_steps)[:, 0]

    def test_slowdown_at_least_one(self):
        # A peak's slowdown is clipped at 1x: it never speeds a rank up.
        delays = self._delays(CpuJitterConfig(peak_probability=0.5,
                                              peak_slowdown_mean=1.0,
                                              gc_enabled=False), seed=0)
        assert delays.min() >= 0.0

    def test_peaks_occur_at_configured_rate(self):
        cfg = CpuJitterConfig(peak_probability=0.5, gc_enabled=False)
        peaked = np.mean(self._delays(cfg, seed=1) > 0.0)
        assert 0.4 < peaked < 0.6

    def test_gc_pause_rate(self):
        cfg = CpuJitterConfig(gc_period_steps=4.0)
        pauses = self._delays(cfg, seed=2, graphed=True)
        assert 0.15 < np.mean(pauses > 0) < 0.35
