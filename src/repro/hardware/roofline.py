"""Roofline-with-overheads kernel cost model.

Each traced kernel's device time is::

    t = max(flops / (peak_math * eff_math),
            bytes / (mem_bw   * eff_mem ),
            launch_latency_floor)

The efficiency terms are saturation curves in the kernel's workload size —
small kernels cannot fill the GPU, which is precisely the "poor kernel
scalability" barrier of §3.1: DAP-n divides each kernel's workload by n and
pushes it down the saturation curve.

Kernels that carry a ``tunable`` tag (ScaleFold's Triton kernels) are costed
through an explicit launch-configuration model (CTAs = rows/rows_per_cta x
cols/block_n; efficiency = occupancy x per-CTA-work saturation), which the
mock autotuner searches.  This reproduces the paper's observation that
autotuning matters most at DAP-scaled-down workload sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..framework.tracer import KernelCategory, KernelRecord
from ..kernels.autotune import DEFAULT_CONFIG, Autotuner, KernelConfig
from .gpu import (DEFAULT_MATH_HALF_SAT_FLOPS, DEFAULT_MATH_MAX_EFF,
                  DEFAULT_MEM_HALF_SAT_BYTES, DEFAULT_MEM_MAX_EFF,
                  DEFAULT_MEMOP_MAX_EFF, MATMUL_DTYPE_FOR_FP32, GpuSpec)

#: Bump when any cost formula or constant changes: part of the on-disk
#: cost-array cache key, so stale cached seconds can never be replayed
#: against a newer model.
COST_MODEL_VERSION = 1

#: Stable limiter encoding shared by the scalar path, the batched path and
#: the persisted cost arrays.
LIMITERS: Tuple[str, ...] = ("math", "memory", "latency")
_LIM_MATH, _LIM_MEMORY, _LIM_LATENCY = 0, 1, 2

# ----------------------------------------------------------------------
# Generic (non-tunable) efficiency curves
# ----------------------------------------------------------------------
# The authoritative values now live on GpuSpec (so ``repro calibrate``
# can fit them per GPU); these aliases keep the historical import paths
# working and document the catalog defaults.
MATH_MAX_EFF = DEFAULT_MATH_MAX_EFF
MATH_HALF_SAT_FLOPS = DEFAULT_MATH_HALF_SAT_FLOPS
MEM_MAX_EFF = DEFAULT_MEM_MAX_EFF
MEM_HALF_SAT_BYTES = DEFAULT_MEM_HALF_SAT_BYTES
MEMOP_MAX_EFF = DEFAULT_MEMOP_MAX_EFF

# ----------------------------------------------------------------------
# Tunable-kernel launch-configuration model
# ----------------------------------------------------------------------
#: Per-CTA streamed bytes for half efficiency.
CTA_WORK_HALF_SAT_BYTES = 24.0e3
#: Per-CTA FLOPs for half efficiency (math-heavy tunables).
CTA_WORK_HALF_SAT_FLOPS = 4.0e6
TUNABLE_MEM_MAX_EFF = 0.62
TUNABLE_MATH_MAX_EFF = 0.58
_WARP_EFF = {1: 0.75, 2: 0.85, 4: 0.95, 8: 1.0, 16: 0.97}


@dataclass
class KernelCost:
    """Device time of one kernel and what limited it."""

    seconds: float
    limiter: str  # "math" | "memory" | "latency"


def _saturation(x: float, half: float) -> float:
    # half <= 0 would make the curve degenerate (eff >= 1 everywhere, or a
    # division through zero at x == -half); fitted half-points must never
    # reach the formula in that state.
    if half <= 0:
        raise ValueError(f"saturation half-point must be > 0, got {half!r}")
    return x / (x + half)


def _math_dtype(dtype: str) -> str:
    return MATMUL_DTYPE_FOR_FP32 if dtype == "fp32" else dtype


class CostModel:
    """Turns :class:`KernelRecord` objects into seconds on a given GPU."""

    def __init__(self, gpu: GpuSpec, autotune: bool = True,
                 autotuner: Optional[Autotuner] = None) -> None:
        self.gpu = gpu
        self.autotune = autotune
        self.autotuner = autotuner if autotuner is not None else Autotuner()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def kernel_cost(self, record: KernelRecord) -> KernelCost:
        if record.category is KernelCategory.COMM:
            raise ValueError("communication records are costed by the "
                             "collectives model, not the roofline")
        if record.tunable is not None:
            return self._tunable_cost(record)
        return self._generic_cost(record)

    def kernel_seconds(self, record: KernelRecord) -> float:
        return self.kernel_cost(record).seconds

    # ------------------------------------------------------------------
    # Generic path
    # ------------------------------------------------------------------
    def _generic_cost(self, record: KernelRecord) -> KernelCost:
        gpu = self.gpu
        latency = gpu.gpu_launch_latency_us * 1e-6
        math_time = 0.0
        if record.flops > 0:
            eff = max(gpu.math_max_eff
                      * _saturation(record.flops, gpu.math_half_sat_flops),
                      0.02)
            peak = gpu.peak_flops(_math_dtype(record.dtype))
            math_time = record.flops / (peak * eff)
        mem_time = 0.0
        if record.bytes > 0:
            max_eff = (gpu.memop_max_eff
                       if record.category is KernelCategory.MEMORY_OP
                       else gpu.mem_max_eff)
            eff = max(max_eff * _saturation(record.bytes,
                                            gpu.mem_half_sat_bytes), 0.02)
            mem_time = record.bytes / (gpu.membw() * eff)
        if record.category is KernelCategory.MATH and math_time >= mem_time:
            return KernelCost(max(math_time, latency),
                              "math" if math_time > latency else "latency")
        best = max(math_time, mem_time)
        if best <= latency:
            return KernelCost(latency, "latency")
        return KernelCost(best, "math" if math_time > mem_time else "memory")

    # ------------------------------------------------------------------
    # Tunable path
    # ------------------------------------------------------------------
    def _workload(self, record: KernelRecord) -> Tuple[int, int]:
        shape = record.shape or (1,)
        cols = max(int(shape[-1]), 1)
        rows = 1
        for s in shape[:-1]:
            rows *= int(s)
        return max(rows, 1), cols

    def config_cost(self, record: KernelRecord, config: KernelConfig) -> float:
        """Modeled seconds for a tunable kernel under one launch config."""
        rows, cols = self._workload(record)
        n_ctas = config.launch_parallelism(rows, cols)
        # Full efficiency needs ~2 resident CTAs per SM; beyond that more
        # CTAs don't help, below it the GPU is partially idle.
        occupancy = min(1.0, n_ctas / (2.0 * self.gpu.sms))
        warp_eff = _WARP_EFF.get(config.num_warps, 0.9)
        latency = self.gpu.gpu_launch_latency_us * 1e-6

        mem_time = 0.0
        if record.bytes > 0:
            per_cta = record.bytes / n_ctas
            eff = TUNABLE_MEM_MAX_EFF * occupancy * warp_eff * _saturation(
                per_cta, CTA_WORK_HALF_SAT_BYTES)
            mem_time = record.bytes / (self.gpu.membw() * max(eff, 0.02))
        math_time = 0.0
        if record.flops > 0:
            per_cta = record.flops / n_ctas
            stage_eff = 0.9 + 0.05 * min(config.num_stages, 3)
            eff = (TUNABLE_MATH_MAX_EFF * occupancy * warp_eff * stage_eff
                   * _saturation(per_cta, CTA_WORK_HALF_SAT_FLOPS))
            peak = self.gpu.peak_flops(_math_dtype(record.dtype))
            math_time = record.flops / (peak * max(eff, 0.02))
        return max(math_time, mem_time, latency)

    def _tunable_cost(self, record: KernelRecord) -> KernelCost:
        if self.autotune:
            rows, cols = self._workload(record)
            result = self.autotuner.tune(
                record.tunable, (rows, cols), self.gpu.arch,
                lambda cfg: self.config_cost(record, cfg))
            config = result.config
        else:
            config = DEFAULT_CONFIG
        seconds = self.config_cost(record, config)
        latency = self.gpu.gpu_launch_latency_us * 1e-6
        limiter = "latency" if seconds <= latency * 1.0001 else (
            "math" if record.category is KernelCategory.MATH else "memory")
        return KernelCost(seconds, limiter)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def theoretical_seconds(self, flops: float, bytes_moved: float,
                            dtype: str = "fp32") -> float:
        """Perfect-roofline time (100% of peak): the paper's denominator for
        "X% of theoretical performance" claims."""
        return max(flops / self.gpu.peak_flops(_math_dtype(dtype)),
                   bytes_moved / self.gpu.membw())

    # ------------------------------------------------------------------
    # Batched generic path (vectorized costing fast path)
    # ------------------------------------------------------------------
    def generic_cost_arrays(self, flops: np.ndarray, bytes_moved: np.ndarray,
                            category_codes: np.ndarray,
                            math_category_code: int,
                            memop_category_code: int,
                            peak_flops: np.ndarray
                            ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`_generic_cost` over whole kernel arrays.

        Every elementwise operation mirrors the scalar formula in the same
        order, so each output element is *bit-identical* to what
        ``kernel_cost`` returns for that record (IEEE-754 double arithmetic
        is deterministic per operation; only re-association would change
        results, and none happens here).  Returns ``(seconds, limiter
        codes)`` with limiters encoded per :data:`LIMITERS`.
        """
        gpu = self.gpu
        latency = gpu.gpu_launch_latency_us * 1e-6
        # flops == 0 flows through as 0/half -> eff 0.02 -> 0/(peak*0.02)
        # == 0.0, exactly the scalar early-out value, with no 0/0 anywhere.
        math_eff = np.maximum(
            gpu.math_max_eff * (flops / (flops + gpu.math_half_sat_flops)),
            0.02)
        math_time = flops / (peak_flops * math_eff)
        mem_max_eff = np.where(category_codes == memop_category_code,
                               gpu.memop_max_eff, gpu.mem_max_eff)
        mem_eff = np.maximum(
            mem_max_eff
            * (bytes_moved / (bytes_moved + gpu.mem_half_sat_bytes)),
            0.02)
        mem_time = bytes_moved / (gpu.membw() * mem_eff)

        math_wins = ((category_codes == math_category_code)
                     & (math_time >= mem_time))
        best = np.maximum(math_time, mem_time)
        seconds = np.where(
            math_wins, np.maximum(math_time, latency),
            np.where(best <= latency, latency, best))
        limiters = np.where(
            math_wins,
            np.where(math_time > latency, _LIM_MATH, _LIM_LATENCY),
            np.where(best <= latency, _LIM_LATENCY,
                     np.where(math_time > mem_time, _LIM_MATH, _LIM_MEMORY)))
        return seconds, limiters.astype(np.int8)
