"""Mock Triton autotuner.

§3.3.2 of the paper: "the OpenAI Triton compiler's auto tuning ability was
exploited to search for the optimal hyper-parameters for all workload sizes
that appear and target GPU architectures.  The search space spanned a set of
predefined tiling sizes and kernel launching dimensions."

We reproduce that search loop against our hardware cost model instead of a
real GPU: each tunable kernel exposes a config space (tile sizes, rows per
CTA, warps); the tuner evaluates the modeled runtime of every config for a
given workload size and caches the argmin per (kernel, workload-bucket,
architecture).  The paper found tuning "particularly useful when workload
sizes were scaled down by DAP" — the same effect emerges here because small
workloads need wider CTAs/row-batching to keep enough CTAs in flight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple


@dataclass(frozen=True)
class KernelConfig:
    """One point in a Triton-style launch configuration space."""

    block_m: int = 64
    block_n: int = 64
    rows_per_cta: int = 1
    num_warps: int = 4
    num_stages: int = 2

    def launch_parallelism(self, rows: int, row_elems: int) -> int:
        """Number of CTAs this config launches for a (rows, row_elems) problem."""
        ctas_rows = max(1, math.ceil(rows / self.rows_per_cta))
        ctas_cols = max(1, math.ceil(row_elems / self.block_n))
        return ctas_rows * ctas_cols


#: Predefined search spaces per tunable kernel family, mirroring the paper's
#: "set of predefined tiling sizes and kernel launching dimensions".
CONFIG_SPACES: Dict[str, List[KernelConfig]] = {
    "fused_layernorm": [
        KernelConfig(block_n=bn, rows_per_cta=r, num_warps=w)
        for bn in (128, 256, 512)
        for r in (1, 2, 4, 8, 16, 32)
        for w in (2, 4, 8)
    ],
    # GEMM-like families tile rows with block_m (rows_per_cta = block_m).
    "fused_mha": [
        KernelConfig(block_m=bm, block_n=bn, rows_per_cta=bm, num_warps=w,
                     num_stages=s)
        for bm in (32, 64, 128)
        for bn in (32, 64, 128)
        for w in (4, 8)
        for s in (2, 3)
    ],
    "fused_adam_swa": [
        KernelConfig(block_n=bn, rows_per_cta=r, num_warps=w)
        for bn in (256, 512, 1024)
        for r in (1, 4, 16)
        for w in (4, 8)
    ],
    "batched_gemm": [
        KernelConfig(block_m=bm, block_n=bn, rows_per_cta=bm, num_warps=w)
        for bm in (64, 128, 256)
        for bn in (64, 128, 256)
        for w in (4, 8)
    ],
}

#: Untuned default (what a generic kernel ships with): a config chosen for
#: LARGE workloads — 8 rows per CTA, 4 warps, mid-size tiles.  Reasonable at
#: full problem sizes, increasingly wrong as DAP shrinks the work (too few
#: CTAs in flight) — which is exactly why the paper found autotuning
#: "particularly useful when workload sizes were scaled down by DAP".
DEFAULT_CONFIG = KernelConfig(rows_per_cta=8)


def _bucket(value: int) -> int:
    """Round a workload dimension up to a power of two (cache key bucketing)."""
    if value <= 1:
        return 1
    return 1 << (value - 1).bit_length()


@dataclass
class TuneResult:
    config: KernelConfig
    modeled_time_s: float
    evaluated: int


class Autotuner:
    """Searches ``CONFIG_SPACES`` against a cost-model callable.

    The cost model is injected (``time_fn(config, workload, gpu) -> seconds``)
    so the tuner itself stays independent of :mod:`repro.hardware`.
    """

    def __init__(self) -> None:
        self._cache: Dict[Tuple[str, Tuple[int, ...], str], TuneResult] = {}

    def cache_key(self, family: str, workload: Sequence[int], arch: str
                  ) -> Tuple[str, Tuple[int, ...], str]:
        return (family, tuple(_bucket(int(w)) for w in workload), arch)

    def tune(self, family: str, workload: Sequence[int], arch: str,
             time_fn) -> TuneResult:
        """Best config for ``workload`` on ``arch`` (cached)."""
        key = self.cache_key(family, workload, arch)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        space = CONFIG_SPACES.get(family)
        if not space:
            result = TuneResult(DEFAULT_CONFIG, time_fn(DEFAULT_CONFIG), 1)
            self._cache[key] = result
            return result
        best_cfg, best_time, n = None, float("inf"), 0
        for cfg in space:
            t = time_fn(cfg)
            n += 1
            if t < best_time:
                best_cfg, best_time = cfg, t
        result = TuneResult(best_cfg, best_time, n)
        self._cache[key] = result
        return result

    def cached_configs(self) -> Dict[Tuple[str, Tuple[int, ...], str], KernelConfig]:
        return {k: v.config for k, v in self._cache.items()}

    def clear(self) -> None:
        self._cache.clear()

    def __len__(self) -> int:
        return len(self._cache)
