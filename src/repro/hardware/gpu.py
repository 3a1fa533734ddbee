"""GPU specifications, the extensible spec registry, and launch overheads.

Peak numbers are the public dense-math specs for the GPUs the paper
evaluates (A100 SXM4 80GB, H100 SXM5 80GB) plus a forward-looking
portfolio (B200, GH200, a TPU-ish part) for the optimizer's what-if
questions.  Launch overheads are typical eager-mode PyTorch figures:
several microseconds of CPU work per kernel launch (the "CPU overhead"
that is 9.1% of Table 1 and the first barrier of Figure 3), ~2.5 us of
device-side launch latency, and sub-microsecond replay cost per kernel
once captured in a CUDA Graph.

Roofline shape parameters (max efficiencies, saturation half-points)
live on the spec itself so ``repro calibrate`` can fit them from
measured timings; the defaults below are the historical hand-tuned
constants and every catalog spec uses them, so catalog numbers are
bit-identical to the pre-calibration model.

The registry is *extensible*: :func:`register_gpu` installs a calibrated
spec under a new (or replaced) name at runtime.  Caches key on the spec's
:meth:`GpuSpec.signature`, not its name, so an estimate or cost computed
against a since-replaced spec can never be replayed stale.
"""

from __future__ import annotations

import dataclasses
import difflib
import math
import threading
from dataclasses import dataclass
from typing import Dict, List, Tuple

# ----------------------------------------------------------------------
# Default roofline shape parameters (fit targets for repro.calibrate).
# These doubles are the historical module constants from roofline.py;
# they remain re-exported there for backward compatibility.
# ----------------------------------------------------------------------
#: Peak fraction a large well-shaped GEMM reaches.
DEFAULT_MATH_MAX_EFF = 0.55
#: FLOPs at which a GEMM reaches half its max efficiency.
DEFAULT_MATH_HALF_SAT_FLOPS = 5.0e8
#: Peak fraction a large streaming kernel reaches.
DEFAULT_MEM_MAX_EFF = 0.95
#: Bytes at which a streaming kernel reaches half its max efficiency.
DEFAULT_MEM_HALF_SAT_BYTES = 4.0e6
#: Memory-operation (copy/fill) kernels are simpler and run closer to peak.
DEFAULT_MEMOP_MAX_EFF = 0.92
#: Collective base latencies (alpha terms, microseconds per algorithm step).
DEFAULT_INTRA_LATENCY_US = 8.0
DEFAULT_INTER_LATENCY_US = 20.0


class UnknownGpuError(ValueError):
    """Raised for a GPU name absent from the registry.

    Carries the offending name and the registered choices so CLI layers
    can print a friendly listing (plus a did-you-mean suggestion).
    """

    def __init__(self, name: str, choices: List[str]) -> None:
        self.name = name
        self.choices = choices
        suggest = difflib.get_close_matches(name.upper(), choices, n=1)
        hint = f" (did you mean {suggest[0]!r}?)" if suggest else ""
        super().__init__(
            f"unknown GPU {name!r}{hint}; registered specs: "
            + ", ".join(choices))


@dataclass(frozen=True)
class GpuSpec:
    """Capability model of one GPU."""

    name: str
    arch: str
    peak_tflops: Dict[str, float]   # dtype name -> dense TFLOP/s
    mem_bw_gbps: float              # HBM bandwidth, GB/s
    sms: int
    hbm_gb: float
    #: CPU-side cost per eager op: Python dispatch + autograd bookkeeping +
    #: kernel launch (us).  PyTorch eager is ~10-20 us per op end to end.
    cpu_launch_overhead_us: float = 12.0
    #: Device-side launch latency floor per kernel (us).
    gpu_launch_latency_us: float = 2.2
    #: Per-kernel replay cost inside a captured CUDA Graph (us).
    graph_replay_overhead_us: float = 0.25
    #: NVLink per-GPU effective bandwidth for intra-node collectives (GB/s).
    nvlink_bw_gbps: float = 200.0
    #: InfiniBand per-GPU effective bandwidth for inter-node collectives (GB/s).
    ib_bw_gbps: float = 45.0
    #: On-demand cloud rate per GPU-hour (USD), for the optimizer's
    #: time-vs-dollars Pareto frontier.  Ballpark public cloud prices; the
    #: *ratio* across GPUs is what the frontier actually uses.
    cost_per_hour_usd: float = 2.0
    # -- roofline shape parameters (calibratable; defaults = historical
    #    constants, so catalog specs are bit-identical to the old model) --
    math_max_eff: float = DEFAULT_MATH_MAX_EFF
    math_half_sat_flops: float = DEFAULT_MATH_HALF_SAT_FLOPS
    mem_max_eff: float = DEFAULT_MEM_MAX_EFF
    mem_half_sat_bytes: float = DEFAULT_MEM_HALF_SAT_BYTES
    memop_max_eff: float = DEFAULT_MEMOP_MAX_EFF
    #: Collective base latencies (alpha terms, us per algorithm step).
    intra_latency_us: float = DEFAULT_INTRA_LATENCY_US
    inter_latency_us: float = DEFAULT_INTER_LATENCY_US

    def __post_init__(self) -> None:
        # A bad fit must fail loudly here, never poison downstream
        # estimates: every rate must be a positive finite number, every
        # latency finite and non-negative, every saturation curve
        # non-degenerate.
        if not self.name:
            raise ValueError("GpuSpec.name must be non-empty")
        if not self.peak_tflops or "fp32" not in self.peak_tflops:
            raise ValueError(
                f"GpuSpec {self.name!r}: peak_tflops must include 'fp32' "
                f"(got {sorted(self.peak_tflops)})")
        for dtype, tf in self.peak_tflops.items():
            _require_positive_finite(self.name, f"peak_tflops[{dtype!r}]", tf)
        for fname in ("mem_bw_gbps", "hbm_gb", "nvlink_bw_gbps",
                      "ib_bw_gbps", "cost_per_hour_usd",
                      "math_half_sat_flops", "mem_half_sat_bytes"):
            _require_positive_finite(self.name, fname, getattr(self, fname))
        for fname in ("cpu_launch_overhead_us", "gpu_launch_latency_us",
                      "graph_replay_overhead_us", "intra_latency_us",
                      "inter_latency_us"):
            value = getattr(self, fname)
            if not (isinstance(value, (int, float)) and math.isfinite(value)
                    and value >= 0):
                raise ValueError(
                    f"GpuSpec {self.name!r}: {fname} must be finite and "
                    f">= 0, got {value!r}")
        for fname in ("math_max_eff", "mem_max_eff", "memop_max_eff"):
            value = getattr(self, fname)
            if not (isinstance(value, (int, float)) and math.isfinite(value)
                    and 0.0 < value <= 1.0):
                raise ValueError(
                    f"GpuSpec {self.name!r}: {fname} must be in (0, 1], "
                    f"got {value!r}")
        if self.sms < 1:
            raise ValueError(
                f"GpuSpec {self.name!r}: sms must be >= 1, got {self.sms}")

    def signature(self) -> Tuple[Tuple[str, str], ...]:
        """``(field, repr(value))`` pairs of every field, sorted by name:
        the GPU half of every cost and estimate cache key, so a spec
        re-registered under the same name never aliases the old one."""
        return tuple(sorted((f.name, repr(getattr(self, f.name)))
                            for f in dataclasses.fields(self)))

    def peak_flops(self, dtype: str) -> float:
        """Peak FLOP/s for a dtype (falls back to fp32 for unknown names)."""
        tf = self.peak_tflops.get(dtype, self.peak_tflops["fp32"])
        return tf * 1e12

    def dispatch_seconds(self, graphed: bool = False) -> float:
        """Host cost per kernel launch on the dispatch clock.

        Graph replay bypasses the eager dispatch path entirely.
        """
        if graphed:
            return self.graph_replay_overhead_us * 1e-6
        return self.cpu_launch_overhead_us * 1e-6

    def membw(self) -> float:
        return self.mem_bw_gbps * 1e9

    def with_fabric(self, suffix: str, *, nvlink_bw_gbps: float = 0.0,
                    ib_bw_gbps: float = 0.0, intra_latency_us: float = -1.0,
                    inter_latency_us: float = -1.0) -> "GpuSpec":
        """A fabric variant of this spec (same silicon, different network).

        Zero / negative sentinel arguments inherit the base value, so a
        variant only states what changed (e.g. NVL72 rack-scale NVLink vs
        a standard IB fat-tree).
        """
        return dataclasses.replace(
            self,
            name=f"{self.name} [{suffix}]",
            nvlink_bw_gbps=nvlink_bw_gbps or self.nvlink_bw_gbps,
            ib_bw_gbps=ib_bw_gbps or self.ib_bw_gbps,
            intra_latency_us=(self.intra_latency_us if intra_latency_us < 0
                              else intra_latency_us),
            inter_latency_us=(self.inter_latency_us if inter_latency_us < 0
                              else inter_latency_us),
        )


def _require_positive_finite(spec_name: str, fname: str, value: float) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value)
            and value > 0):
        raise ValueError(
            f"GpuSpec {spec_name!r}: {fname} must be a positive finite "
            f"number, got {value!r}")


A100 = GpuSpec(
    name="NVIDIA A100-SXM4-80GB",
    arch="sm80",
    peak_tflops={"fp32": 19.5, "tf32": 156.0, "bf16": 312.0, "fp16": 312.0},
    mem_bw_gbps=2039.0,
    sms=108,
    hbm_gb=80.0,
    nvlink_bw_gbps=200.0,
    ib_bw_gbps=45.0,
    cost_per_hour_usd=2.46,
)

H100 = GpuSpec(
    name="NVIDIA H100-SXM5-80GB",
    arch="sm90",
    peak_tflops={"fp32": 66.9, "tf32": 494.7, "bf16": 989.4, "fp16": 989.4},
    mem_bw_gbps=3352.0,
    sms=132,
    hbm_gb=80.0,
    # H100 launch path is a bit faster but the CPU cost is host-bound.
    cpu_launch_overhead_us=12.0,
    gpu_launch_latency_us=2.0,
    nvlink_bw_gbps=350.0,
    ib_bw_gbps=45.0,
    cost_per_hour_usd=4.10,
)

GH200 = GpuSpec(
    name="NVIDIA GH200 Grace-Hopper 141GB",
    arch="sm90",
    # Same Hopper silicon as H100 SXM, HBM3e stack and NVLink-C2C uplink.
    peak_tflops={"fp32": 66.9, "tf32": 494.7, "bf16": 989.4, "fp16": 989.4},
    mem_bw_gbps=4900.0,
    sms=132,
    hbm_gb=141.0,
    # Grace's coherent C2C link shaves the host round-trip per launch.
    cpu_launch_overhead_us=10.0,
    gpu_launch_latency_us=2.0,
    nvlink_bw_gbps=450.0,
    ib_bw_gbps=50.0,
    cost_per_hour_usd=5.20,
)

B200 = GpuSpec(
    name="NVIDIA B200-SXM-192GB",
    arch="sm100",
    peak_tflops={"fp32": 80.0, "tf32": 1100.0, "bf16": 2250.0,
                 "fp16": 2250.0, "fp8": 4500.0},
    mem_bw_gbps=8000.0,
    sms=148,
    hbm_gb=192.0,
    cpu_launch_overhead_us=11.0,
    gpu_launch_latency_us=1.8,
    nvlink_bw_gbps=900.0,
    ib_bw_gbps=50.0,
    cost_per_hour_usd=6.50,
)

TPU_V5P = GpuSpec(
    name="TPU v5p (pod slice)",
    arch="tpu-v5p",
    # Systolic-array part: bf16 matmul is the native mode; fp32 runs
    # through multi-pass emulation so its effective peak is modest.
    peak_tflops={"fp32": 15.0, "tf32": 229.0, "bf16": 459.0, "fp16": 459.0},
    mem_bw_gbps=2765.0,
    sms=136,                      # MXU-tile stand-in for the CTA model
    hbm_gb=95.0,
    # XLA ahead-of-time compilation amortizes dispatch; per-op host cost
    # is tiny and there is no eager path to speak of.
    cpu_launch_overhead_us=4.0,
    gpu_launch_latency_us=1.5,
    graph_replay_overhead_us=0.2,
    # ICI ring within a pod slice, DCN between slices.
    nvlink_bw_gbps=600.0,
    ib_bw_gbps=100.0,
    intra_latency_us=6.0,
    inter_latency_us=25.0,
    cost_per_hour_usd=4.20,
)

#: Fabric variants: same silicon, different collective network.  NVL72
#: puts every GPU on one rack-scale NVLink domain (no IB hop inside the
#: rack); IB400 is a standard 400 Gb/s fat-tree.
B200_NVL72 = B200.with_fabric("NVL72", ib_bw_gbps=112.5,
                              inter_latency_us=12.0)
H100_IB400 = H100.with_fabric("IB400", ib_bw_gbps=50.0)

GPUS: Dict[str, GpuSpec] = {
    "A100": A100,
    "H100": H100,
    "GH200": GH200,
    "B200": B200,
    "B200-NVL72": B200_NVL72,
    "H100-IB400": H100_IB400,
    "TPU-V5P": TPU_V5P,
}

#: Names of the immutable factory catalog (runtime registrations excluded).
CATALOG = tuple(sorted(GPUS))

#: Guards ``GPUS``, so a thread resolving a spec never sees a
#: half-installed one while a calibration run registers it.
_REGISTRY_LOCK = threading.Lock()


def canonical_gpu_name(name: str) -> str:
    """Registry key for a user-supplied GPU name (case-insensitive)."""
    return name.strip().upper()


def register_gpu(key: str, spec: GpuSpec, *, replace: bool = False) -> str:
    """Install a spec (e.g. a calibrated fit) under ``key`` at runtime.

    Returns the canonical registry key.  Replacing an existing name
    requires ``replace=True``; caches key on :meth:`GpuSpec.signature`, so
    none serves the replaced spec.
    """
    canon = canonical_gpu_name(key)
    if not canon:
        raise ValueError("GPU registry key must be non-empty")
    with _REGISTRY_LOCK:
        if canon in GPUS and not replace:
            raise ValueError(
                f"GPU {canon!r} is already registered; pass replace=True to "
                "overwrite it")
        GPUS[canon] = spec
    return canon


def unregister_gpu(key: str) -> None:
    """Remove a runtime-registered spec (catalog entries are permanent)."""
    canon = canonical_gpu_name(key)
    if canon in CATALOG:
        raise ValueError(f"cannot unregister catalog spec {canon!r}")
    with _REGISTRY_LOCK:
        GPUS.pop(canon, None)


def list_gpus() -> List[str]:
    """Registered spec names, catalog first, runtime additions after."""
    with _REGISTRY_LOCK:
        extras = sorted(k for k in GPUS if k not in CATALOG)
    return list(CATALOG) + extras


def get_gpu(name: str) -> GpuSpec:
    with _REGISTRY_LOCK:
        spec = GPUS.get(canonical_gpu_name(name))
    if spec is None:
        raise UnknownGpuError(name, list_gpus())
    return spec


#: Math dtype used for GEMMs when the model dtype is fp32 (PyTorch defaults
#: to TF32 tensor-core math on Ampere+, which the MLPerf reference uses).
MATMUL_DTYPE_FOR_FP32 = "tf32"
