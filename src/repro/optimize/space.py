"""The joint knob space the scenario optimizer searches.

One :class:`Knob` per configuration axis ScaleFold tuned by hand (§3-§4):
DAP degree, the fused-kernel policy, numeric precision, CUDA graphs, the
Python garbage collector, the DDP gradient-bucket size, the global batch
size and the GPU itself.  Every knob also declares the deepest simulation
**stage** its value reaches, which is the contract the incremental
re-simulation path is verified against:

==================  =============  ==========================================
stage               knobs          what a delta recomputes
==================  =============  ==========================================
``trace``           precision,     the kernel trace itself (meta-build or
                    fusion         disk load), then everything below
``partition``       dap_n          DAP partition + shard mask + structure +
                                   cost arrays + split, then the rank DES
``cost``            gpu            the cost segment (seconds/limiters) only;
                                   the trace walk, partition and shard mask
                                   are reused from the caches
``rank``            batch,         nothing above the rank-level DES: trace,
                    cuda_graphs,   partition, structure and cost arrays
                    gc_disabled,   are all served from cache
                    ddp_bucket_mb
==================  =============  ==========================================

A *point* is a plain ``{knob name: value}`` dict; :func:`apply_point` turns
one into a :class:`~repro.perf.scaling.Scenario`.  Activation checkpointing
is derived, not searched: the point's DAP degree sets it through
:func:`repro.perf.scaling.scalefold_checkpointing`, the rule
``Scenario.scalefold`` applies (off from DAP-8, §4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..framework import dtypes
from ..hardware.gpu import get_gpu
from ..model.config import KernelPolicy
from ..perf.scaling import Scenario, scalefold_checkpointing
from ..workloads import get_workload

#: Stage names, shallowest re-simulation first.
STAGES = ("rank", "cost", "partition", "trace")


@dataclass(frozen=True)
class Knob:
    """One searchable axis: name, candidate values, deepest stage touched."""

    name: str
    values: Tuple[object, ...]
    stage: str

    def __post_init__(self) -> None:
        if self.stage not in STAGES:
            raise ValueError(f"unknown stage {self.stage!r} for knob "
                             f"{self.name!r}; choose from {STAGES}")
        if not self.values:
            raise ValueError(f"knob {self.name!r} has no values")


#: Knob -> deepest stage a change invalidates (the sensitivity table the
#: incremental tests assert against).
KNOB_STAGES: Dict[str, str] = {
    "precision": "trace",
    "fusion": "trace",
    "dap_n": "partition",
    "gpu": "cost",
    "batch": "rank",
    "cuda_graphs": "rank",
    "gc_disabled": "rank",
    "ddp_bucket_mb": "rank",
}


def knob_space(workload: str, quick: bool = False,
               gpus: Optional[Tuple[str, ...]] = None) -> Tuple[Knob, ...]:
    """The joint space for one workload (reduced candidates when quick).

    Batch candidates deliberately cross the workload's convergence cap
    (alphafold 256, transformer 2048): over-cap batches simulate fine but
    price to an infinite time-to-train, so the optimizer discovers the cap
    instead of having it hard-coded.

    ``gpus`` overrides the GPU knob's candidates — pass
    :func:`repro.hardware.gpu.list_gpus` output (or any subset,
    including runtime-registered calibrated specs) to ask portfolio
    questions across the whole hardware catalog; the default keeps the
    paper's A100-vs-H100 comparison.
    """
    wl = get_workload(workload)
    gpu_values: Tuple[object, ...] = tuple(gpus) if gpus else ("A100", "H100")
    for gpu_name in gpu_values:
        get_gpu(str(gpu_name))   # fail fast with the friendly listing
    cap = wl.max_batch_size
    if quick:
        batches: Tuple[object, ...] = (cap, cap * 2)
        daps: Tuple[object, ...] = (1, 8)
        fusion: Tuple[object, ...] = (True,)
        buckets: Tuple[object, ...] = (25.0, 50.0)
    else:
        batches = (cap // 2, cap, cap * 2)
        daps = (1, 2, 4, 8)
        fusion = (False, True)
        buckets = (13.0, 25.0, 50.0)
    return (
        Knob("precision", ("fp32", "bf16"), KNOB_STAGES["precision"]),
        Knob("fusion", fusion, KNOB_STAGES["fusion"]),
        Knob("dap_n", daps, KNOB_STAGES["dap_n"]),
        Knob("gpu", gpu_values, KNOB_STAGES["gpu"]),
        Knob("batch", batches, KNOB_STAGES["batch"]),
        Knob("cuda_graphs", (False, True), KNOB_STAGES["cuda_graphs"]),
        Knob("gc_disabled", (False, True), KNOB_STAGES["gc_disabled"]),
        Knob("ddp_bucket_mb", buckets, KNOB_STAGES["ddp_bucket_mb"]),
    )


def point_key(point: Dict[str, object]) -> Tuple:
    """Canonical hashable identity of one point (knob order-insensitive)."""
    return tuple(sorted((k, repr(v)) for k, v in point.items()))


def apply_point(point: Dict[str, object], workload: str) -> Scenario:
    """Instantiate the scenario one point describes."""
    policy = KernelPolicy.reference()
    if point.get("fusion"):
        policy = policy.replace(
            fused_layernorm=True, fused_mha=True, batched_gemm=True,
            fused_adam_swa=True, bucketed_clip=True)
    if point.get("precision") == "bf16":
        policy = policy.replace(dtype=dtypes.bfloat16)
    dap_n = int(point.get("dap_n", 1))
    policy = policy.replace(
        activation_checkpointing=scalefold_checkpointing(dap_n))
    return Scenario(
        policy=policy,
        gpu=str(point.get("gpu", "H100")),
        dap_n=dap_n,
        dp_degree=int(point.get("batch", 128)),
        cuda_graphs=bool(point.get("cuda_graphs", False)),
        gc_disabled=bool(point.get("gc_disabled", False)),
        nonblocking_pipeline=True,
        ddp_bucket_mb=float(point.get("ddp_bucket_mb", 25.0)),
        workload=workload,
    )
