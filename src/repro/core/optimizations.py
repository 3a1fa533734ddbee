"""Registry of ScaleFold's optimizations: what each one is, where it lives,
and which knob turns it on.

This is the machine-readable version of the paper's conclusion list
(§5, items 1-8) and the ladder of Figure 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class Optimization:
    key: str
    title: str
    paper_section: str
    paper_speedup: str       # as reported by the paper (context-dependent)
    module: str              # where the implementation lives
    knob: str                # how to enable it


OPTIMIZATIONS: Tuple[Optimization, ...] = (
    Optimization(
        key="dap",
        title="Dynamic Axial Parallelism (FastFold) beyond the DP limit",
        paper_section="§2.3, §3.1",
        paper_speedup="DAP-8: 2.77x over DAP-1 (ScaleFold kernels)",
        module="repro.distributed.dap",
        knob="Scenario(dap_n=...)",
    ),
    Optimization(
        key="nonblocking_pipeline",
        title="Non-blocking data pipeline (priority-queue, ready-first)",
        paper_section="§3.2",
        paper_speedup="1.71x -> 1.78x cumulative; grows as steps shrink",
        module="repro.datapipe.loader.NonBlockingLoader",
        knob="Scenario(nonblocking_pipeline=True)",
    ),
    Optimization(
        key="cuda_graphs",
        title="CUDA Graph capture with a multi-graph recycling cache",
        paper_section="§3.2",
        paper_speedup="DAP-8+no-ckpt: 1.79x (vs 1.52x without graphs)",
        module="repro.hardware.gpu.GpuSpec.dispatch_seconds",
        knob="Scenario(cuda_graphs=True)",
    ),
    Optimization(
        key="fused_mha",
        title="Triton MHA with pair bias (FlashAttention-style)",
        paper_section="§3.3.1",
        paper_speedup="1.12x",
        module="repro.kernels.attention.fused_attention",
        knob="KernelPolicy(fused_mha=True)",
    ),
    Optimization(
        key="fused_layernorm",
        title="Triton LayerNorm (multi-row CTAs, two-step backward)",
        paper_section="§3.3.1",
        paper_speedup="1.13x",
        module="repro.kernels.layernorm.fused_layer_norm",
        knob="KernelPolicy(fused_layernorm=True)",
    ),
    Optimization(
        key="fused_adam_swa",
        title="Single-launch fused Adam + SWA (pointer-packed)",
        paper_section="§3.3.1",
        paper_speedup="1.17x",
        module="repro.kernels.adam_swa.fused_adam_swa_step",
        knob="KernelPolicy(fused_adam_swa=True)",
    ),
    Optimization(
        key="bucketed_clip",
        title="Gradient clipping over DDP buckets, hidden by comm",
        paper_section="§3.3.1",
        paper_speedup="included in update-path gains",
        module="repro.kernels.gradclip.bucketed_grad_norm",
        knob="KernelPolicy(bucketed_clip=True)",
    ),
    Optimization(
        key="batched_gemm",
        title="Batched Q/K/V/gate projection GEMMs before MHA",
        paper_section="§3.3.1",
        paper_speedup="1.03x",
        module="repro.kernels.gemm.batched_linear",
        knob="KernelPolicy(batched_gemm=True)",
    ),
    Optimization(
        key="autotune",
        title="Triton autotuning over tile sizes / launch dims",
        paper_section="§3.3.2",
        paper_speedup="largest at DAP-scaled-down workloads",
        module="repro.kernels.autotune.Autotuner",
        knob="CostModel(autotune=True)",
    ),
    Optimization(
        key="torch_compile",
        title="torch.compile auto-fusion of fragmented memory-bound ops",
        paper_section="§3.3.2",
        paper_speedup="1.17x",
        module="repro.perf.torchcompile.apply_torch_compile",
        knob="Scenario(torch_compile=True)",
    ),
    Optimization(
        key="bf16",
        title="Full bfloat16 training",
        paper_section="§3.4",
        paper_speedup="1.24x",
        module="repro.framework.dtypes.bfloat16",
        knob="KernelPolicy(dtype=bfloat16)",
    ),
    Optimization(
        key="gc_disable",
        title="Disable Python garbage collection at runtime",
        paper_section="§3.2, §4.1",
        paper_speedup="1.13x",
        module="repro.hardware.cpu.CpuJitterConfig(gc_enabled=False)",
        knob="Scenario(gc_disabled=True)",
    ),
    Optimization(
        key="async_eval",
        title="Asynchronous evaluation on dedicated nodes + DRAM eval cache",
        paper_section="§3.4",
        paper_speedup="TTT 11 min -> 7.51 min at 2080 GPUs",
        module="repro.train.evaluation.evaluation_overhead",
        knob="mlperf_time_to_train(async_eval=True)",
    ),
    Optimization(
        key="no_checkpointing",
        title="Disable activation checkpointing under DAP-8",
        paper_section="§4.1",
        paper_speedup="part of the 1.79x DAP-8 step",
        module="repro.framework.checkpoint",
        knob="KernelPolicy(activation_checkpointing=False)",
    ),
)


def by_key() -> Dict[str, Optimization]:
    return {o.key: o for o in OPTIMIZATIONS}


def format_table() -> str:
    lines = [f"{'key':<22}{'paper':<12}{'section':<14}title"]
    for o in OPTIMIZATIONS:
        lines.append(f"{o.key:<22}{o.paper_speedup.split()[0]:<12}"
                     f"{o.paper_section:<14}{o.title}")
    return "\n".join(lines)
