"""ScaleFold's critical-pattern kernels: reference vs fused implementations.

Four patterns from §3.3.1 of the paper, each with a fragmented reference
path (what eager OpenFold launches) and a fused path (what ScaleFold's
Triton kernels launch), numerically equivalent:

* LayerNorm        — :mod:`repro.kernels.layernorm`
* MHA + pair bias  — :mod:`repro.kernels.attention`
* Adam + SWA       — :mod:`repro.kernels.adam_swa`
* Gradient clip    — :mod:`repro.kernels.gradclip`
* GEMM batching    — :mod:`repro.kernels.gemm`

plus the mock Triton autotuner (:mod:`repro.kernels.autotune`).
"""

from .adam_swa import (AdamParams, adam_swa_math, fused_adam_swa_step,
                       reference_adam_swa_step)
from .attention import (flash_attention_tiled, fused_attention,
                        reference_attention_np)
from .autotune import (CONFIG_SPACES, DEFAULT_CONFIG, Autotuner, KernelConfig,
                       TuneResult)
from .gemm import batched_linear, separate_linears
from .gradclip import (bucketed_grad_norm, clip_coefficient, pack_buckets,
                       reference_apply_clip, reference_grad_norm,
                       unpack_buckets)
from .layernorm import fused_layer_norm, single_pass_stats, two_step_grad_reduction

__all__ = [
    "AdamParams", "adam_swa_math", "fused_adam_swa_step", "reference_adam_swa_step",
    "flash_attention_tiled", "fused_attention", "reference_attention_np",
    "CONFIG_SPACES", "DEFAULT_CONFIG", "Autotuner", "KernelConfig", "TuneResult",
    "batched_linear", "separate_linears",
    "bucketed_grad_norm", "clip_coefficient", "pack_buckets",
    "reference_apply_clip", "reference_grad_norm", "unpack_buckets",
    "fused_layer_norm", "single_pass_stats", "two_step_grad_reduction",
]
