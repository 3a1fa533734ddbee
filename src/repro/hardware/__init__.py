"""Hardware models: GPU specs, roofline costs, CPU jitter.

CUDA Graph replay has no module of its own: :meth:`GpuSpec.dispatch_seconds`
prices a replayed launch, and
:class:`repro.distributed.straggler.StragglerModel` makes replayed ranks
immune to CPU peaks.
"""

from .cpu import CpuJitterConfig
from .gpu import (A100, B200, GH200, GPUS, H100, TPU_V5P, GpuSpec,
                  UnknownGpuError, get_gpu, list_gpus, register_gpu,
                  unregister_gpu)
from .roofline import CostModel, KernelCost

__all__ = [
    "CpuJitterConfig",
    "A100", "B200", "GH200", "GPUS", "H100", "TPU_V5P", "GpuSpec",
    "UnknownGpuError", "get_gpu", "list_gpus", "register_gpu",
    "unregister_gpu",
    "CostModel", "KernelCost",
]
