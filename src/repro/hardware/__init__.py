"""Hardware models: GPU specs, roofline costs, CUDA Graphs, CPU jitter."""

from .cpu import CpuJitterConfig
from .cudagraph import CapturedGraph, CudaGraphCache, GraphCacheStats
from .gpu import (A100, B200, GH200, GPUS, H100, TPU_V5P, GpuSpec,
                  UnknownGpuError, get_gpu, list_gpus, register_gpu,
                  registry_token, unregister_gpu)
from .roofline import CostModel, KernelCost

__all__ = [
    "CpuJitterConfig",
    "CapturedGraph", "CudaGraphCache", "GraphCacheStats",
    "A100", "B200", "GH200", "GPUS", "H100", "TPU_V5P", "GpuSpec",
    "UnknownGpuError", "get_gpu", "list_gpus", "register_gpu",
    "registry_token", "unregister_gpu",
    "CostModel", "KernelCost",
]
