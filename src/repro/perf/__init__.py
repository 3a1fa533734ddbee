"""Performance composition and analysis over kernel traces."""

from .flops import (evoformer_block_flops, model_forward_flops,
                    total_forward_flops)
from .memory import (MemoryEstimate, checkpointing_required, estimate_memory,
                     evoformer_block_activation_bytes)
from .bench import format_bench, run_bench, write_bench
from .profiler import (KernelRow, KeyOperationStats, Table1, Table1Row,
                       key_operation_analysis, module_time_shares,
                       table1_breakdown, top_kernels)
from .scaling import (LADDER_LABELS, BarrierBreakdown, Scenario, StepEstimate,
                      barrier_breakdown, estimate_step_time,
                      optimization_ladder)
from .step_time import StepTimeBreakdown, simulate_step
from .vector_cost import TraceCostArrays, compute_cost_arrays, trace_cost_arrays
from .time_to_train import (TttPhase, TttResult, curve_with_walltime,
                            mlperf_time_to_train, pretraining_time_to_train)
from .torchcompile import apply_torch_compile, compile_summary
from .trace_builder import StepTrace, build_step_trace, clear_cache

__all__ = [
    "format_bench", "run_bench", "write_bench",
    "KernelRow", "KeyOperationStats", "Table1", "Table1Row",
    "key_operation_analysis", "module_time_shares", "table1_breakdown",
    "top_kernels",
    "evoformer_block_flops", "model_forward_flops", "total_forward_flops",
    "MemoryEstimate", "checkpointing_required", "estimate_memory",
    "evoformer_block_activation_bytes",
    "LADDER_LABELS", "BarrierBreakdown", "Scenario", "StepEstimate",
    "barrier_breakdown", "estimate_step_time",
    "optimization_ladder",
    "StepTimeBreakdown", "simulate_step",
    "TraceCostArrays", "compute_cost_arrays", "trace_cost_arrays",
    "TttPhase", "TttResult", "curve_with_walltime", "mlperf_time_to_train",
    "pretraining_time_to_train",
    "apply_torch_compile", "compile_summary",
    "StepTrace", "build_step_trace", "clear_cache",
]
