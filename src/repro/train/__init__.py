"""Training procedure: optimizer, trainer, evaluation, convergence."""

from .convergence import (MAX_BATCH_SIZE, MLPERF_CHECKPOINT_SAMPLES,
                          MLPERF_TARGET_LDDT, PRETRAIN_PHASES,
                          ConvergenceModel, CurvePoint, TrainingPhase,
                          simulate_curve)
from .evaluation import (EvalConfig, EvalOverhead, eval_pass_seconds,
                         evaluate_model, evaluation_overhead)
from .checkpointing import CheckpointMeta, load_checkpoint, save_checkpoint
from .optimizer import AlphaFoldOptimizer, OptimizerConfig, emit_update_trace
from .schedule import LrSchedule
from .trainer import StepRecord, Trainer, TrainResult

__all__ = [
    "MAX_BATCH_SIZE", "MLPERF_CHECKPOINT_SAMPLES", "MLPERF_TARGET_LDDT",
    "PRETRAIN_PHASES", "ConvergenceModel", "CurvePoint", "TrainingPhase",
    "simulate_curve",
    "EvalConfig", "EvalOverhead", "eval_pass_seconds", "evaluate_model",
    "evaluation_overhead",
    "AlphaFoldOptimizer", "OptimizerConfig", "emit_update_trace",
    "CheckpointMeta", "load_checkpoint", "save_checkpoint",
    "LrSchedule",
    "StepRecord", "Trainer", "TrainResult",
]
