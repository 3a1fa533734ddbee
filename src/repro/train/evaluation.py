"""Evaluation: the real evaluator for numeric models, and the cost model
for synchronous vs asynchronous cluster evaluation (§3.4, Figure 9).

As ScaleFold shrank the step time, evaluation grew from 22% to 43% of the
total time-to-train; the fix was (a) offloading evaluation to dedicated
nodes (asynchronous evaluation) and (b) caching the evaluation dataset in
CPU DRAM so evaluation throughput keeps up with training.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..framework import no_grad
from ..framework.tensor import Tensor
from ..model.metrics import lddt_ca


# ----------------------------------------------------------------------
# Real evaluation of a numeric model (tests / examples)
# ----------------------------------------------------------------------
def evaluate_model(model, batches: Sequence[Dict[str, Tensor]],
                   n_recycle: int = 0) -> Dict[str, float]:
    """Run the model over validation batches; return avg_lddt_ca and parts."""
    was_training = model.training
    model.eval()
    scores: List[float] = []
    try:
        with no_grad():
            for batch in batches:
                out = model(batch, n_recycle=n_recycle)
                pred = out["positions"].numpy().astype(np.float64)
                true = batch["ca_coords"].numpy().astype(np.float64)
                scores.append(float(lddt_ca(pred, true)))
    finally:
        model.train(was_training)
    return {
        "avg_lddt_ca": float(np.mean(scores)) if scores else 0.0,
        "n_samples": float(len(scores)),
    }


# ----------------------------------------------------------------------
# Cluster evaluation cost model (Figure 9)
# ----------------------------------------------------------------------
@dataclass
class EvalConfig:
    """MLPerf-style periodic evaluation."""

    n_eval_samples: int = 180            # OpenFold/MLPerf validation set
    eval_every_steps: int = 100          # evaluation cadence
    #: Forward-only inference seconds per sample per GPU (recycling included).
    seconds_per_sample: float = 1.1
    #: Data-loading seconds per sample from disk vs the CPU-DRAM cache.
    load_seconds_disk: float = 0.9
    load_seconds_cached: float = 0.05
    cached_dataset: bool = True
    n_eval_gpus: int = 32                # async evaluation nodes


def eval_pass_seconds(cfg: EvalConfig, n_gpus: int) -> float:
    """Wall seconds for one full evaluation pass on ``n_gpus``."""
    load = (cfg.load_seconds_cached if cfg.cached_dataset
            else cfg.load_seconds_disk)
    per_sample = cfg.seconds_per_sample + load
    samples_per_gpu = -(-cfg.n_eval_samples // max(n_gpus, 1))  # ceil
    return samples_per_gpu * per_sample


@dataclass
class EvalOverhead:
    """Evaluation's contribution to time-to-train."""

    mode: str                  # "sync" | "async"
    per_eval_seconds: float    # one eval pass
    n_evals: int
    train_blocked_seconds: float   # training time lost to evaluation
    bottleneck: bool           # async eval slower than the train interval?


def evaluation_overhead(cfg: EvalConfig, total_steps: int, step_seconds: float,
                        train_gpus: int, async_eval: bool) -> EvalOverhead:
    """Time-to-train impact of periodic evaluation.

    Synchronous: training pauses while the training GPUs themselves run the
    eval pass.  Asynchronous: dedicated eval GPUs score checkpoints in the
    background; training only stalls if an eval pass takes longer than the
    interval between evals (the paper's "evaluation time must be smaller
    than training time" constraint) — which is why the eval dataset cache
    matters.
    """
    n_evals = max(total_steps // cfg.eval_every_steps, 1)
    if async_eval:
        per_eval = eval_pass_seconds(cfg, cfg.n_eval_gpus)
        interval = cfg.eval_every_steps * step_seconds
        blocked = max(per_eval - interval, 0.0) * n_evals
        return EvalOverhead("async", per_eval, n_evals, blocked,
                            bottleneck=per_eval > interval)
    per_eval = eval_pass_seconds(cfg, train_gpus)
    return EvalOverhead("sync", per_eval, n_evals, per_eval * n_evals,
                        bottleneck=False)
