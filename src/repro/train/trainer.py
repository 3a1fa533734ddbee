"""Real numeric training loop over the (tiny) AlphaFold model.

Used by tests and examples to demonstrate that the whole stack — model,
loss, autograd, optimizer with SWA and clipping, reference or fused kernel
paths — actually trains: losses go down and lDDT-CA goes up on synthetic
proteins.  The paper-scale runs are simulated (see
:mod:`repro.perf.time_to_train`); this is the live end-to-end proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..datapipe.samples import SyntheticProteinDataset, make_batch
from ..framework import ops, phase, seed as set_seed, trace
from ..framework.tracer import Trace
from ..model.alphafold import AlphaFold
from ..model.config import AlphaFoldConfig
from ..model.loss import AlphaFoldLoss
from ..observability.runlog import RunLogger
from .evaluation import evaluate_model
from .optimizer import AlphaFoldOptimizer, OptimizerConfig
from .schedule import LrSchedule


@dataclass
class StepRecord:
    step: int
    loss: float
    parts: Dict[str, float]
    grad_norm: float
    lr: float
    kernels: Optional[int] = None


@dataclass
class TrainResult:
    records: List[StepRecord] = field(default_factory=list)
    eval_history: List[Dict[str, float]] = field(default_factory=list)

    @property
    def losses(self) -> List[float]:
        return [r.loss for r in self.records]

    @property
    def final_loss(self) -> float:
        return self.records[-1].loss if self.records else float("nan")


class Trainer:
    """Minimal single-process trainer for the numeric model."""

    def __init__(self, cfg: AlphaFoldConfig,
                 optimizer_config: Optional[OptimizerConfig] = None,
                 lr_schedule: Optional[LrSchedule] = None,
                 n_recycle: int = 0,
                 rng_seed: int = 0) -> None:
        set_seed(rng_seed)
        self.cfg = cfg
        self.model = AlphaFold(cfg)
        self.loss_fn = AlphaFoldLoss(cfg)
        self.optimizer = AlphaFoldOptimizer(self.model, optimizer_config)
        self.schedule = lr_schedule or LrSchedule(warmup_steps=10)
        self.n_recycle = n_recycle

    def train_step(self, batch: Dict, collect_trace: bool = False
                   ) -> StepRecord:
        step_no = self.optimizer.step_count + 1
        self.optimizer.set_lr(self.schedule.lr_at(step_no))
        self.model.zero_grad()
        t: Optional[Trace] = None

        def run() -> StepRecord:
            with phase("forward"):
                outputs = self.model(batch, n_recycle=self.n_recycle)
                loss, parts = self.loss_fn(outputs, batch)
            with phase("backward"):
                loss.backward()
            with phase("update"):
                stats = self.optimizer.step()
            return StepRecord(step=step_no, loss=parts.get("total", 0.0),
                              parts=parts, grad_norm=stats["grad_norm"],
                              lr=stats["lr"])

        if collect_trace:
            with trace(f"step-{step_no}") as t:
                record = run()
            record.kernels = len(t)
        else:
            record = run()
        return record

    def accumulated_step(self, batches: Sequence[Dict]) -> StepRecord:
        """One optimizer step over several micro-batches (gradient
        accumulation — how a local batch > 1 runs on one simulated GPU).

        Gradients are averaged by scaling each micro-batch loss by 1/k.
        """
        k = len(batches)
        if k == 0:
            raise ValueError("need at least one micro-batch")
        step_no = self.optimizer.step_count + 1
        self.optimizer.set_lr(self.schedule.lr_at(step_no))
        self.model.zero_grad()
        losses: List[float] = []
        last_parts: Dict[str, float] = {}
        for batch in batches:
            with phase("forward"):
                outputs = self.model(batch, n_recycle=self.n_recycle)
                loss, parts = self.loss_fn(outputs, batch)
                scaled = ops.mul(loss, 1.0 / k)
            with phase("backward"):
                scaled.backward()
            losses.append(parts.get("total", 0.0))
            last_parts = parts
        with phase("update"):
            stats = self.optimizer.step()
        return StepRecord(step=step_no, loss=float(np.mean(losses)),
                          parts=last_parts, grad_norm=stats["grad_norm"],
                          lr=stats["lr"])

    def fit(self, dataset: SyntheticProteinDataset, steps: int,
            eval_every: int = 0, eval_samples: int = 2,
            accumulate_steps: int = 1,
            run_logger: Optional[RunLogger] = None) -> TrainResult:
        """Run ``steps`` optimizer steps over the dataset.

        ``run_logger`` receives MLPerf-style structured events
        (``run_start``/``step``/``eval``/``run_stop``); each ``step``
        carries the loss, its ``loss_<part>`` terms, grad norm and LR.
        """
        result = TrainResult()
        if run_logger is not None:
            run_logger.run_start(steps=steps, dataset=len(dataset),
                                 accumulate_steps=accumulate_steps,
                                 n_recycle=self.n_recycle)
        cursor = 0
        for i in range(steps):
            batches = []
            for _ in range(accumulate_steps):
                sample = dataset[cursor % len(dataset)]
                cursor += 1
                batches.append(make_batch(
                    sample, dtype=self.cfg.kernel_policy.dtype,
                    mask_msa=True))
            if accumulate_steps == 1:
                record = self.train_step(batches[0])
            else:
                record = self.accumulated_step(batches)
            result.records.append(record)
            if run_logger is not None:
                run_logger.step(record.step, loss=record.loss,
                                grad_norm=record.grad_norm, lr=record.lr,
                                **{f"loss_{k}": v
                                   for k, v in record.parts.items()})
            if eval_every and (i + 1) % eval_every == 0:
                batches = [make_batch(dataset[j]) for j in range(eval_samples)]
                metrics = evaluate_model(self.model, batches)
                metrics["step"] = float(i + 1)
                result.eval_history.append(metrics)
                if run_logger is not None:
                    run_logger.evaluation(
                        i + 1, **{k: v for k, v in metrics.items()
                                  if k != "step"})
        if run_logger is not None:
            run_logger.run_stop(final_loss=result.final_loss)
        return result
