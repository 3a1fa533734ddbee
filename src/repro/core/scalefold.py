"""The ScaleFold facade: one object tying the whole system together.

Typical uses::

    from repro import ScaleFold

    sf = ScaleFold.scalefold()           # the paper's final configuration
    sf.profile()                         # Table-1-style kernel breakdown
    sf.step_time()                       # simulated distributed step time
    sf.mlperf_run()                      # MLPerf HPC benchmark simulation

    tiny = ScaleFold.tiny()              # numerically-executable miniature
    result = tiny.train(steps=3)         # real training on synthetic data
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..datapipe.samples import SyntheticProteinDataset
from ..framework.module import meta_build
from ..hardware.gpu import get_gpu
from ..model.alphafold import AlphaFold
from ..model.config import AlphaFoldConfig, KernelPolicy
from ..observability.runlog import RunLogger
from ..perf.profiler import Table1, table1_breakdown
from ..perf.scaling import StepEstimate, estimate_step_time
from ..perf.time_to_train import (TttResult, mlperf_time_to_train,
                                  pretraining_time_to_train)
from ..perf.trace_builder import StepTrace, build_step_trace
from ..train.optimizer import OptimizerConfig
from ..train.trainer import TrainResult, Trainer
from .config import ScaleFoldConfig


class ScaleFold:
    """High-level entry point over the reproduction library."""

    def __init__(self, config: Optional[ScaleFoldConfig] = None) -> None:
        self.config = config or ScaleFoldConfig.scalefold()

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def reference(cls, gpu: str = "H100") -> "ScaleFold":
        return cls(ScaleFoldConfig.mlperf_reference(gpu=gpu))

    @classmethod
    def scalefold(cls, gpu: str = "H100", dap_n: int = 8) -> "ScaleFold":
        return cls(ScaleFoldConfig.scalefold(gpu=gpu, dap_n=dap_n))

    @classmethod
    def tiny(cls, policy: Optional[KernelPolicy] = None) -> "ScaleFold":
        cfg = ScaleFoldConfig.scalefold()
        cfg.model = AlphaFoldConfig.tiny(policy or KernelPolicy.reference())
        cfg.scenario = dataclasses.replace(cfg.scenario,
                                           policy=cfg.model.kernel_policy)
        return cls(cfg)

    # ------------------------------------------------------------------
    # Model construction
    # ------------------------------------------------------------------
    def build_model(self, meta: Optional[bool] = None) -> AlphaFold:
        """Numeric model for small configs, meta for the full-size one."""
        if meta is None:
            meta = self.config.model.n_res > 64
        if meta:
            with meta_build():
                return AlphaFold(self.config.model)
        return AlphaFold(self.config.model)

    # ------------------------------------------------------------------
    # Performance analysis
    # ------------------------------------------------------------------
    def trace(self, n_recycle: int = 1) -> StepTrace:
        return build_step_trace(self.config.policy, n_recycle=n_recycle)

    def profile(self, n_recycle: int = 1) -> Table1:
        """Table-1-style kernel breakdown on this config's GPU."""
        return table1_breakdown(self.trace(n_recycle),
                                get_gpu(self.config.scenario.gpu))

    def step_time(self) -> StepEstimate:
        return estimate_step_time(self.config.scenario)

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def train(self, steps: int = 3, dataset_size: int = 8,
              optimizer_config: Optional[OptimizerConfig] = None,
              eval_every: int = 0) -> TrainResult:
        """Real numeric training (tiny/small model configs only)."""
        if self.config.model.n_res > 64:
            raise ValueError(
                "numeric training is for tiny/small model configs; "
                "paper-scale training is simulated (see mlperf_run / "
                "pretraining_sim)")
        if optimizer_config is None:
            policy = self.config.model.kernel_policy
            optimizer_config = OptimizerConfig(fused=policy.fused_adam_swa,
                                               bucketed_clip=policy.bucketed_clip)
        trainer = Trainer(self.config.model, optimizer_config)
        dataset = SyntheticProteinDataset(self.config.model, size=dataset_size)
        return trainer.fit(dataset, steps, eval_every=eval_every)

    # ------------------------------------------------------------------
    # Cluster-scale simulations
    # ------------------------------------------------------------------
    def mlperf_run(self, async_eval: bool = True, n_gpus: int = 2080,
                   run_logger: Optional[RunLogger] = None) -> TttResult:
        """MLPerf HPC OpenFold time-to-train (Figure 10) of this config;
        ``run_logger`` receives the run's MLPerf events."""
        return mlperf_time_to_train(
            scalefold=self.config.policy.fused_mha, async_eval=async_eval,
            n_gpus=n_gpus, gpu=self.config.scenario.gpu,
            run_logger=run_logger)

    def pretraining_sim(self) -> TttResult:
        return pretraining_time_to_train(
            scalefold=self.config.policy.fused_mha,
            gpu=self.config.scenario.gpu)
