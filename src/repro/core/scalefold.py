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

from typing import Optional

from ..datapipe.samples import SyntheticProteinDataset
from ..framework.module import meta_build
from ..hardware.gpu import get_gpu
from ..model.alphafold import AlphaFold
from ..model.config import KernelPolicy
from ..observability.runlog import RunLogger
from ..perf.profiler import Table1, table1_breakdown
from ..perf.scaling import Scenario, StepEstimate, estimate_step_time
from ..perf.time_to_train import (TttResult, mlperf_time_to_train,
                                  pretraining_time_to_train)
from ..perf.trace_builder import StepTrace, build_step_trace
from ..train.optimizer import OptimizerConfig
from ..train.trainer import TrainResult, Trainer
from ..workloads import get_workload

#: Data-parallel width of the facade's systems: MLPerf's global batch 256.
DP_DEGREE = 256


class ScaleFold:
    """High-level entry point over the reproduction library.

    Holds one :class:`~repro.perf.scaling.Scenario`; the model config is
    the scenario's workload preset under its kernel policy.
    """

    def __init__(self, scenario: Optional[Scenario] = None) -> None:
        self.scenario = scenario or Scenario.scalefold(dp_degree=DP_DEGREE)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def reference(cls, gpu: str = "H100") -> "ScaleFold":
        """Eager fp32 OpenFold, DP only, blocking pipeline: the baseline."""
        return cls(Scenario(gpu=gpu, dp_degree=DP_DEGREE))

    @classmethod
    def scalefold(cls, gpu: str = "H100", dap_n: int = 8) -> "ScaleFold":
        """Everything on: the paper's final configuration."""
        return cls(Scenario.scalefold(dap_n=dap_n, gpu=gpu,
                                      dp_degree=DP_DEGREE))

    @classmethod
    def tiny(cls, policy: Optional[KernelPolicy] = None) -> "ScaleFold":
        """The ScaleFold system around the tiny preset, which trains
        numerically (eager reference kernels unless ``policy`` is given)."""
        return cls(Scenario.scalefold(
            dp_degree=DP_DEGREE, preset="tiny",
            policy=policy or KernelPolicy.reference()))

    @property
    def model_config(self):
        s = self.scenario
        return get_workload(s.workload).preset(s.preset, s.policy)

    # ------------------------------------------------------------------
    # Model construction
    # ------------------------------------------------------------------
    def build_model(self, meta: Optional[bool] = None) -> AlphaFold:
        """Numeric model for reduced presets, meta for the full-size one."""
        if meta is None:
            meta = self.scenario.preset == "full"
        if meta:
            with meta_build():
                return AlphaFold(self.model_config)
        return AlphaFold(self.model_config)

    # ------------------------------------------------------------------
    # Performance analysis
    # ------------------------------------------------------------------
    def trace(self, n_recycle: int = 1) -> StepTrace:
        s = self.scenario
        return build_step_trace(s.policy, n_recycle=n_recycle,
                                cfg=self.model_config, workload=s.workload)

    def profile(self, n_recycle: int = 1) -> Table1:
        """Table-1-style kernel breakdown on this scenario's GPU."""
        return table1_breakdown(self.trace(n_recycle),
                                get_gpu(self.scenario.gpu))

    def step_time(self) -> StepEstimate:
        return estimate_step_time(self.scenario)

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def train(self, steps: int = 3, dataset_size: int = 8,
              optimizer_config: Optional[OptimizerConfig] = None,
              eval_every: int = 0) -> TrainResult:
        """Real numeric training (tiny/small presets only)."""
        if self.scenario.preset == "full":
            raise ValueError(
                "numeric training is for tiny/small model configs; "
                "paper-scale training is simulated (see mlperf_run / "
                "pretraining_sim)")
        policy = self.scenario.policy
        if optimizer_config is None:
            optimizer_config = OptimizerConfig(fused=policy.fused_adam_swa,
                                               bucketed_clip=policy.bucketed_clip)
        cfg = self.model_config
        trainer = Trainer(cfg, optimizer_config)
        dataset = SyntheticProteinDataset(cfg, size=dataset_size)
        return trainer.fit(dataset, steps, eval_every=eval_every)

    # ------------------------------------------------------------------
    # Cluster-scale simulations
    # ------------------------------------------------------------------
    def mlperf_run(self, async_eval: bool = True, n_gpus: int = 2080,
                   run_logger: Optional[RunLogger] = None) -> TttResult:
        """MLPerf HPC OpenFold time-to-train (Figure 10) of this system;
        ``run_logger`` receives the run's MLPerf events."""
        return mlperf_time_to_train(
            scalefold=self.scenario.policy.fused_mha, async_eval=async_eval,
            n_gpus=n_gpus, gpu=self.scenario.gpu, run_logger=run_logger)

    def pretraining_sim(self) -> TttResult:
        return pretraining_time_to_train(
            scalefold=self.scenario.policy.fused_mha, gpu=self.scenario.gpu)
