"""Top-level configuration presets for the ScaleFold reproduction."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..model.config import AlphaFoldConfig, KernelPolicy
from ..perf.scaling import Scenario


@dataclass
class ScaleFoldConfig:
    """A complete training-system configuration: model + kernels + system."""

    scenario: Scenario = field(default_factory=Scenario)
    model: AlphaFoldConfig = field(default_factory=AlphaFoldConfig.full)

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @classmethod
    def mlperf_reference(cls, gpu: str = "H100") -> "ScaleFoldConfig":
        """Eager fp32 OpenFold, DP-256, blocking pipeline — the baseline."""
        policy = KernelPolicy.reference()
        return cls(scenario=Scenario(policy=policy, gpu=gpu, dp_degree=256),
                   model=AlphaFoldConfig.full(policy))

    @classmethod
    def scalefold(cls, gpu: str = "H100", dap_n: int = 8,
                  dp_degree: int = 256) -> "ScaleFoldConfig":
        """Everything on: the paper's final configuration."""
        policy = KernelPolicy.scalefold(checkpointing=dap_n < 8)
        scenario = Scenario(policy=policy, gpu=gpu, dap_n=dap_n,
                            dp_degree=dp_degree, cuda_graphs=dap_n > 1,
                            gc_disabled=True, torch_compile=True,
                            nonblocking_pipeline=True)
        return cls(scenario=scenario, model=AlphaFoldConfig.full(policy))

    @property
    def policy(self) -> KernelPolicy:
        return self.scenario.policy
