"""Model hyperparameters and kernel policy.

``AlphaFoldConfig.full()`` matches the OpenFold/AlphaFold2 architecture the
paper trains (48 Evoformer blocks, c_m=256, c_z=128, crops of 256 residues
with 128 MSA sequences) and is used in meta (shape-only) mode for kernel
trace profiling.  ``tiny()`` is a numerically-executable miniature used by
tests and examples.  ``KernelPolicy`` holds one switch per ScaleFold
optimization that changes which kernels the model launches.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Tuple

from ..framework import dtypes
from ..framework.dtypes import DType


@dataclass
class KernelPolicy:
    """Which kernel implementations the model uses (ScaleFold switches)."""

    fused_layernorm: bool = False     # Triton LN kernel (§3.3.1)
    fused_mha: bool = False           # Triton MHA-with-pair-bias kernel (§3.3.1)
    batched_gemm: bool = False        # bundle Q/K/V/gate projections (§3.3.1)
    fused_adam_swa: bool = False      # single-launch Adam+SWA kernel (§3.3.1)
    bucketed_clip: bool = False       # grad clip over DDP buckets (§3.3.1)
    activation_checkpointing: bool = True  # OpenFold default; DAP-8 disables it
    dtype: DType = dtypes.float32     # bfloat16 training (§3.4)

    @classmethod
    def reference(cls) -> "KernelPolicy":
        """The MLPerf reference / public OpenFold configuration."""
        return cls()

    @classmethod
    def scalefold(cls, checkpointing: bool = False) -> "KernelPolicy":
        """Everything on (DAP-8 allows checkpointing off)."""
        return cls(fused_layernorm=True, fused_mha=True, batched_gemm=True,
                   fused_adam_swa=True, bucketed_clip=True,
                   activation_checkpointing=checkpointing, dtype=dtypes.bfloat16)

    def replace(self, **kwargs) -> "KernelPolicy":
        return dataclasses.replace(self, **kwargs)

    def signature(self) -> Tuple[Tuple[str, object], ...]:
        """Hashable ``(field, value)`` pairs of every field, in declaration
        order, with the dtype taken by name: the policy half of every cache
        key, so a new field can never alias cached traces or estimates."""
        out = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            out.append((f.name, value.name if f.name == "dtype" else value))
        return tuple(out)


@dataclass
class AlphaFoldConfig:
    """Architecture + input-crop hyperparameters."""

    # Input crop sizes
    n_res: int = 256          # residues per crop
    n_seq: int = 128          # MSA sequences per crop
    n_extra_seq: int = 1024   # extra-MSA sequences
    n_templates: int = 4

    # Channel widths
    c_m: int = 256            # MSA representation
    c_z: int = 128            # pair representation
    c_e: int = 64             # extra-MSA representation
    c_s: int = 384            # single representation
    c_t: int = 64             # template pair channels
    tf_dim: int = 22          # target (residue one-hot + extras)
    msa_feat_dim: int = 49
    extra_msa_feat_dim: int = 25
    max_relpos: int = 32

    # Attention geometry
    n_head_msa: int = 8
    n_head_pair: int = 4
    c_hidden_msa_att: int = 32
    c_hidden_pair_att: int = 32
    c_hidden_opm: int = 32
    c_hidden_mul: int = 128
    transition_n: int = 4

    # Stack depths (Figure 1 of the paper)
    evoformer_blocks: int = 48
    extra_msa_blocks: int = 4
    template_blocks: int = 2

    # Structure module
    structure_layers: int = 8
    ipa_heads: int = 12
    ipa_qk_points: int = 4
    ipa_v_points: int = 8
    c_ipa: int = 16

    # Heads
    plddt_bins: int = 50
    distogram_bins: int = 64

    # Recycling
    max_recycling_iters: int = 3   # up to 3 extra passes (4 total), like AF2

    # Dropout
    msa_row_dropout: float = 0.15
    pair_dropout: float = 0.25

    kernel_policy: KernelPolicy = dataclasses.field(default_factory=KernelPolicy)

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @classmethod
    def full(cls, policy: Optional[KernelPolicy] = None) -> "AlphaFoldConfig":
        """Paper-scale configuration (used in meta mode for profiling)."""
        return cls(kernel_policy=policy or KernelPolicy.reference())

    @classmethod
    def tiny(cls, policy: Optional[KernelPolicy] = None) -> "AlphaFoldConfig":
        """Miniature numerically-executable configuration for tests."""
        return cls(
            n_res=8, n_seq=4, n_extra_seq=8, n_templates=2,
            c_m=16, c_z=8, c_e=8, c_s=16, c_t=8,
            n_head_msa=2, n_head_pair=2,
            c_hidden_msa_att=8, c_hidden_pair_att=4, c_hidden_opm=4,
            c_hidden_mul=8, transition_n=2,
            evoformer_blocks=2, extra_msa_blocks=1, template_blocks=1,
            structure_layers=2, ipa_heads=2, ipa_qk_points=2, ipa_v_points=3,
            c_ipa=4, plddt_bins=10, distogram_bins=16,
            max_recycling_iters=1,
            kernel_policy=policy or KernelPolicy.reference(),
        )

    @classmethod
    def small(cls, policy: Optional[KernelPolicy] = None) -> "AlphaFoldConfig":
        """Mid-size config: real channel widths, shallow stacks.

        Small enough to execute numerically in seconds, big enough that
        per-kernel workload sizes resemble the full model's.
        """
        return cls(
            n_res=32, n_seq=8, n_extra_seq=16, n_templates=2,
            evoformer_blocks=3, extra_msa_blocks=1, template_blocks=1,
            structure_layers=2, max_recycling_iters=1,
            kernel_policy=policy or KernelPolicy.reference(),
        )

    def replace(self, **kwargs) -> "AlphaFoldConfig":
        return dataclasses.replace(self, **kwargs)
