"""GPU memory model: why DAP-8 can disable activation checkpointing.

§2.2: "The AlphaFold model has only 97M parameters but the volume of
intermediate activations during training is enormous ... O(n^3) memories"
— OpenFold needs gradient checkpointing to fit.  §4.1: "Applying DAP
reduced the pressure of memory and allowed for disabling gradient
checkpointing, which eliminated re-computation in backward."

This module estimates per-GPU memory from the model configuration:

* static state: parameters, gradients, Adam moments, SWA copy, bf16/fp32
  master copies;
* activations saved for backward, per Evoformer block, including the
  O(S x N^2) attention probability tensors and O(N^2 c^2) outer-product
  intermediates — divided by the DAP degree (DAP shards activations);
* with checkpointing: only block boundaries are saved, plus one block's
  worth of live recompute workspace.

The headline check (tested in ``tests/perf/test_memory.py`` and benched in
``benchmarks/test_ablations.py``): at fp32/bf16 the full model does NOT fit
in 80 GB without checkpointing at DAP-1, and DOES fit at DAP-8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..model.config import AlphaFoldConfig, KernelPolicy

GIB = 1024.0**3


@dataclass
class MemoryEstimate:
    """Per-GPU memory breakdown in bytes."""

    parameters: float
    gradients: float
    optimizer_state: float
    activations: float
    workspace: float

    @property
    def total(self) -> float:
        return (self.parameters + self.gradients + self.optimizer_state
                + self.activations + self.workspace)

    @property
    def total_gib(self) -> float:
        return self.total / GIB

    def fits(self, hbm_gb: float, reserve_fraction: float = 0.08) -> bool:
        """Does this fit in ``hbm_gb`` GB leaving an allocator reserve?"""
        return self.total <= hbm_gb * 1e9 * (1.0 - reserve_fraction)

    def as_dict(self) -> Dict[str, float]:
        return {
            "parameters_gib": self.parameters / GIB,
            "gradients_gib": self.gradients / GIB,
            "optimizer_state_gib": self.optimizer_state / GIB,
            "activations_gib": self.activations / GIB,
            "workspace_gib": self.workspace / GIB,
            "total_gib": self.total_gib,
        }


def _param_count(cfg: AlphaFoldConfig) -> float:
    """Parameter count estimate (full config measures ~93.8M)."""
    from ..framework.module import meta_build
    from ..model.alphafold import AlphaFold

    with meta_build():
        return float(AlphaFold(cfg).num_parameters())


def evoformer_block_activation_bytes(cfg: AlphaFoldConfig, itemsize: int,
                                     n_seq: Optional[int] = None,
                                     c_m: Optional[int] = None) -> float:
    """Activation bytes one Evoformer block saves for backward.

    Counts the dominant saved tensors per submodule (inputs, attention
    probabilities, gate/products), not every epsilon — calibrated to
    eager-PyTorch footprints.
    """
    s = n_seq if n_seq is not None else cfg.n_seq
    n = cfg.n_res
    cm = c_m if c_m is not None else cfg.c_m
    cz = cfg.c_z
    h_msa, h_pair = cfg.n_head_msa, cfg.n_head_pair

    msa = s * n * cm
    pair = n * n * cz
    attn_probs_row = s * h_msa * n * n      # the O(S N^2) explosion
    attn_probs_col = n * h_msa * s * s
    tri_attn = 2 * h_pair * n * n * n       # two (N, H, N, N) prob tensors
    opm = n * n * cfg.c_hidden_opm**2
    tri_mul = 4 * n * n * cfg.c_hidden_mul  # a, b, gates
    transitions = (s * n * cm * cfg.transition_n
                   + n * n * cz * cfg.transition_n)
    # Saved inputs/outputs of each of the 9 submodules (LN outputs, QKV...).
    io_copies = 6 * msa + 8 * pair

    elements = (attn_probs_row + attn_probs_col + tri_attn + opm + tri_mul
                + transitions + io_copies)
    return elements * itemsize


def estimate_memory(cfg: Optional[AlphaFoldConfig] = None,
                    policy: Optional[KernelPolicy] = None,
                    dap_n: int = 1,
                    n_recycle: int = 1) -> MemoryEstimate:
    """Per-GPU training memory for a configuration.

    Args:
        dap_n: DAP degree — activations (not parameters) divide by it.
        n_recycle: recycling keeps one extra set of (m1, z, x) tensors.
    """
    policy = policy or (cfg.kernel_policy if cfg else KernelPolicy.reference())
    cfg = cfg or AlphaFoldConfig.full(policy)
    act_itemsize = policy.dtype.itemsize

    n_params = _param_count(cfg)
    # Parameters/grads in the training dtype; Adam moments + master weights
    # + SWA in fp32.
    parameters = n_params * act_itemsize
    gradients = n_params * act_itemsize
    master = n_params * 4 if act_itemsize == 2 else 0
    optimizer_state = n_params * 4 * 2 + n_params * 4 + master  # m, v, swa

    block = evoformer_block_activation_bytes(cfg, act_itemsize)
    extra_block = evoformer_block_activation_bytes(
        cfg, act_itemsize, n_seq=cfg.n_extra_seq, c_m=cfg.c_e)
    template_block = evoformer_block_activation_bytes(
        cfg, act_itemsize, n_seq=2, c_m=cfg.c_t)

    trunk = (cfg.evoformer_blocks * block
             + cfg.extra_msa_blocks * extra_block
             + cfg.template_blocks * cfg.n_templates * template_block)

    boundary = (cfg.n_seq * cfg.n_res * cfg.c_m
                + cfg.n_res * cfg.n_res * cfg.c_z) * act_itemsize
    if policy.activation_checkpointing:
        # Only block-boundary tensors persist; one block recomputes live.
        total_blocks = (cfg.evoformer_blocks + cfg.extra_msa_blocks
                        + cfg.template_blocks)
        activations = total_blocks * boundary + max(block, extra_block)
    else:
        activations = trunk

    activations /= max(dap_n, 1)

    # Structure module + heads + loss activations (serial; not DAP-sharded).
    structure = (cfg.structure_layers
                 * (cfg.n_res * cfg.n_res * cfg.ipa_heads * 3
                    + cfg.n_res * cfg.c_s * 8) * act_itemsize)
    recycle_state = n_recycle * boundary
    workspace = structure + recycle_state + 2.0 * GIB  # CUDA ctx + NCCL bufs

    return MemoryEstimate(parameters=parameters, gradients=gradients,
                          optimizer_state=optimizer_state,
                          activations=activations, workspace=workspace)


def checkpointing_required(cfg: Optional[AlphaFoldConfig] = None,
                           policy: Optional[KernelPolicy] = None,
                           dap_n: int = 1, hbm_gb: float = 80.0) -> bool:
    """True when the config does NOT fit without checkpointing."""
    policy = policy or KernelPolicy.reference()
    no_ckpt = policy.replace(activation_checkpointing=False)
    return not estimate_memory(cfg, no_ckpt, dap_n=dap_n).fits(hbm_gb)
