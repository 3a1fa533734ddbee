"""The full AlphaFold model with recycling (Figure 1 of the paper)."""

from __future__ import annotations

from typing import Dict, Optional

from ..framework import autograd, ops, tracer
from ..framework.module import Module
from ..framework.tensor import Tensor
from .config import AlphaFoldConfig
from .embedders import ExtraMSAEmbedder, InputEmbedder, RecyclingEmbedder
from .evoformer import EvoformerStack, ExtraMSAStack
from .heads import DistogramHead, PerResidueLDDTHead
from .masked_msa import MaskedMSAHead
from .structure import StructureModule
from .template import TemplatePairStack


class AlphaFold(Module):
    """AlphaFold2/OpenFold architecture on the traced mini-framework.

    Input features (all :class:`Tensor`, single sample — batching is the
    data-parallel dimension handled by the distributed layer):

    ==========================  ==========================
    ``target_feat``             (N, tf_dim)
    ``msa_feat``                (S, N, msa_feat_dim)
    ``extra_msa_feat``          (S_extra, N, extra_dim)
    ``template_pair_feat``      (T, N, N, c_t)
    ``residue_index``           (N,) int
    ``msa_mask``                (S, N) float 0/1
    ==========================  ==========================
    """

    def __init__(self, cfg: AlphaFoldConfig) -> None:
        super().__init__()
        self.cfg = cfg
        policy = cfg.kernel_policy
        self.input_embedder = InputEmbedder(cfg)
        self.recycling_embedder = RecyclingEmbedder(cfg)
        self.extra_msa_embedder = ExtraMSAEmbedder(cfg)
        self.template_stack = TemplatePairStack(cfg, policy)
        self.extra_msa_stack = ExtraMSAStack(cfg, policy)
        self.evoformer = EvoformerStack(cfg, policy=policy)
        self.structure_module = StructureModule(cfg, policy)
        self.plddt_head = PerResidueLDDTHead(cfg, policy)
        self.distogram_head = DistogramHead(cfg)
        self.masked_msa_head = MaskedMSAHead(cfg)

    def _iteration(self, feats: Dict[str, Tensor],
                   m1_prev: Optional[Tensor], z_prev: Optional[Tensor],
                   x_prev: Optional[Tensor]) -> Dict[str, object]:
        """One recycling iteration: embeddings -> trunk -> structure."""
        m, z = self.input_embedder(feats["target_feat"], feats["msa_feat"],
                                   feats["residue_index"])
        if m1_prev is not None:
            with tracer.scope("recycling"):
                m1_update, z_update = self.recycling_embedder(m1_prev, z_prev,
                                                              x_prev)
                n = m.shape[1]
                m_first = ops.add(m[0:1], ops.reshape(m1_update, (1, n, -1)))
                m = ops.concat([m_first, m[1:]], axis=0)
                z = ops.add(z, z_update)

        if "template_pair_feat" in feats:
            z = ops.add(z, self.template_stack(feats["template_pair_feat"]))

        if "extra_msa_feat" in feats:
            a = self.extra_msa_embedder(feats["extra_msa_feat"])
            z = self.extra_msa_stack(a, z)

        msa_mask = feats.get("msa_mask")
        m, z, s = self.evoformer(m, z, msa_mask)
        structure = self.structure_module(s, z)
        return {
            "msa": m,
            "pair": z,
            "single": structure["single"],
            "rigid": structure["rigid"],
            "positions": structure["positions"],
            "plddt_logits": self.plddt_head(structure["single"]),
            "distogram_logits": self.distogram_head(z),
            "masked_msa_logits": self.masked_msa_head(m),
        }

    def forward(self, feats: Dict[str, Tensor],
                n_recycle: Optional[int] = None) -> Dict[str, object]:
        """Run ``n_recycle`` no-grad passes plus one final (grad) pass.

        ``n_recycle`` varies per training step (AF2 samples it uniformly),
        which is the dynamic shape that forces ScaleFold's CUDA-Graph cache.
        """
        if n_recycle is None:
            n_recycle = self.cfg.max_recycling_iters
        m1_prev = z_prev = x_prev = None
        outputs: Dict[str, object] = {}
        for cycle in range(n_recycle + 1):
            final = cycle == n_recycle
            if final:
                outputs = self._iteration(feats, m1_prev, z_prev, x_prev)
            else:
                with autograd.no_grad():
                    outputs = self._iteration(feats, m1_prev, z_prev, x_prev)
                m1_prev = outputs["msa"][0].detach()
                z_prev = outputs["pair"].detach()
                x_prev = outputs["positions"].detach()
        return outputs
