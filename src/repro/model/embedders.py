"""Input, recycling, and extra-MSA embedders (Figure 1 "Input Embeddings")."""

from __future__ import annotations

from typing import Tuple

from ..framework import ops
from ..framework.module import Module
from ..framework.tensor import Tensor
from .config import AlphaFoldConfig
from .primitives import LayerNorm, Linear


class InputEmbedder(Module):
    """Target/MSA features -> initial MSA and pair representations."""

    def __init__(self, cfg: AlphaFoldConfig) -> None:
        super().__init__()
        self.cfg = cfg
        self.linear_tf_z_i = Linear(cfg.tf_dim, cfg.c_z)
        self.linear_tf_z_j = Linear(cfg.tf_dim, cfg.c_z)
        self.linear_tf_m = Linear(cfg.tf_dim, cfg.c_m)
        self.linear_msa_m = Linear(cfg.msa_feat_dim, cfg.c_m)
        self.linear_relpos = Linear(2 * cfg.max_relpos + 1, cfg.c_z)

    def relpos_embedding(self, residue_index: Tensor) -> Tensor:
        """Clipped relative-position one-hot -> c_z."""
        n = residue_index.shape[0]
        i = ops.reshape(residue_index, (n, 1))
        j = ops.reshape(residue_index, (1, n))
        d = ops.clamp(ops.cast(ops.sub(i, j), self.linear_relpos.weight.dtype),
                      -self.cfg.max_relpos, self.cfg.max_relpos)
        d = ops.cast(ops.add(d, float(self.cfg.max_relpos)),
                     residue_index.dtype)
        onehot = ops.one_hot(d, 2 * self.cfg.max_relpos + 1,
                             dtype=self.linear_relpos.weight.dtype)
        return self.linear_relpos(onehot)

    def forward(self, target_feat: Tensor, msa_feat: Tensor,
                residue_index: Tensor) -> Tuple[Tensor, Tensor]:
        n = target_feat.shape[0]
        zi = self.linear_tf_z_i(target_feat)   # (N, c_z)
        zj = self.linear_tf_z_j(target_feat)   # (N, c_z)
        z = ops.add(ops.reshape(zi, (n, 1, -1)), ops.reshape(zj, (1, n, -1)))
        z = ops.add(z, self.relpos_embedding(residue_index))
        m = ops.add(self.linear_msa_m(msa_feat),
                    ops.broadcast_to(
                        ops.reshape(self.linear_tf_m(target_feat), (1, n, -1)),
                        msa_feat.shape[:-1] + (self.cfg.c_m,)))
        return m, z


class RecyclingEmbedder(Module):
    """Feed the previous iteration's outputs back in (AF recycling).

    The varying number of recycling iterations is what forces ScaleFold's
    CUDA Graph *cache* (§3.2): a different iteration count is a different
    captured graph.
    """

    #: AF2 recycling distogram: 15 bins over [3.375, 21.375) Angstrom.
    MIN_BIN = 3.375
    MAX_BIN = 21.375
    N_BINS = 15

    def __init__(self, cfg: AlphaFoldConfig) -> None:
        super().__init__()
        self.cfg = cfg
        self.layer_norm_m = LayerNorm(cfg.c_m, cfg.kernel_policy)
        self.layer_norm_z = LayerNorm(cfg.c_z, cfg.kernel_policy)
        self.linear_dgram = Linear(self.N_BINS, cfg.c_z)

    def _distogram(self, ca_coords: Tensor) -> Tensor:
        """Binned pairwise-distance indicator features, (N, N, N_BINS)."""
        n = ca_coords.shape[0]
        a = ops.reshape(ca_coords, (n, 1, 3))
        b = ops.reshape(ca_coords, (1, n, 3))
        d2 = ops.sum_(ops.square(ops.sub(a, b)), axis=-1, keepdims=True)
        step = (self.MAX_BIN - self.MIN_BIN) / (self.N_BINS - 1)
        bins = []
        for k in range(self.N_BINS):
            lower = (self.MIN_BIN + k * step) ** 2
            upper = (self.MIN_BIN + (k + 1) * step) ** 2 if k < self.N_BINS - 1 else float("inf")
            hit = ops.mul(ops.cast(ops.gt(d2, lower), ca_coords.dtype),
                          ops.cast(ops.le(d2, upper), ca_coords.dtype))
            bins.append(hit)
        return ops.concat(bins, axis=-1)

    def forward(self, m_first_row: Tensor, z: Tensor,
                ca_coords: Tensor) -> Tuple[Tensor, Tensor]:
        """Returns (m_first_row_update, z_update) to be added in."""
        m_update = self.layer_norm_m(m_first_row)
        z_update = ops.add(self.layer_norm_z(z),
                           self.linear_dgram(self._distogram(ca_coords)))
        return m_update, z_update


class ExtraMSAEmbedder(Module):
    """Extra-MSA features -> the narrow c_e representation."""

    def __init__(self, cfg: AlphaFoldConfig) -> None:
        super().__init__()
        self.linear = Linear(cfg.extra_msa_feat_dim, cfg.c_e)

    def forward(self, extra_msa_feat: Tensor) -> Tensor:
        return self.linear(extra_msa_feat)
