"""Training losses: FAPE (CA backbone), distogram, pLDDT.

A simplified-but-real subset of the AlphaFold loss: enough supervision for
the tiny model to actually learn structure in tests/examples, and the same
kernel-launch profile class (many small elementwise/reduction launches after
the Structure Module) for tracing.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..framework import functional as F
from ..framework import ops
from ..framework.tensor import Tensor
from .config import AlphaFoldConfig
from .metrics import bin_lddt, lddt_ca
from .rigid import Rigid


def pairwise_local_coords(rigid: Rigid, positions: Tensor) -> Tensor:
    """x[i, j] = R_i^T (p_j - t_i): every position in every residue frame.

    The core of FAPE — measuring positions in each predicted local frame
    makes the loss invariant to global rotation/translation.
    """
    n = positions.shape[0]
    p = ops.reshape(positions, (1, n, 3))
    t = ops.reshape(rigid.trans, (n, 1, 3))
    diff = ops.sub(ops.broadcast_to(p, (n, n, 3)), ops.broadcast_to(t, (n, n, 3)))
    return ops.matmul(diff, rigid.rots)  # batched over i: (N, N, 3)


def fape_loss(pred_rigid: Rigid, pred_positions: Tensor,
              true_rigid: Rigid, true_positions: Tensor,
              clamp_distance: float = 10.0,
              length_scale: float = 10.0) -> Tensor:
    """Frame-Aligned Point Error on CA atoms."""
    local_pred = pairwise_local_coords(pred_rigid, pred_positions)
    local_true = pairwise_local_coords(true_rigid, true_positions)
    err = ops.sqrt(ops.add(
        ops.sum_(ops.square(ops.sub(local_pred, local_true)), axis=-1), 1e-8))
    clamped = ops.clamp(err, max_value=clamp_distance)
    return ops.div(ops.mean(clamped), length_scale)


def distance_bins(ca: Tensor, n_bins: int, min_dist: float = 2.3125,
                  max_dist: float = 21.6875) -> Tensor:
    """Traced one-hot distance bins (N, N, n_bins) from CA coordinates.

    Built from comparison kernels so it works in both numeric and meta mode
    (targets need no gradients).  The last bin is open-ended, as in AF2.
    """
    n = ca.shape[0]
    a = ops.reshape(ca, (n, 1, 3))
    b = ops.reshape(ca, (1, n, 3))
    d2 = ops.sum_(ops.square(ops.sub(a, b)), axis=-1, keepdims=True)
    step = (max_dist - min_dist) / (n_bins - 1)
    bins = []
    for k in range(n_bins):
        lower = (min_dist + (k - 1) * step) ** 2 if k > 0 else -1.0
        upper = (min_dist + k * step) ** 2 if k < n_bins - 1 else float("inf")
        hit = ops.mul(ops.cast(ops.gt(d2, lower), ca.dtype),
                      ops.cast(ops.le(d2, upper), ca.dtype))
        bins.append(hit)
    return ops.concat(bins, axis=-1)


class AlphaFoldLoss:
    """Weighted sum of FAPE + distogram + pLDDT losses."""

    def __init__(self, cfg: AlphaFoldConfig, w_fape: float = 1.0,
                 w_distogram: float = 0.3, w_plddt: float = 0.01,
                 w_masked_msa: float = 0.1) -> None:
        self.cfg = cfg
        self.w_fape = w_fape
        self.w_distogram = w_distogram
        self.w_plddt = w_plddt
        self.w_masked_msa = w_masked_msa

    def __call__(self, outputs: Dict[str, object],
                 batch: Dict[str, Tensor]) -> Tuple[Tensor, Dict[str, float]]:
        """Compute the total loss.

        Args:
            outputs: the model's output dict (rigid, positions, logits...).
            batch: must contain ``ca_coords`` (N, 3) and ``true_rots`` (N, 3, 3).
        """
        pred_rigid: Rigid = outputs["rigid"]
        positions: Tensor = outputs["positions"]
        true_ca: Tensor = batch["ca_coords"]
        true_rigid = Rigid(batch["true_rots"], true_ca)

        fape = fape_loss(pred_rigid, positions, true_rigid, true_ca)

        dist_target = distance_bins(true_ca, self.cfg.distogram_bins)
        distogram = F.cross_entropy(outputs["distogram_logits"], dist_target)

        plddt_logits: Tensor = outputs["plddt_logits"]
        if positions.is_meta:
            plddt_target = Tensor(None, plddt_logits.shape, plddt_logits.dtype)
        else:
            per_res = lddt_ca(positions.numpy().astype(np.float64),
                              true_ca.numpy().astype(np.float64),
                              per_residue=True)
            plddt_target = Tensor(bin_lddt(per_res, self.cfg.plddt_bins))
        plddt = F.cross_entropy(plddt_logits, plddt_target)

        total = ops.add(ops.add(ops.mul(fape, self.w_fape),
                                ops.mul(distogram, self.w_distogram)),
                        ops.mul(plddt, self.w_plddt))

        masked_msa = None
        if ("msa_true_classes" in batch
                and "masked_msa_logits" in outputs):
            from .masked_msa import masked_msa_loss

            masked_msa = masked_msa_loss(outputs["masked_msa_logits"], batch)
            total = ops.add(total, ops.mul(masked_msa, self.w_masked_msa))

        parts = {}
        if not positions.is_meta:
            parts = {
                "fape": float(fape.item()),
                "distogram": float(distogram.item()),
                "plddt": float(plddt.item()),
                "total": float(total.item()),
            }
            if masked_msa is not None:
                parts["masked_msa"] = float(masked_msa.item())
        return total, parts
