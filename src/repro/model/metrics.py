"""Structure-quality metrics: the real lDDT-CA computation.

``avg_lddt_ca`` is the convergence metric for both the MLPerf HPC OpenFold
benchmark (target 0.8 from checkpoint) and the from-scratch pretraining
(target 0.9, Figure 11).  This module implements the standard lDDT
definition on CA atoms (Mariani et al. 2013), in numpy — evaluation is not
differentiated.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Standard lDDT difference thresholds (Angstrom).
LDDT_THRESHOLDS = (0.5, 1.0, 2.0, 4.0)

#: Inclusion radius: only true-structure pairs closer than this count.
LDDT_CUTOFF = 15.0


def lddt_ca(pred: np.ndarray, true: np.ndarray,
            cutoff: float = LDDT_CUTOFF,
            thresholds: Sequence[float] = LDDT_THRESHOLDS,
            per_residue: bool = False) -> np.ndarray:
    """lDDT of CA coordinates.

    Args:
        pred: (N, 3) predicted CA positions.
        true: (N, 3) reference CA positions.
        per_residue: return a (N,) vector instead of the global average.

    Returns:
        Scalar lDDT in [0, 1], or per-residue values.
    """
    if pred.shape != true.shape or pred.ndim != 2 or pred.shape[1] != 3:
        raise ValueError(f"bad coordinate shapes {pred.shape} vs {true.shape}")
    n = pred.shape[0]
    d_true = np.linalg.norm(true[:, None, :] - true[None, :, :], axis=-1)
    d_pred = np.linalg.norm(pred[:, None, :] - pred[None, :, :], axis=-1)
    # Pairs to score: within cutoff in the TRUE structure, excluding self.
    mask = (d_true < cutoff) & ~np.eye(n, dtype=bool)
    diff = np.abs(d_true - d_pred)
    score = np.zeros_like(d_true)
    for thr in thresholds:
        score += (diff < thr).astype(np.float64)
    score /= len(thresholds)
    denom = mask.sum(axis=-1)
    per_res = np.where(denom > 0, (score * mask).sum(axis=-1) / np.maximum(denom, 1), 0.0)
    if per_residue:
        return per_res
    total = mask.sum()
    if total == 0:
        return np.float64(0.0)
    return (score * mask).sum() / total


def avg_lddt_ca(preds: Sequence[np.ndarray], trues: Sequence[np.ndarray]) -> float:
    """Mean lDDT-CA over an evaluation set (the MLPerf gating metric)."""
    if len(preds) != len(trues) or not preds:
        raise ValueError("prediction/reference count mismatch or empty")
    return float(np.mean([lddt_ca(p, t) for p, t in zip(preds, trues)]))


def bin_lddt(per_res_lddt: np.ndarray, n_bins: int) -> np.ndarray:
    """Discretize per-residue lDDT into one-hot training targets."""
    idx = np.clip((per_res_lddt * n_bins).astype(np.int64), 0, n_bins - 1)
    out = np.zeros((per_res_lddt.shape[0], n_bins), dtype=np.float32)
    out[np.arange(per_res_lddt.shape[0]), idx] = 1.0
    return out


def distance_rmse(pred: np.ndarray, true: np.ndarray) -> float:
    """RMSE between pairwise-distance matrices (alignment-free)."""
    d_true = np.linalg.norm(true[:, None, :] - true[None, :, :], axis=-1)
    d_pred = np.linalg.norm(pred[:, None, :] - pred[None, :, :], axis=-1)
    return float(np.sqrt(np.mean(np.square(d_true - d_pred))))
