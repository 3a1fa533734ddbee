"""Differentiable rigid-body frames (rotation + translation per residue).

AlphaFold represents each residue's backbone as a rigid transform; the
Structure Module iteratively refines these frames.  Everything here is built
from traced primitive ops, so frame math contributes its (many, tiny)
kernel launches to the trace — the Structure Module is one of the paper's
"serial modules" that DAP cannot parallelize and torch.compile later fuses.
"""

from __future__ import annotations

import numpy as np

from ..framework import ops
from ..framework.dtypes import DType, float32
from ..framework.tensor import Tensor


class Rigid:
    """A batch of rigid transforms: ``rots`` (N, 3, 3) and ``trans`` (N, 3)."""

    def __init__(self, rots: Tensor, trans: Tensor) -> None:
        if rots.shape[-2:] != (3, 3) or trans.shape[-1] != 3:
            raise ValueError(f"bad frame shapes: {rots.shape}, {trans.shape}")
        self.rots = rots
        self.trans = trans

    @property
    def n(self) -> int:
        return self.rots.shape[0]

    @classmethod
    def identity(cls, n: int, dtype: DType = float32, meta: bool = False) -> "Rigid":
        if meta:
            return cls(Tensor(None, (n, 3, 3), dtype), Tensor(None, (n, 3), dtype))
        eye = np.broadcast_to(np.eye(3, dtype=dtype.storage), (n, 3, 3)).copy()
        return cls(Tensor(eye, dtype=dtype),
                   Tensor(np.zeros((n, 3), dtype=dtype.storage), dtype=dtype))

    # ------------------------------------------------------------------
    # Point transforms.  Points are (N, K, 3): K points per frame.
    # ------------------------------------------------------------------
    def apply(self, pts: Tensor) -> Tensor:
        """Local -> global: ``R @ p + t``."""
        rotated = ops.matmul(pts, ops.transpose(self.rots, -1, -2))
        return ops.add(rotated, ops.reshape(self.trans, (self.n, 1, 3)))

    def invert_apply(self, pts: Tensor) -> Tensor:
        """Global -> local: ``R^T (p - t)``."""
        shifted = ops.sub(pts, ops.reshape(self.trans, (self.n, 1, 3)))
        return ops.matmul(shifted, self.rots)

    def compose(self, update: "Rigid") -> "Rigid":
        """``self`` followed locally by ``update``: (R u_R, R u_t + t)."""
        new_rots = ops.matmul(self.rots, update.rots)
        moved = self.apply(ops.reshape(update.trans, (self.n, 1, 3)))
        return Rigid(new_rots, ops.reshape(moved, (self.n, 3)))

    def detach(self) -> "Rigid":
        return Rigid(self.rots.detach(), self.trans.detach())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Rigid(n={self.n})"


def quat_to_rot(bcd: Tensor) -> Tensor:
    """Unnormalized quaternion vector part (N, 3) -> rotation matrices (N, 3, 3).

    AlphaFold's backbone update predicts ``(b, c, d)`` and uses the
    quaternion ``(1, b, c, d) / |(1, b, c, d)|`` — always a proper rotation,
    smoothly parameterized around identity.
    """
    n = bcd.shape[0]
    b = bcd[:, 0:1]
    c = bcd[:, 1:2]
    d = bcd[:, 2:3]
    one = ops.ones_like(b)
    norm2 = ops.add(ops.add(one, ops.square(b)),
                    ops.add(ops.square(c), ops.square(d)))
    inv = ops.reciprocal(norm2)
    # Quaternion components divided by |q|^2 pre-factor the matrix formula:
    # R = I + 2/|q|^2 * [[-(c^2+d^2), bc - d, bd + c], ...] with a = 1.
    two = ops.mul(inv, 2.0)
    bb, cc, dd = ops.square(b), ops.square(c), ops.square(d)
    bc, bd, cd = ops.mul(b, c), ops.mul(b, d), ops.mul(c, d)
    # a = 1 (scalar part), so terms like a*b are just b.
    r00 = ops.sub(one, ops.mul(two, ops.add(cc, dd)))
    r01 = ops.mul(two, ops.sub(bc, d))
    r02 = ops.mul(two, ops.add(bd, c))
    r10 = ops.mul(two, ops.add(bc, d))
    r11 = ops.sub(one, ops.mul(two, ops.add(bb, dd)))
    r12 = ops.mul(two, ops.sub(cd, b))
    r20 = ops.mul(two, ops.sub(bd, c))
    r21 = ops.mul(two, ops.add(cd, b))
    r22 = ops.sub(one, ops.mul(two, ops.add(bb, cc)))
    flat = ops.concat([r00, r01, r02, r10, r11, r12, r20, r21, r22], axis=-1)
    return ops.reshape(flat, (n, 3, 3))


def frames_from_ca_np(ca: np.ndarray) -> np.ndarray:
    """Ground-truth frames from CA coordinates via consecutive-triple
    Gram-Schmidt (numpy; targets are not differentiated).

    Residue i's frame is built from (CA_{i-1}, CA_i, CA_{i+1}); terminal
    residues reuse their neighbor's triple.  Returns (N, 3, 3) rotations.
    """
    n = ca.shape[0]
    rots = np.zeros((n, 3, 3), dtype=np.float64)
    for i in range(n):
        b = ca[i]
        prev_i = i - 1 if i > 0 else min(i + 2, n - 1)
        next_i = i + 1 if i < n - 1 else max(i - 2, 0)
        a = ca[prev_i]
        c = ca[next_i]
        v1 = c - b
        v2 = a - b
        if np.linalg.norm(v1) < 1e-8:
            v1 = np.array([1.0, 0.0, 0.0])
        e1 = v1 / np.linalg.norm(v1)
        u2 = v2 - np.dot(v2, e1) * e1
        if np.linalg.norm(u2) < 1e-8:
            u2 = np.cross(e1, np.array([0.0, 0.0, 1.0]))
            if np.linalg.norm(u2) < 1e-8:
                u2 = np.cross(e1, np.array([0.0, 1.0, 0.0]))
        e2 = u2 / np.linalg.norm(u2)
        e3 = np.cross(e1, e2)
        rots[i] = np.stack([e1, e2, e3], axis=1)
    return rots.astype(np.float32)
