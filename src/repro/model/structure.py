"""Structure Module: Invariant Point Attention + iterative frame refinement.

This is the "serial module" of §3.1: it runs on the single representation
after the Evoformer and cannot be parallelized by DAP (together with the
data pipeline it accounts for ~11% of per-step GPU time).  Its computation is
heavily fragmented — many small ops on (N, ...) tensors — which is why the
paper accelerates it with ``torch.compile`` rather than hand-written kernels.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from ..framework import functional as F
from ..framework import ops
from ..framework.module import Module, make_parameter
from ..framework.tensor import Tensor
from .config import AlphaFoldConfig, KernelPolicy
from .primitives import LayerNorm, Linear
from .rigid import Rigid, quat_to_rot


def softplus(x: Tensor) -> Tensor:
    return ops.log(ops.add(ops.exp(x), 1.0))


class InvariantPointAttention(Module):
    """IPA: attention whose logits mix scalar QK, pair bias, and 3D point
    distances computed in the current global frames."""

    def __init__(self, cfg: AlphaFoldConfig,
                 policy: Optional[KernelPolicy] = None) -> None:
        super().__init__()
        self.cfg = cfg
        h, c = cfg.ipa_heads, cfg.c_ipa
        pq, pv = cfg.ipa_qk_points, cfg.ipa_v_points
        self.h, self.c, self.pq, self.pv = h, c, pq, pv
        self.linear_q = Linear(cfg.c_s, h * c, bias=False)
        self.linear_k = Linear(cfg.c_s, h * c, bias=False)
        self.linear_v = Linear(cfg.c_s, h * c, bias=False)
        self.linear_q_pts = Linear(cfg.c_s, h * pq * 3)
        self.linear_k_pts = Linear(cfg.c_s, h * pq * 3)
        self.linear_v_pts = Linear(cfg.c_s, h * pv * 3)
        self.linear_b = Linear(cfg.c_z, h, bias=False, init="normal")
        self.head_weights = make_parameter((h,), init="zeros")
        concat_dim = h * c + h * pv * 3 + h * pv + h * cfg.c_z
        self.linear_out = Linear(concat_dim, cfg.c_s, init="final")

    def forward(self, s: Tensor, z: Tensor, rigid: Rigid) -> Tensor:
        n = s.shape[0]
        h, c, pq, pv = self.h, self.c, self.pq, self.pv

        q = ops.reshape(self.linear_q(s), (n, h, c))
        k = ops.reshape(self.linear_k(s), (n, h, c))
        v = ops.reshape(self.linear_v(s), (n, h, c))

        # Scalar logits: (H, N, N)
        qh = ops.permute(q, (1, 0, 2))
        kh = ops.permute(k, (1, 0, 2))
        scalar = ops.mul(ops.matmul(qh, ops.transpose(kh, -1, -2)),
                         1.0 / math.sqrt(c))

        # Pair bias: (H, N, N)
        bias = ops.permute(self.linear_b(z), (2, 0, 1))

        # Point logits: squared distances between globally-placed points.
        q_pts = rigid.apply(ops.reshape(self.linear_q_pts(s), (n, h * pq, 3)))
        k_pts = rigid.apply(ops.reshape(self.linear_k_pts(s), (n, h * pq, 3)))
        qp = ops.reshape(q_pts, (n, 1, h, pq, 3))
        kp = ops.reshape(k_pts, (1, n, h, pq, 3))
        d2 = ops.sum_(ops.square(ops.sub(qp, kp)), axis=(-1, -2))  # (N, N, H)
        d2 = ops.permute(d2, (2, 0, 1))
        gamma = ops.reshape(softplus(self.head_weights), (h, 1, 1))
        w_c = math.sqrt(2.0 / (9.0 * pq))
        w_l = math.sqrt(1.0 / 3.0)
        point_term = ops.mul(ops.mul(ops.broadcast_to(gamma, d2.shape), d2),
                             w_c * 0.5)
        logits = ops.mul(ops.sub(ops.add(scalar, bias), point_term), w_l)
        a = F.softmax(logits, axis=-1)  # (H, N, N)

        # Scalar output: (N, H*c)
        vh = ops.permute(v, (1, 0, 2))
        o_scalar = ops.reshape(ops.permute(ops.matmul(a, vh), (1, 0, 2)),
                               (n, h * c))

        # Point output: attend over global points, then re-localize.
        v_pts = rigid.apply(ops.reshape(self.linear_v_pts(s), (n, h * pv, 3)))
        vp = ops.reshape(ops.permute(ops.reshape(v_pts, (n, h, pv, 3)),
                                     (1, 0, 2, 3)), (h, n, pv * 3))
        o_pt_g = ops.matmul(a, vp)  # (H, N, Pv*3)
        o_pt_g = ops.reshape(ops.permute(o_pt_g, (1, 0, 2)), (n, h * pv, 3))
        o_pt_local = rigid.invert_apply(o_pt_g)  # (N, H*Pv, 3)
        o_pt_norm = ops.sqrt(ops.add(
            ops.sum_(ops.square(o_pt_local), axis=-1), 1e-8))  # (N, H*Pv)
        o_pt_flat = ops.reshape(o_pt_local, (n, h * pv * 3))

        # Pair output: (N, H, c_z)
        a_n = ops.permute(a, (1, 0, 2))  # (N, H, N)
        o_pair = ops.reshape(ops.matmul(a_n, z), (n, h * z.shape[-1]))

        merged = ops.concat([o_scalar, o_pt_flat, o_pt_norm, o_pair], axis=-1)
        return self.linear_out(merged)


class BackboneUpdate(Module):
    """Predict a per-residue frame update: quaternion vector + translation."""

    def __init__(self, c_s: int) -> None:
        super().__init__()
        self.linear = Linear(c_s, 6, init="final")

    def forward(self, s: Tensor) -> Rigid:
        params = self.linear(s)  # (N, 6)
        rots = quat_to_rot(params[:, 0:3])
        return Rigid(rots, params[:, 3:6])


class StructureTransition(Module):
    """3-layer residual MLP on the single representation."""

    def __init__(self, c_s: int, policy: KernelPolicy) -> None:
        super().__init__()
        self.linear_1 = Linear(c_s, c_s, init="relu")
        self.linear_2 = Linear(c_s, c_s, init="relu")
        self.linear_3 = Linear(c_s, c_s, init="final")
        self.layer_norm = LayerNorm(c_s, policy)

    def forward(self, s: Tensor) -> Tensor:
        update = self.linear_3(ops.relu(self.linear_2(ops.relu(self.linear_1(s)))))
        return self.layer_norm(ops.add(s, update))


class StructureModule(Module):
    """Iterative frame refinement with weight sharing across layers."""

    def __init__(self, cfg: AlphaFoldConfig,
                 policy: Optional[KernelPolicy] = None) -> None:
        super().__init__()
        policy = policy or cfg.kernel_policy
        self.cfg = cfg
        self.layer_norm_s = LayerNorm(cfg.c_s, policy)
        self.layer_norm_z = LayerNorm(cfg.c_z, policy)
        self.linear_in = Linear(cfg.c_s, cfg.c_s)
        self.ipa = InvariantPointAttention(cfg, policy)
        self.layer_norm_ipa = LayerNorm(cfg.c_s, policy)
        self.transition = StructureTransition(cfg.c_s, policy)
        self.backbone_update = BackboneUpdate(cfg.c_s)

    def forward(self, s: Tensor, z: Tensor) -> Dict[str, object]:
        n = s.shape[0]
        s = self.linear_in(self.layer_norm_s(s))
        z_ln = self.layer_norm_z(z)
        rigid = Rigid.identity(n, s.dtype, meta=s.is_meta)
        trajectory = []
        for _ in range(self.cfg.structure_layers):
            s = self.layer_norm_ipa(ops.add(s, self.ipa(s, z_ln, rigid)))
            s = self.transition(s)
            rigid = rigid.compose(self.backbone_update(s))
            trajectory.append(rigid)
        return {
            "single": s,
            "rigid": rigid,
            "trajectory": trajectory,
            "positions": rigid.trans,  # predicted CA coordinates
        }
