"""Model building blocks with per-optimization kernel switches.

Each primitive consults the :class:`~repro.model.config.KernelPolicy` it was
constructed with: ``LayerNorm`` dispatches to the unfused 9-launch composite
or the fused single-launch kernel; ``Attention`` dispatches to the unfused
logits-materializing path or the fused FlashAttention-with-bias kernel, and
to four skinny projection GEMMs or one batched GEMM.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..framework import functional as F
from ..framework import ops
from ..framework.module import Module, make_parameter
from ..framework.tensor import Tensor
from ..kernels.attention import fused_attention
from ..kernels.gemm import batched_linear
from ..kernels.layernorm import fused_layer_norm
from .config import KernelPolicy


class Linear(Module):
    """Dense layer; weight stored (in_features, out_features)."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 init: str = "lecun") -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = make_parameter((in_features, out_features), init=init)
        self.bias = make_parameter((out_features,), init="zeros") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class LayerNorm(Module):
    """LayerNorm with a fused/unfused kernel switch."""

    def __init__(self, hidden: int, policy: KernelPolicy, eps: float = 1e-5) -> None:
        super().__init__()
        self.hidden = hidden
        self.eps = eps
        self.policy = policy
        self.weight = make_parameter((hidden,), init="ones")
        self.bias = make_parameter((hidden,), init="zeros")

    def forward(self, x: Tensor) -> Tensor:
        if self.policy.fused_layernorm:
            return fused_layer_norm(x, self.weight, self.bias, eps=self.eps)
        return F.layer_norm(x, self.weight, self.bias, eps=self.eps)


class Transition(Module):
    """The MSA/pair transition: LN -> expand n x -> relu -> project back."""

    def __init__(self, c: int, n: int, policy: KernelPolicy) -> None:
        super().__init__()
        self.layer_norm = LayerNorm(c, policy)
        self.linear_1 = Linear(c, n * c, init="relu")
        self.linear_2 = Linear(n * c, c, init="final")

    def forward(self, x: Tensor) -> Tensor:
        x = self.layer_norm(x)
        return self.linear_2(ops.relu(self.linear_1(x)))


def _split_heads(x: Tensor, n_heads: int) -> Tensor:
    """(..., L, H*C) -> (..., H, L, C)."""
    shape = x.shape[:-1] + (n_heads, x.shape[-1] // n_heads)
    x = ops.reshape(x, shape)
    return ops.transpose(x, -2, -3)


def _merge_heads(x: Tensor) -> Tensor:
    """(..., H, L, C) -> (..., L, H*C)."""
    x = ops.transpose(x, -2, -3)
    return ops.reshape(x, x.shape[:-2] + (x.shape[-2] * x.shape[-1],))


class Attention(Module):
    """Gated multi-head attention, AlphaFold-style.

    No biases on the Q/K/V projections; a sigmoid gate on the output; an
    arbitrary list of additive logit biases (pair bias, mask bias).

    Kernel switches:
      * ``policy.batched_gemm`` — Q/K/V/gate projections as one wide GEMM.
      * ``policy.fused_mha``    — single-launch FlashAttention-with-bias.
    """

    def __init__(self, c_q: int, c_kv: int, c_hidden: int, n_heads: int,
                 policy: KernelPolicy, gating: bool = True) -> None:
        super().__init__()
        self.c_hidden = c_hidden
        self.n_heads = n_heads
        self.policy = policy
        self.gating = gating
        wide = c_hidden * n_heads
        self.batched = policy.batched_gemm and c_q == c_kv
        if self.batched:
            # ScaleFold packs the independent Q/K/V(/gate) projections into
            # ONE wide weight at construction: one GEMM launch per forward.
            n_out = 4 if gating else 3
            self.linear_qkvg = Linear(c_q, wide * n_out, bias=False)
        else:
            self.linear_q = Linear(c_q, wide, bias=False)
            self.linear_k = Linear(c_kv, wide, bias=False)
            self.linear_v = Linear(c_kv, wide, bias=False)
            self.linear_g = Linear(c_q, wide, init="gating") if gating else None
        self.linear_o = Linear(wide, c_q, init="final")

    def load_unpacked(self, q_w: Tensor, k_w: Tensor, v_w: Tensor,
                      g_w: Optional[Tensor] = None) -> None:
        """Load separate projection weights into the packed parameter.

        Lets tests prove batched == separate numerics with shared weights.
        """
        if not self.batched:
            raise ValueError("attention was not built with batched_gemm")
        import numpy as np

        parts = [q_w.numpy(), k_w.numpy(), v_w.numpy()]
        if self.gating:
            if g_w is None:
                raise ValueError("gating attention needs the gate weight")
            parts.append(g_w.numpy())
        self.linear_qkvg.weight._data = np.concatenate(parts, axis=1).astype(
            self.linear_qkvg.weight.dtype.storage)

    def forward(self, x_q: Tensor, x_kv: Tensor,
                biases: Sequence[Tensor] = ()) -> Tensor:
        wide = self.c_hidden * self.n_heads
        if self.batched:
            if x_q is not x_kv:
                raise ValueError("batched QKV projections require "
                                 "self-attention (x_q is x_kv)")
            n_out = 4 if self.gating else 3
            outs = batched_linear(x_q, self.linear_qkvg.weight, None,
                                  [wide] * n_out)
            q, k, v = outs[0], outs[1], outs[2]
            g = outs[3] if self.gating else None
        else:
            q = self.linear_q(x_q)
            k = self.linear_k(x_kv)
            v = self.linear_v(x_kv)
            g = self.linear_g(x_q) if self.gating else None

        q = _split_heads(q, self.n_heads)
        k = _split_heads(k, self.n_heads)
        v = _split_heads(v, self.n_heads)

        if self.policy.fused_mha:
            o = fused_attention(q, k, v, biases=list(biases))
        else:
            o = F.attention(q, k, v, biases=list(biases))

        o = _merge_heads(o)
        if g is not None:
            o = F.sigmoid_gate(g, o)
        return self.linear_o(o)


def mask_bias(mask: Tensor, large_negative: float = -1e9) -> Tensor:
    """(…, L) 0/1 mask -> additive (…, 1, 1, L) logit bias."""
    bias = ops.mul(ops.sub(1.0, mask), large_negative)
    return ops.reshape(bias, bias.shape[:-1] + (1, 1, bias.shape[-1]))
