"""Fused multi-head attention with pair bias (the paper's Triton MHA).

§3.3.1: "AlphaFold uses a special variant of MHA, where a *pair bias* term is
added to the logits matrix before the softmax operation ... This makes
integrating existing optimized MHA implementations such as FlashAttention
inapplicable.  We implemented a customized kernel based on FlashAttention to
fuse all operations in MHA."

Two implementations:

* :func:`fused_attention` — the production path: ONE forward launch and ONE
  backward launch, computing exact attention with arbitrary additive biases
  (pair bias + mask bias), with analytic gradients.  Numerically identical
  to the unfused :func:`repro.framework.functional.attention`.
* :func:`flash_attention_tiled` — the faithful tiled algorithm: blocks of
  queries/keys, online softmax with running max and normalizer, never
  materializing the full (L_q, L_k) logits matrix.  Used by tests to show
  the fused kernel's math is implementable in O(block) memory even with the
  bias term (the thing stock FlashAttention lacked).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..framework import autograd, dtypes, tracer
from ..framework.tensor import Tensor


def _softmax_last(x: np.ndarray) -> np.ndarray:
    m = x.max(axis=-1, keepdims=True)
    # Fully-masked rows (all logits -inf) get a zero row, not NaN — same
    # convention as ops.softmax and the tiled kernel below.
    e = np.exp(x - np.where(np.isinf(m), 0.0, m))
    denom = e.sum(axis=-1, keepdims=True)
    return np.divide(e, denom, out=np.zeros_like(e), where=denom > 0)


def _unbroadcast_np(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (numpy analogue of ops.unbroadcast)."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _attn_flops(batch: int, heads: int, lq: int, lk: int, d: int) -> float:
    # Two GEMMs (QK^T and PV) plus softmax/bias elementwise work.
    return 4.0 * batch * heads * lq * lk * d + 8.0 * batch * heads * lq * lk


def _leading_batch(shape: Tuple[int, ...]) -> int:
    n = 1
    for s in shape[:-3]:
        n *= s
    return n


def fused_attention(q: Tensor, k: Tensor, v: Tensor,
                    biases: Sequence[Tensor] = (),
                    scale: Optional[float] = None) -> Tensor:
    """Exact MHA with additive biases in one fused launch.

    Args:
        q, k, v: ``(..., H, L, D)`` tensors.
        biases: tensors broadcastable to the ``(..., H, L_q, L_k)`` logits —
            in OpenFold, the ``(1, H, L, L)`` pair bias and a ``(..., 1, 1, L)``
            mask bias.
        scale: logit scale; defaults to ``D ** -0.5``.
    """
    d = q.shape[-1]
    lq, lk = q.shape[-2], k.shape[-2]
    heads = q.shape[-3]
    if scale is None:
        scale = d ** -0.5
    biases = list(biases)
    meta = q.is_meta or k.is_meta or v.is_meta or any(b.is_meta for b in biases)

    if meta:
        out = Tensor(None, q.shape[:-1] + (v.shape[-1],), q.dtype)
        cache = None
    else:
        logits = np.matmul(q.data * scale, np.swapaxes(k.data, -1, -2))
        for b in biases:
            logits = logits + b.data
        p = _softmax_last(logits.astype(np.float32))
        o = np.matmul(p, v.data.astype(np.float32))
        out = Tensor(dtypes.quantize(o, q.dtype).astype(q.dtype.storage), dtype=q.dtype)
        cache = p

    batch = _leading_batch(q.shape)
    item = q.dtype.itemsize
    bias_bytes = sum(b.nbytes for b in biases)
    io_bytes = (q.nbytes + k.nbytes + v.nbytes + out.nbytes + bias_bytes
                + batch * heads * lq * item)  # softmax stats
    tracer.emit("fused_mha_fwd", tracer.KernelCategory.MATH,
                _attn_flops(batch, heads, lq, lk, d), io_bytes,
                out.shape, out.dtype.name, fused=True, tunable="fused_mha")

    def backward_fn(g: Tensor):
        if meta or g.is_meta:
            gq = Tensor(None, q.shape, q.dtype)
            gk = Tensor(None, k.shape, k.dtype)
            gv = Tensor(None, v.shape, v.dtype)
            gbs = [Tensor(None, b.shape, b.dtype) for b in biases]
        else:
            p = cache
            go = g.data.astype(np.float32)
            dv = np.matmul(np.swapaxes(p, -1, -2), go)
            dp = np.matmul(go, np.swapaxes(v.data.astype(np.float32), -1, -2))
            ds = p * (dp - np.sum(dp * p, axis=-1, keepdims=True))
            dq = np.matmul(ds, k.data.astype(np.float32)) * scale
            dk = np.matmul(np.swapaxes(ds, -1, -2), q.data.astype(np.float32)) * scale
            gq = Tensor(dtypes.quantize(dq, q.dtype).astype(q.dtype.storage), dtype=q.dtype)
            gk = Tensor(dtypes.quantize(dk, k.dtype).astype(k.dtype.storage), dtype=k.dtype)
            gv = Tensor(dtypes.quantize(dv, v.dtype).astype(v.dtype.storage), dtype=v.dtype)
            gbs = [
                Tensor(dtypes.quantize(_unbroadcast_np(ds, b.shape), b.dtype)
                       .astype(b.dtype.storage), dtype=b.dtype)
                for b in biases
            ]
        bwd_bytes = (2 * (q.nbytes + k.nbytes + v.nbytes) + 2 * out.nbytes
                     + 2 * sum(b.nbytes for b in biases))
        tracer.emit("fused_mha_bwd", tracer.KernelCategory.MATH,
                    2.5 * _attn_flops(batch, heads, lq, lk, d), bwd_bytes,
                    q.shape, q.dtype.name, fused=True, tunable="fused_mha")
        return tuple([gq, gk, gv] + gbs)

    return autograd.attach(out, "fused_mha", [q, k, v] + biases, backward_fn)


def flash_attention_tiled(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                          bias: Optional[np.ndarray] = None,
                          scale: Optional[float] = None,
                          block_q: int = 16, block_k: int = 16) -> np.ndarray:
    """Reference tiled online-softmax attention (FlashAttention + bias).

    Operates on the last three axes ``(L_q, D)`` / ``(L_k, D)`` of arbitrary
    leading batch dims, processing ``block_q`` queries against successive
    ``block_k`` key tiles while maintaining a running row-max ``m`` and
    normalizer ``l`` — the standard FlashAttention recurrence, extended to
    add a bias tile to each logits tile before the online-softmax update.
    """
    if scale is None:
        scale = q.shape[-1] ** -0.5
    lq, lk = q.shape[-2], k.shape[-2]
    out = np.zeros(q.shape[:-1] + (v.shape[-1],), dtype=np.float64)
    q64 = q.astype(np.float64) * scale
    k64 = k.astype(np.float64)
    v64 = v.astype(np.float64)
    if bias is not None:
        bias64 = np.broadcast_to(bias.astype(np.float64),
                                 q.shape[:-2] + (lq, lk))

    for q0 in range(0, lq, block_q):
        q1 = min(q0 + block_q, lq)
        q_tile = q64[..., q0:q1, :]
        m = np.full(q_tile.shape[:-1], -np.inf)                  # running max
        l = np.zeros(q_tile.shape[:-1])                          # running sum
        acc = np.zeros(q_tile.shape[:-1] + (v.shape[-1],))
        for k0 in range(0, lk, block_k):
            k1 = min(k0 + block_k, lk)
            s = np.matmul(q_tile, np.swapaxes(k64[..., k0:k1, :], -1, -2))
            if bias is not None:
                s = s + bias64[..., q0:q1, k0:k1]
            m_new = np.maximum(m, s.max(axis=-1))
            # Guard fully-masked tiles where everything is -inf.
            safe_m = np.where(np.isinf(m_new), 0.0, m_new)
            p = np.exp(s - safe_m[..., None])
            # Rescale the running statistics.  Rows whose running max is
            # still -inf contribute nothing; substituting safe_m for them
            # keeps the exponent at exp(0) instead of exp(-m_new), which
            # overflows for large finite m_new before the mask discards it.
            prev_m = np.where(np.isinf(m), safe_m, m)
            correction = np.exp(prev_m - safe_m)
            correction = np.where(np.isinf(m), 0.0, correction)
            l = l * correction + p.sum(axis=-1)
            acc = acc * correction[..., None] + np.matmul(p, v64[..., k0:k1, :])
            m = m_new
        # A row masked across EVERY key tile has l == 0: emit zeros.
        ln = l[..., None]
        out[..., q0:q1, :] = np.divide(acc, ln, out=np.zeros_like(acc),
                                       where=ln > 0)
    return out.astype(q.dtype)


def reference_attention_np(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                           bias: Optional[np.ndarray] = None,
                           scale: Optional[float] = None) -> np.ndarray:
    """Plain materialized-logits attention, for testing the tiled version."""
    if scale is None:
        scale = q.shape[-1] ** -0.5
    s = np.matmul(q.astype(np.float64) * scale,
                  np.swapaxes(k.astype(np.float64), -1, -2))
    if bias is not None:
        s = s + bias.astype(np.float64)
    p = _softmax_last(s)
    return np.matmul(p, v.astype(np.float64)).astype(q.dtype)
