"""Gradient (activation) checkpointing with recompute tracing.

OpenFold uses activation checkpointing to fit AlphaFold's O(n^3) Evoformer
activations in memory, at the cost of re-running each block's forward during
the backward pass.  ScaleFold's DAP-8 configuration shrinks per-GPU
activations enough to *disable* checkpointing, eliminating the recompute
(§4.1: part of the 1.79x DAP-8 step).  We reproduce both modes: under
checkpointing, the recompute kernels are re-emitted into the trace inside the
backward phase, so the performance model sees the extra work.

Multi-output functions (an Evoformer block returns ``(msa, pair)``) are
supported by packing outputs into one flat tensor at the checkpoint boundary;
the pack/unpack copies are deliberately traced since a real implementation
pays similar re-materialization traffic.
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple

from . import autograd, ops
from .tensor import Tensor


def _pack(tensors: Sequence[Tensor]) -> Tensor:
    flats = [ops.reshape(t, (t.size,)) for t in tensors]
    return flats[0] if len(flats) == 1 else ops.concat(flats, axis=0)


def _unpack(packed: Tensor, like: Sequence[Tensor]) -> Tuple[Tensor, ...]:
    if len(like) == 1:
        return (ops.reshape(packed, like[0].shape),)
    parts = ops.split(packed, [t.size for t in like], axis=0)
    return tuple(ops.reshape(p, t.shape) for p, t in zip(parts, like))


def checkpoint(fn: Callable[..., object], *args: Tensor):
    """Run ``fn(*args)`` without storing its internal tape.

    During backward, ``fn`` is re-executed (with grads enabled) to rebuild the
    local graph, exactly like ``torch.utils.checkpoint``.  Returns whatever
    ``fn`` returns (a tensor or a tuple of tensors).
    """
    needs_grad = autograd.grad_enabled() and any(
        isinstance(a, Tensor) and a.requires_grad for a in args
    )
    if not needs_grad:
        return fn(*args)

    with autograd.no_grad():
        raw = fn(*[a.detach() if isinstance(a, Tensor) else a for a in args])
    outputs = raw if isinstance(raw, tuple) else (raw,)
    tensor_args = [a for a in args if isinstance(a, Tensor)]

    packed = _pack(outputs)
    packed = packed.detach()

    def backward_fn(g: Tensor):
        # Recompute forward with grads enabled; the relaunched kernels land in
        # the backward phase of the active trace.
        inner = []
        for a in args:
            if isinstance(a, Tensor):
                t = a.detach()
                t.requires_grad = a.requires_grad
                inner.append(t)
            else:
                inner.append(a)
        with autograd.enable_grad():
            raw2 = fn(*inner)
            outs2 = raw2 if isinstance(raw2, tuple) else (raw2,)
            repacked = _pack(outs2)
        autograd.backward(repacked, g)
        grads = []
        for a, t in zip(args, inner):
            if isinstance(a, Tensor):
                grads.append(t.grad)
        return tuple(grads)

    out_packed = autograd.attach(packed, "checkpoint", tensor_args, backward_fn)
    unpacked = _unpack(out_packed, outputs)
    return unpacked if isinstance(raw, tuple) else unpacked[0]


def checkpoint_sequential(blocks, inputs: Tuple[Tensor, ...],
                          enabled: bool = True) -> Tuple[Tensor, ...]:
    """Apply a stack of blocks, checkpointing each one when ``enabled``.

    Each block must accept and return the same tuple arity (the Evoformer
    convention: ``(msa, pair) -> (msa, pair)``).
    """
    current = tuple(inputs)
    for block in blocks:
        if enabled:
            result = checkpoint(lambda *xs, _b=block: _b(*xs), *current)
        else:
            result = block(*current)
        current = result if isinstance(result, tuple) else (result,)
    return current
