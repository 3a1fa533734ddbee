"""The ``Tensor`` type: numeric (numpy-backed) or meta (shape-only).

A numeric tensor carries a numpy array and supports real math; a meta tensor
carries only shape/dtype and flows through the exact same op layer, emitting
the exact same kernel records.  Meta execution is how we profile the model
at paper-scale crop sizes (N_res=256, N_msa=128, 48 Evoformer blocks) without
paying for numpy compute; numeric execution at tiny shapes is how we prove
the fused ScaleFold kernels match the reference math.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from . import dtypes
from .dtypes import DType


class Tensor:
    """A (possibly meta) n-dimensional array with autograd support."""

    __slots__ = ("_data", "shape", "dtype", "requires_grad", "grad", "node", "name")

    def __init__(
        self,
        data: Optional[np.ndarray],
        shape: Optional[Sequence[int]] = None,
        dtype: Optional[DType] = None,
        requires_grad: bool = False,
        name: Optional[str] = None,
    ) -> None:
        if data is not None:
            data = np.asarray(data)
            if dtype is None:
                dtype = dtypes.as_dtype(data.dtype)
            if data.dtype != dtype.storage:
                data = data.astype(dtype.storage)
            shape = data.shape
        else:
            if shape is None or dtype is None:
                raise ValueError("meta tensors need explicit shape and dtype")
        self._data = data
        self.shape: Tuple[int, ...] = tuple(int(s) for s in shape)
        self.dtype: DType = dtype
        self.requires_grad = requires_grad
        self.grad: Optional["Tensor"] = None
        self.node = None  # autograd.Node, set by ops
        self.name = name

    # ------------------------------------------------------------------
    # Basics
    # ------------------------------------------------------------------
    @property
    def is_meta(self) -> bool:
        return self._data is None

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n

    @property
    def nbytes(self) -> int:
        """Bytes this tensor would occupy on the simulated device."""
        return self.size * self.dtype.itemsize

    @property
    def data(self) -> np.ndarray:
        if self._data is None:
            raise RuntimeError(
                f"tensor {self.name or ''} is meta (shape-only); it has no values"
            )
        return self._data

    def numpy(self) -> np.ndarray:
        """The underlying numpy array (raises for meta tensors)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.size == 1 else self._item_err()

    def _item_err(self):
        raise ValueError(f"item() on tensor of shape {self.shape}")

    def detach(self) -> "Tensor":
        """Same storage, severed from the autograd graph."""
        out = Tensor(None, self.shape, self.dtype) if self.is_meta else Tensor(self._data)
        out.dtype = self.dtype
        out.requires_grad = False
        out.name = self.name
        return out

    def copy_(self, other: "Tensor") -> "Tensor":
        """In-place value copy (parameters / optimizer state updates)."""
        if self.is_meta or other.is_meta:
            if self.shape != other.shape:
                raise ValueError("copy_ shape mismatch")
            return self
        np.copyto(self._data, other._data.astype(self.dtype.storage))
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "meta " if self.is_meta else ""
        return f"Tensor({kind}shape={self.shape}, dtype={self.dtype.name})"

    def __len__(self) -> int:
        if not self.shape:
            raise TypeError("len() of a 0-d tensor")
        return self.shape[0]

    # Arithmetic operators are attached by repro.framework.ops at import
    # time to avoid a circular import.  See ops._install_operators().


TensorLike = Union[Tensor, np.ndarray, float, int]


def as_tensor(value: TensorLike, dtype: Optional[DType] = None) -> Tensor:
    """Coerce scalars/arrays to ``Tensor`` (no-op for tensors)."""
    if isinstance(value, Tensor):
        return value
    if isinstance(value, (int, float, np.floating, np.integer, bool, np.bool_)):
        d = dtype or (dtypes.float32 if isinstance(value, (float, np.floating)) else None)
        if d is None:
            d = dtypes.float32 if isinstance(value, (bool, np.bool_)) is False else dtypes.bool_
        arr = np.asarray(value, dtype=d.storage)
        return Tensor(arr, dtype=d)
    arr = np.asarray(value)
    return Tensor(arr, dtype=dtype)


# ----------------------------------------------------------------------
# Constructors
# ----------------------------------------------------------------------
_DEFAULT_RNG = np.random.default_rng(0)


def seed(value: int) -> None:
    """Re-seed the framework-global RNG (tests rely on determinism)."""
    global _DEFAULT_RNG
    _DEFAULT_RNG = np.random.default_rng(value)


def get_rng() -> np.random.Generator:
    return _DEFAULT_RNG


def zeros(shape: Sequence[int], dtype: DType = dtypes.float32, meta: bool = False,
          requires_grad: bool = False) -> Tensor:
    if meta:
        return Tensor(None, shape, dtype, requires_grad=requires_grad)
    return Tensor(np.zeros(shape, dtype=dtype.storage), dtype=dtype,
                  requires_grad=requires_grad)


def ones(shape: Sequence[int], dtype: DType = dtypes.float32, meta: bool = False,
         requires_grad: bool = False) -> Tensor:
    if meta:
        return Tensor(None, shape, dtype, requires_grad=requires_grad)
    return Tensor(np.ones(shape, dtype=dtype.storage), dtype=dtype,
                  requires_grad=requires_grad)


def full(shape: Sequence[int], value: float, dtype: DType = dtypes.float32,
         meta: bool = False) -> Tensor:
    if meta:
        return Tensor(None, shape, dtype)
    return Tensor(np.full(shape, value, dtype=dtype.storage), dtype=dtype)


def randn(shape: Sequence[int], dtype: DType = dtypes.float32, meta: bool = False,
          requires_grad: bool = False, std: float = 1.0) -> Tensor:
    if meta:
        return Tensor(None, shape, dtype, requires_grad=requires_grad)
    arr = _DEFAULT_RNG.standard_normal(shape).astype(np.float64) * std
    data = dtypes.quantize(arr, dtype) if dtype.is_floating else arr
    return Tensor(np.asarray(data, dtype=dtype.storage), dtype=dtype,
                  requires_grad=requires_grad)


def rand(shape: Sequence[int], dtype: DType = dtypes.float32, meta: bool = False) -> Tensor:
    if meta:
        return Tensor(None, shape, dtype)
    arr = _DEFAULT_RNG.random(shape)
    return Tensor(arr.astype(dtype.storage), dtype=dtype)


def arange(n: int, dtype: DType = dtypes.int64, meta: bool = False) -> Tensor:
    if meta:
        return Tensor(None, (n,), dtype)
    return Tensor(np.arange(n, dtype=dtype.storage), dtype=dtype)


def tensor_like(reference: Tensor, data: Optional[np.ndarray]) -> Tensor:
    """A tensor matching ``reference``'s meta-ness/shape/dtype."""
    if reference.is_meta:
        return Tensor(None, reference.shape, reference.dtype)
    return Tensor(data, dtype=reference.dtype)
