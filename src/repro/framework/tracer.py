"""Kernel-launch tracing.

Every primitive op in :mod:`repro.framework.ops` "launches a kernel": it
emits a :class:`KernelRecord` into the active :class:`Trace`.  A record
carries the analytically-computed FLOP count and bytes moved, the kernel
category from Table 1 of the ScaleFold paper (math-bounded, memory-bounded,
memory-operation), and the module scope it ran under.

The trace is the central artifact of this reproduction: the hardware cost
model (:mod:`repro.hardware.roofline`) turns each record into simulated
device time, the DAP partitioner (:mod:`repro.distributed.dap`) shards
records across ranks, and the profiler (:mod:`repro.perf.profiler`)
regenerates Table 1 from the records.
"""

from __future__ import annotations

import contextlib
import enum
import threading
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


class KernelCategory(enum.Enum):
    """Kernel taxonomy used by Table 1 of the paper."""

    MATH = "math-bounded"          # GEMMs, convolutions
    MEMORY = "memory-bounded"      # elementwise, reductions, softmax, norm...
    MEMORY_OP = "memory-operation" # copies, fills, dtype casts
    COMM = "communication"         # NCCL-style collectives (DAP / DDP)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class KernelRecord:
    """One simulated kernel launch.

    Attributes:
        name: kernel name, e.g. ``"matmul"`` or ``"fused_layernorm_fwd"``.
        category: Table 1 category.
        flops: floating point operations performed.
        bytes: bytes read + written from simulated HBM.
        shape: output shape (informational; used by the autotuner cache key).
        dtype: dtype name of the output.
        scope: ``/``-joined module path active at launch, e.g.
            ``"evoformer/blocks.0/msa_row_attn"``.
        fused: whether this launch came from a fused (ScaleFold) kernel.
        phase: ``"forward"``, ``"backward"`` or ``"update"``.
        tunable: registered autotuning key, if the kernel has one.
        tags: free-form annotations (e.g. ``{"collective": "all_gather"}``).
    """

    __slots__ = (
        "name", "category", "flops", "bytes", "shape", "dtype",
        "scope", "fused", "phase", "tunable", "tags",
    )

    name: str
    category: KernelCategory
    flops: float
    bytes: float
    shape: Tuple[int, ...]
    dtype: str
    scope: str
    fused: bool
    phase: str
    tunable: Optional[str]
    tags: Optional[Dict[str, object]]

    @property
    def scope_parts(self) -> Tuple[str, ...]:
        """The ``/``-joined scope split into components (empty tuple when
        the record ran outside any module scope, e.g. optimizer updates)."""
        return tuple(self.scope.split("/")) if self.scope else ()

    def scaled(self, work_fraction: float) -> "KernelRecord":
        """A copy with FLOPs/bytes scaled (used by the DAP partitioner)."""
        return KernelRecord(
            name=self.name,
            category=self.category,
            flops=self.flops * work_fraction,
            bytes=self.bytes * work_fraction,
            shape=self.shape,
            dtype=self.dtype,
            scope=self.scope,
            fused=self.fused,
            phase=self.phase,
            tunable=self.tunable,
            tags=dict(self.tags) if self.tags else None,
        )


@dataclass
class CategorySummary:
    """Aggregate over one kernel category."""

    calls: int = 0
    flops: float = 0.0
    bytes: float = 0.0


class Trace:
    """An ordered list of kernel launches plus scope bookkeeping."""

    def __init__(self, name: str = "trace") -> None:
        self.name = name
        self.records: List[KernelRecord] = []
        self._scope_stack: List[str] = []
        self._phase_stack: List[str] = ["forward"]

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def emit(
        self,
        name: str,
        category: KernelCategory,
        flops: float,
        bytes_moved: float,
        shape: Sequence[int],
        dtype: str,
        fused: bool = False,
        tunable: Optional[str] = None,
        tags: Optional[Dict[str, object]] = None,
    ) -> KernelRecord:
        flops = float(flops)
        bytes_moved = float(bytes_moved)
        if flops < 0 or bytes_moved < 0:
            raise ValueError(
                f"kernel {name!r}: flops and bytes must be non-negative, "
                f"got flops={flops}, bytes={bytes_moved}")
        record = KernelRecord(
            name=name,
            category=category,
            flops=flops,
            bytes=bytes_moved,
            shape=tuple(int(s) for s in shape),
            dtype=dtype,
            scope="/".join(self._scope_stack),
            fused=fused,
            phase=self._phase_stack[-1],
            tunable=tunable,
            tags=tags,
        )
        self.records.append(record)
        return record

    # ------------------------------------------------------------------
    # Scopes and phases
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def scope(self, name: str) -> Iterator[None]:
        """Push one module-path component.

        The scope string is ``/``-joined, so a component containing ``/``
        (or an empty one) would silently corrupt ``scope_parts`` and every
        prefix query downstream — rejected here instead.
        """
        if not name or "/" in name:
            raise ValueError(
                f"invalid scope component {name!r}: must be non-empty and "
                f"must not contain '/' (nest scope() calls instead)")
        self._scope_stack.append(name)
        try:
            yield
        finally:
            self._scope_stack.pop()

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Set the phase for records emitted in the block.

        Phases nest: the innermost active phase wins, and the outer phase
        is restored on exit — even on exception — so a backward pass that
        raises cannot leave the trace stuck in ``"backward"``.
        """
        if not name:
            raise ValueError("phase name must be non-empty")
        self._phase_stack.append(name)
        try:
            yield
        finally:
            self._phase_stack.pop()

    @property
    def current_scope(self) -> str:
        return "/".join(self._scope_stack)

    @property
    def current_phase(self) -> str:
        """The innermost active phase (``"forward"`` at rest)."""
        return self._phase_stack[-1]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[KernelRecord]:
        return iter(self.records)

    def filter(self, predicate: Callable[[KernelRecord], bool]) -> "Trace":
        out = Trace(name=f"{self.name}[filtered]")
        out.records = [r for r in self.records if predicate(r)]
        return out

    def in_scope(self, prefix: str) -> "Trace":
        """Records whose scope starts with ``prefix``."""
        return self.filter(lambda r: r.scope == prefix or r.scope.startswith(prefix + "/"))

    def by_category(self) -> Dict[KernelCategory, CategorySummary]:
        out: Dict[KernelCategory, CategorySummary] = {
            c: CategorySummary() for c in KernelCategory
        }
        for r in self.records:
            s = out[r.category]
            s.calls += 1
            s.flops += r.flops
            s.bytes += r.bytes
        return out

    def by_name(self) -> Dict[str, CategorySummary]:
        out: Dict[str, CategorySummary] = {}
        for r in self.records:
            s = out.setdefault(r.name, CategorySummary())
            s.calls += 1
            s.flops += r.flops
            s.bytes += r.bytes
        return out

    def unique_scopes(self) -> List[str]:
        """Sorted unique scope paths — the module tree this trace saw.

        Used by the chrome-trace exporter tests to check that the nested
        slices reproduce the module hierarchy exactly.
        """
        return sorted({r.scope for r in self.records})

    def phases(self) -> List[str]:
        """Phases in first-appearance order (``forward``/``backward``/...)."""
        seen: List[str] = []
        for r in self.records:
            if r.phase not in seen:
                seen.append(r.phase)
        return seen

    def total_flops(self) -> float:
        return sum(r.flops for r in self.records)

    def total_bytes(self) -> float:
        return sum(r.bytes for r in self.records)

    def extend(self, other: Iterable[KernelRecord]) -> None:
        """Append prebuilt records (e.g. from another :class:`Trace`).

        Validates every element up front and appends atomically: a bad
        element leaves the trace untouched instead of corrupting the cost
        model with a half-applied batch far from the call site.
        """
        incoming = list(other)
        for r in incoming:
            if not isinstance(r, KernelRecord):
                raise TypeError(
                    f"Trace.extend expects KernelRecord elements, got "
                    f"{type(r).__name__!r} (emit() builds records; extend() "
                    f"only transplants existing ones)")
        self.records.extend(incoming)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Trace({self.name!r}, {len(self.records)} kernels)"


# ----------------------------------------------------------------------
# Active-trace plumbing.  Thread-local so the (threaded) non-blocking data
# pipeline cannot corrupt a trace owned by the main thread.
# ----------------------------------------------------------------------
class _TracerState(threading.local):
    def __init__(self) -> None:
        self.stack: List[Trace] = []


_STATE = _TracerState()


def current_trace() -> Optional[Trace]:
    """The innermost active trace, or ``None`` when not tracing."""
    return _STATE.stack[-1] if _STATE.stack else None


@contextlib.contextmanager
def trace(name: str = "trace", into: Optional[Trace] = None) -> Iterator[Trace]:
    """Activate a trace for the duration of the block.

    Example::

        with trace("step") as t:
            loss = model(batch)
        print(len(t), "kernels launched")
    """
    t = into if into is not None else Trace(name)
    _STATE.stack.append(t)
    try:
        yield t
    finally:
        _STATE.stack.pop()


def emit(
    name: str,
    category: KernelCategory,
    flops: float,
    bytes_moved: float,
    shape: Sequence[int],
    dtype: str,
    fused: bool = False,
    tunable: Optional[str] = None,
    tags: Optional[Dict[str, object]] = None,
) -> Optional[KernelRecord]:
    """Emit a kernel record into the active trace (no-op when not tracing)."""
    t = current_trace()
    if t is None:
        return None
    return t.emit(name, category, flops, bytes_moved, shape, dtype,
                  fused=fused, tunable=tunable, tags=tags)


@contextlib.contextmanager
def scope(name: str) -> Iterator[None]:
    """Push a module scope onto the active trace (no-op when not tracing).

    Name validation applies either way, so an invalid component fails even
    in untraced runs rather than only once tracing is turned on.
    """
    if not name or "/" in name:
        raise ValueError(
            f"invalid scope component {name!r}: must be non-empty and "
            f"must not contain '/' (nest scope() calls instead)")
    t = current_trace()
    if t is None:
        yield
    else:
        with t.scope(name):
            yield


@contextlib.contextmanager
def phase(name: str) -> Iterator[None]:
    """Mark records as forward/backward/update for the active trace.

    Nested phases follow :meth:`Trace.phase` semantics: innermost wins,
    outer phase restored on exit.  Validation applies even when no trace
    is active.
    """
    if not name:
        raise ValueError("phase name must be non-empty")
    t = current_trace()
    if t is None:
        yield
    else:
        with t.phase(name):
            yield


@contextlib.contextmanager
def absolute_scope(path: str) -> Iterator[None]:
    """Temporarily replace the whole scope stack (backward attribution).

    During the backward pass, gradient kernels run outside the module
    ``__call__`` stack; autograd re-applies each node's creation scope so
    backward records attribute to the module that produced the forward op.
    """
    t = current_trace()
    if t is None:
        yield
        return
    saved = t._scope_stack
    t._scope_stack = path.split("/") if path else []
    try:
        yield
    finally:
        t._scope_stack = saved
