"""Vectorized per-kernel costing: numpy cost arrays shared across scenarios.

Every simulated figure used to walk the kernel trace through
:meth:`CostModel.kernel_cost` once *per simulation* — ~150k Python calls
per scenario, repeated for every DAP degree, ladder rung and simulated
rank.  This module evaluates a trace's costs exactly once per ``(records,
gpu, autotune)`` key into flat numpy arrays (:class:`TraceCostArrays`) that
the batched step-time fast path, the serial/parallel splitter and the
profiler aggregate from without re-touching the cost model.

The arrays are decomposed by **knob sensitivity** so a scenario delta only
recomputes the segments the changed knob actually touches:

* :class:`TraceStructure` — everything that depends *only* on the record
  list (executable positions, flops/bytes, category/phase/dtype codes,
  default segment marks, tunable positions, the DAP shard mask, the COMM
  records' collectives and the trace's parameter count).  Extracting it is
  the single O(n) Python walk over ~150k records; callers keep it next to
  the records it came from (:mod:`repro.perf.scaling` stores it in the
  partition entry), so changing the GPU or the autotune flag never re-walks
  the records.
* the **cost segment** — ``seconds``/``limiter_codes``, the only arrays
  that read the :class:`CostModel`.  Re-costing an already-extracted
  structure for a different :class:`GpuSpec` is a handful of vectorized
  numpy expressions plus the (memoized) tunable scalar path.

Bit-exactness contract: ``arrays.seconds[k]`` equals
``cost_model.kernel_cost(record).seconds`` for the k-th executable record,
to the last bit.  Generic kernels go through
:meth:`CostModel.generic_cost_arrays` (same IEEE operations in the same
order); tunable kernels are evaluated through the real scalar path once per
unique ``(family, shape, dtype, flops, bytes)`` signature and scattered
back (the autotuner is deterministic, so deduplication cannot change a
value).

When the caller provides key material, arrays are cached under it in a
bounded LRU and persisted to the content-addressed on-disk store, so fresh
processes skip the evaluation entirely.  Persisted entries carry the whole
structure too (format v3), so a hit holds everything a fast step estimate
reads from the records: the caller passes the records as a callable that
only a miss calls, and a hit builds no records at all.  A disk hit for one
GPU also yields the structure every other GPU is re-costed from.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..distributed.collectives import Collective, CommEvent
from ..distributed.dap import is_shardable
from ..framework.caching import LruCache, register_cache
from ..framework.tracer import KernelCategory, KernelRecord
from ..framework.trace_io import default_store
from ..hardware.roofline import (COST_MODEL_VERSION, LIMITERS, CostModel,
                                 _math_dtype)

#: Bump when the array layout changes (invalidates persisted entries), and
#: when a change to ``partition_step``, a workload's ``dap_comm_bundles`` or
#: ``apply_torch_compile`` changes the records an entry was built from: a
#: hit trusts the entry without the records behind it.
#: v2 added the structure arrays (flops/bytes/dtype codes/tunables) so a
#: disk hit carries the GPU-independent structure too; v3 added the shard
#: mask, the COMM records' collectives and ``n_params``, everything a fast
#: step estimate reads, and compresses the entry.
ARRAYS_FORMAT_VERSION = 3

#: Stable category encoding (enum definition order).
CATEGORY_ORDER: Tuple[KernelCategory, ...] = tuple(KernelCategory)
_CATEGORY_CODE = {cat: i for i, cat in enumerate(CATEGORY_ORDER)}
_MATH_CODE = _CATEGORY_CODE[KernelCategory.MATH]
_MEMOP_CODE = _CATEGORY_CODE[KernelCategory.MEMORY_OP]
#: Stable collective encoding (enum definition order).
COLLECTIVE_ORDER: Tuple[Collective, ...] = tuple(Collective)
_COLLECTIVE_CODE = {c: i for i, c in enumerate(COLLECTIVE_ORDER)}


def _executable(record: KernelRecord) -> bool:
    """Whether a record runs on the single-rank compute stream."""
    if record.category is KernelCategory.COMM:
        return False  # collectives are costed by the distributed layer
    if record.tags and record.tags.get("hidden_by_comm"):
        # Work overlapped with communication: off the single-rank
        # critical path (the distributed model checks it still fits).
        return False
    return True


@dataclass
class TraceStructure:
    """GPU-independent per-kernel data for one record list.

    Everything here is a pure function of the (partitioned, compiled)
    record sequence, the workload's shardable scopes and the trace's
    parameter count: no field reads a :class:`GpuSpec`, a
    :class:`CostModel` or the autotuner, so one structure is shared by
    every GPU/autotune costing of the same records.
    """

    n_records: int
    exec_idx: np.ndarray           # int64[m]: positions in the record list
    flops: np.ndarray              # float64[m]
    bytes_moved: np.ndarray        # float64[m]
    category_codes: np.ndarray     # int8[m]: index into CATEGORY_ORDER
    phase_codes: np.ndarray        # int32[m]: index into phase_names
    phase_names: Tuple[str, ...]
    dtype_codes: np.ndarray        # int32[m]: index into dtype_names
    dtype_names: Tuple[str, ...]   # unique record dtypes, first-seen order
    #: Indices (into the executable arrays) of tunable kernels, which must
    #: go through the real scalar autotune path.
    tunable_positions: np.ndarray  # int64[t]
    #: Default segment-mark positions over the *full* record list: every
    #: COMM record and every phase boundary (may contain duplicates,
    #: simulate_step dedups).
    default_marks: np.ndarray
    #: bool[m]: does the kernel sit in a DAP-shardable scope?  Splits the
    #: device time into serial and parallel parts.
    shardable: np.ndarray
    #: Positions of the COMM records in the full record list, each one's
    #: phase, and the collectives it launches (its ``tags["dap_bundle"]``).
    comm_positions: np.ndarray     # int64[c]
    comm_phases: Tuple[str, ...]
    comm_events: Tuple[Tuple[CommEvent, ...], ...]
    #: Parameter count of the step trace the records came from (it sizes
    #: the DDP gradient buckets).
    n_params: int

    @property
    def m(self) -> int:
        return int(self.exec_idx.shape[0])


@dataclass
class TraceCostArrays:
    """Flat per-kernel cost data for one (record list, GPU, policy) key.

    The per-kernel arrays run over the *executable* subsequence (COMM and
    comm-hidden records excluded), in trace order, aligned with the
    GPU-independent :attr:`structure` they were costed from (its
    ``exec_idx`` maps each executable kernel back to its position in the
    full record list).  Only ``seconds``/``sec_cumsum``/``limiter_codes``
    are GPU-specific.
    """

    structure: TraceStructure
    seconds: np.ndarray            # float64[m]: device time per kernel
    limiter_codes: np.ndarray      # int8[m]: index into LIMITERS
    sec_cumsum: np.ndarray = field(init=False)  # float64[m]: running sum

    # Aggregates identical to what the event engine accumulates kernel by
    # kernel (np.bincount adds weights sequentially in input order).
    category_seconds: Dict[str, float] = field(default_factory=dict)
    category_calls: Dict[str, int] = field(default_factory=dict)
    limiter_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def m(self) -> int:
        """Number of executable kernels."""
        return int(self.seconds.shape[0])

    def __post_init__(self) -> None:
        self.sec_cumsum = np.cumsum(self.seconds)
        if not self.category_seconds and self.m:
            self._build_aggregates()

    def _build_aggregates(self) -> None:
        category_codes = self.structure.category_codes
        cat_sec = np.bincount(category_codes, weights=self.seconds,
                              minlength=len(CATEGORY_ORDER))
        cat_calls = np.bincount(category_codes,
                                minlength=len(CATEGORY_ORDER))
        lim_sec = np.bincount(self.limiter_codes, weights=self.seconds,
                              minlength=len(LIMITERS))
        lim_calls = np.bincount(self.limiter_codes, minlength=len(LIMITERS))
        for i, cat in enumerate(CATEGORY_ORDER):
            if cat_calls[i]:
                self.category_seconds[cat.value] = float(cat_sec[i])
                self.category_calls[cat.value] = int(cat_calls[i])
        for i, name in enumerate(LIMITERS):
            if lim_calls[i]:
                self.limiter_seconds[name] = float(lim_sec[i])

    def phase_seconds(self) -> Dict[str, float]:
        """Device-busy seconds per phase (forward/backward/update).

        Same sequential bincount discipline as the category aggregates, so
        the per-phase split sums to ``seconds.sum()`` exactly.  The serving
        layer prices an inference request from the ``forward`` entry.
        """
        if not self.m:
            return {}
        names = self.structure.phase_names
        sec = np.bincount(self.structure.phase_codes, weights=self.seconds,
                          minlength=len(names))
        return {name: float(sec[i]) for i, name in enumerate(names)}

    # ------------------------------------------------------------------
    # Persistence (numpy-only payload; no pickled objects)
    # ------------------------------------------------------------------
    def to_arrays(self) -> Dict[str, np.ndarray]:
        s = self.structure
        events = [ev for bundle in s.comm_events for ev in bundle]
        return {
            "format": np.array([ARRAYS_FORMAT_VERSION, s.n_records,
                                s.n_params], dtype=np.int64),
            "exec_idx": s.exec_idx,
            "seconds": self.seconds,
            "phase_codes": s.phase_codes,
            "phase_names": np.array(s.phase_names, dtype=np.str_),
            "category_codes": s.category_codes,
            "limiter_codes": self.limiter_codes,
            "default_marks": s.default_marks,
            "flops": s.flops,
            "bytes_moved": s.bytes_moved,
            "dtype_codes": s.dtype_codes,
            "dtype_names": np.array(s.dtype_names, dtype=np.str_),
            "tunable_positions": s.tunable_positions,
            "shardable": np.packbits(s.shardable),
            "comm_positions": s.comm_positions,
            "comm_phases": np.array(s.comm_phases, dtype=np.str_),
            "comm_event_counts": np.array(
                [len(bundle) for bundle in s.comm_events], dtype=np.int64),
            "comm_collectives": np.array(
                [_COLLECTIVE_CODE[ev.collective] for ev in events],
                dtype=np.int8),
            "comm_bytes": np.array([ev.payload_bytes for ev in events],
                                   dtype=np.float64),
            "comm_groups": np.array([ev.group_size for ev in events],
                                    dtype=np.int64),
        }

    @classmethod
    def from_arrays(cls, data: Dict[str, np.ndarray]
                    ) -> Optional["TraceCostArrays"]:
        header = data.get("format")
        if header is None or int(header[0]) != ARRAYS_FORMAT_VERSION:
            return None
        m = int(data["exec_idx"].shape[0])
        events = [CommEvent(COLLECTIVE_ORDER[code], payload, group)
                  for code, payload, group in zip(
                      data["comm_collectives"].tolist(),
                      data["comm_bytes"].tolist(),
                      data["comm_groups"].tolist())]
        ends = np.cumsum(data["comm_event_counts"]).tolist()
        structure = TraceStructure(
            n_records=int(header[1]),
            exec_idx=data["exec_idx"].astype(np.int64, copy=False),
            flops=data["flops"].astype(np.float64, copy=False),
            bytes_moved=data["bytes_moved"].astype(np.float64, copy=False),
            category_codes=data["category_codes"].astype(np.int8,
                                                         copy=False),
            phase_codes=data["phase_codes"].astype(np.int32, copy=False),
            phase_names=tuple(str(p) for p in data["phase_names"]),
            dtype_codes=data["dtype_codes"].astype(np.int32, copy=False),
            dtype_names=tuple(str(d) for d in data["dtype_names"]),
            tunable_positions=data["tunable_positions"].astype(
                np.int64, copy=False),
            default_marks=data["default_marks"].astype(np.int64, copy=False),
            shardable=np.unpackbits(data["shardable"], count=m).astype(bool),
            comm_positions=data["comm_positions"].astype(np.int64,
                                                         copy=False),
            comm_phases=tuple(str(p) for p in data["comm_phases"]),
            comm_events=tuple(tuple(events[start:end]) for start, end
                              in zip([0] + ends[:-1], ends)),
            n_params=int(header[2]),
        )
        return cls(
            structure=structure,
            seconds=np.ascontiguousarray(data["seconds"], dtype=np.float64),
            limiter_codes=data["limiter_codes"].astype(np.int8, copy=False),
        )


# ----------------------------------------------------------------------
# Build counters: recording-cache instrumentation for the incremental
# re-simulation contract ("untouched segments are not recomputed").
# ----------------------------------------------------------------------
_COUNTERS = {"structure_builds": 0, "cost_builds": 0}
# Any thread may hit the build paths; the += below is a read-modify-write,
# so the counters need a real lock, not the GIL.
_COUNTERS_LOCK = threading.Lock()


def build_counters() -> Dict[str, int]:
    """How many times each expensive segment was actually recomputed."""
    with _COUNTERS_LOCK:
        return dict(_COUNTERS)


def reset_build_counters() -> None:
    with _COUNTERS_LOCK:
        for key in _COUNTERS:
            _COUNTERS[key] = 0


# ----------------------------------------------------------------------
# Structure extraction: the single O(n) Python walk over the records
# ----------------------------------------------------------------------
def extract_structure(records: Sequence[KernelRecord],
                      shard_scopes: Tuple[str, ...] = (),
                      n_params: int = 0) -> TraceStructure:
    """Walk ``records`` once into the GPU-independent structure arrays.

    ``shard_scopes`` are the scope prefixes DAP shards (the workload's
    ``shardable_scopes``; none by default) and ``n_params`` the parameter
    count of the trace the records came from.
    """
    with _COUNTERS_LOCK:
        _COUNTERS["structure_builds"] += 1
    n = len(records)
    exec_idx: List[int] = []
    flops: List[float] = []
    bytes_moved: List[float] = []
    cat_codes: List[int] = []
    phase_codes: List[int] = []
    phase_names: List[str] = []
    phase_code_of: Dict[str, int] = {}
    dtype_codes: List[int] = []
    dtype_names: List[str] = []
    dtype_code_of: Dict[str, int] = {}
    tunable_positions: List[int] = []  # indices into the executable arrays
    shardable: List[bool] = []
    marks: List[int] = []
    comm_positions: List[int] = []
    comm_phases: List[str] = []
    comm_events: List[Tuple[CommEvent, ...]] = []
    last_phase: Optional[str] = None

    for i, r in enumerate(records):
        if r.category is KernelCategory.COMM:
            marks.append(i)
            comm_positions.append(i)
            comm_phases.append(r.phase)
            comm_events.append(tuple((r.tags or {}).get("dap_bundle", ())))
        if i and r.phase != last_phase:
            marks.append(i)
        last_phase = r.phase
        if not _executable(r):
            continue
        exec_idx.append(i)
        flops.append(r.flops)
        bytes_moved.append(r.bytes)
        cat_codes.append(_CATEGORY_CODE[r.category])
        code = phase_code_of.get(r.phase)
        if code is None:
            code = phase_code_of[r.phase] = len(phase_names)
            phase_names.append(r.phase)
        phase_codes.append(code)
        dcode = dtype_code_of.get(r.dtype)
        if dcode is None:
            dcode = dtype_code_of[r.dtype] = len(dtype_names)
            dtype_names.append(r.dtype)
        dtype_codes.append(dcode)
        if r.tunable is not None:
            tunable_positions.append(len(exec_idx) - 1)
        shardable.append(is_shardable(r, shard_scopes))

    return TraceStructure(
        n_records=n,
        exec_idx=np.asarray(exec_idx, dtype=np.int64),
        flops=np.asarray(flops, dtype=np.float64),
        bytes_moved=np.asarray(bytes_moved, dtype=np.float64),
        category_codes=np.asarray(cat_codes, dtype=np.int8),
        phase_codes=np.asarray(phase_codes, dtype=np.int32),
        phase_names=tuple(phase_names),
        dtype_codes=np.asarray(dtype_codes, dtype=np.int32),
        dtype_names=tuple(dtype_names),
        tunable_positions=np.asarray(tunable_positions, dtype=np.int64),
        default_marks=np.asarray(marks, dtype=np.int64),
        shardable=np.asarray(shardable, dtype=bool),
        comm_positions=np.asarray(comm_positions, dtype=np.int64),
        comm_phases=tuple(comm_phases),
        comm_events=tuple(comm_events),
        n_params=n_params,
    )


# ----------------------------------------------------------------------
# Costing: the only segment that reads the cost model / GpuSpec
# ----------------------------------------------------------------------
def cost_structure(structure: TraceStructure,
                   records: Sequence[KernelRecord],
                   cost_model: CostModel) -> TraceCostArrays:
    """Evaluate one structure's per-kernel costs under ``cost_model``.

    ``records`` is only consulted for the tunable subset (the real scalar
    autotune path needs the actual :class:`KernelRecord`); the generic
    costing runs entirely off the structure arrays.
    """
    with _COUNTERS_LOCK:
        _COUNTERS["cost_builds"] += 1
    m = structure.m
    if m:
        # Per-record peak FLOP/s resolved per unique dtype (tiny set),
        # gathered through the structure's dtype codes — bit-identical to
        # the per-record memoized lookup (same float64 per dtype).
        peaks = np.empty(len(structure.dtype_names), dtype=np.float64)
        for d, name in enumerate(structure.dtype_names):
            peaks[d] = cost_model.gpu.peak_flops(_math_dtype(name))
        dtype_peaks = peaks[structure.dtype_codes]
        seconds, limiters = cost_model.generic_cost_arrays(
            structure.flops, structure.bytes_moved,
            structure.category_codes.astype(np.int64),
            _MATH_CODE, _MEMOP_CODE, dtype_peaks)
    else:
        seconds = np.zeros(0, dtype=np.float64)
        limiters = np.zeros(0, dtype=np.int8)

    # Tunable kernels: real scalar path, memoized per unique signature.
    if structure.tunable_positions.size:
        lim_code = {name: i for i, name in enumerate(LIMITERS)}
        memo: Dict[Tuple, Tuple[float, int]] = {}
        exec_idx = structure.exec_idx
        for k in structure.tunable_positions.tolist():
            r = records[int(exec_idx[k])]
            key = (r.tunable, r.shape, r.dtype, r.flops, r.bytes,
                   r.category)
            hit = memo.get(key)
            if hit is None:
                cost = cost_model.kernel_cost(r)
                hit = memo[key] = (cost.seconds, lim_code[cost.limiter])
            seconds[k] = hit[0]
            limiters[k] = hit[1]

    return TraceCostArrays(structure=structure, seconds=seconds,
                           limiter_codes=limiters)


def compute_cost_arrays(records: Sequence[KernelRecord],
                        cost_model: CostModel,
                        structure: Optional[TraceStructure] = None
                        ) -> TraceCostArrays:
    """Evaluate every executable kernel's cost into flat arrays (uncached).

    Pass a previously-extracted ``structure`` to skip the O(n) record walk
    (e.g. when only the GPU changed).
    """
    if structure is None:
        structure = extract_structure(records)
    return cost_structure(structure, records, cost_model)


# ----------------------------------------------------------------------
# Caching front end
# ----------------------------------------------------------------------
#: Cost arrays are keyed by their store material: (partitioned-trace
#: identity, full GPU spec, autotune).  The optimizer's knob search revisits
#: dozens of (policy, DAP, compile, GPU) combinations in one process, so the
#: cap is sized for a joint sweep, not a single ladder (96 entries x ~2 MB
#: of float64 per full trace).
_ARRAY_CACHE = register_cache(LruCache(capacity=96, name="cost-arrays"))


def cost_cache_material(trace_material: str, gpu, autotune: bool) -> str:
    """Key material for one cost-array entry: the trace identity plus
    everything the cost model reads (full GPU spec, autotune flag, model
    and layout versions)."""
    return repr(("cost-arrays", ARRAYS_FORMAT_VERSION, COST_MODEL_VERSION,
                 trace_material, gpu.signature(), autotune))


def trace_cost_arrays(records: Union[Sequence[KernelRecord],
                                      Callable[[], Sequence[KernelRecord]]],
                      cost_model: CostModel,
                      store_material: Optional[str] = None,
                      structure: Union[None, TraceStructure,
                                       Callable[[], TraceStructure]] = None
                      ) -> TraceCostArrays:
    """Cost arrays for ``records``, cached in memory and on disk.

    ``store_material`` (from :func:`cost_cache_material`, which covers every
    :class:`GpuSpec` field) keys both the in-memory LRU and the persistent
    store, so re-registering a GPU name with another spec can never serve
    stale costs.  Passing the records' already-extracted ``structure``
    turns a miss that only changed the GPU into a re-costing instead of a
    re-walk of the records.  Callers that cannot produce a stable identity
    (ad hoc record lists) pass no material and pay one evaluation.

    With ``store_material``, ``records`` and ``structure`` may each be a
    zero-argument callable instead, called only when neither the LRU nor
    the store holds the entry, so a hit builds no records.  A cached or
    stored entry is checked against the record count only when the
    records are given as a list; a stored entry that fails that check or
    is of another format version is removed and rebuilt.
    """
    if store_material is None:
        return compute_cost_arrays(records, cost_model, structure=structure)
    n_records = None if callable(records) else len(records)
    cached = _ARRAY_CACHE.get(store_material)
    if cached is not None and n_records in (None,
                                            cached.structure.n_records):
        return cached

    store = default_store()
    arrays: Optional[TraceCostArrays] = None
    payload = store.get_arrays(store_material)
    if payload is not None:
        arrays = TraceCostArrays.from_arrays(payload)
        if arrays is None or n_records not in (None,
                                               arrays.structure.n_records):
            arrays = None  # other format, or different-shaped records
            store.drop_arrays(store_material)
    fresh = arrays is None
    if fresh:
        arrays = compute_cost_arrays(_called(records), cost_model,
                                     structure=_called(structure))
    _ARRAY_CACHE.put(store_material, arrays)
    if fresh:
        store.put_arrays(store_material, arrays.to_arrays())
    return arrays


def _called(value):
    """``value()`` for a callable, else ``value`` itself."""
    return value() if callable(value) else value


def clear_cost_cache() -> None:
    _ARRAY_CACHE.clear()
