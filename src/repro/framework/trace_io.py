"""The persistent on-disk store of step traces and cost arrays.

Paper-scale traces are expensive to regenerate (~seconds of shape
propagation over 100k+ ops), so :class:`TraceCacheStore` keeps them, and
the numpy cost arrays priced from them, in a content-addressed directory.
CLI runs, examples and benchmark sessions started in a fresh process hit
the store and skip the meta-build entirely.  Location: ``$REPRO_CACHE_DIR``
(default ``~/.cache/repro``); set ``REPRO_TRACE_CACHE=0`` to disable.

Both entry kinds are ``<sha256>.npz`` files written by
:func:`numpy.savez_compressed`, with no pickled objects.  The SHA-256 is of
caller-provided key material, which differs between the kinds: a trace's
names the workload, policy and config, a cost entry's also the GPU and the
cost model.  A trace entry is columnar: one row per distinct record (the
golden 45k-record step trace has about 20k), an int32 index from trace
positions to rows, the caller's ``meta`` as one JSON string, and a
``format`` array holding :data:`TRACE_FORMAT_VERSION`.  The loader builds
one :class:`KernelRecord` per row and shares it across the positions that
use it, which is safe because records are immutable by convention (every
transform copies via :meth:`KernelRecord.scaled`).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .tracer import KernelCategory, KernelRecord, Trace

#: ``format[0]`` of a trace entry (1 and 2 were JSON-lines formats).  An
#: entry of another version is a miss whose file is removed.
TRACE_FORMAT_VERSION = 3

#: Cache location override / kill-switch environment variables.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
CACHE_DISABLE_ENV = "REPRO_TRACE_CACHE"

_CATEGORIES = tuple(KernelCategory)
_CATEGORY_CODE = {category: i for i, category in enumerate(_CATEGORIES)}

#: Record fields stored as int32 codes into a table of their distinct
#: values (-1 for None): the strings, tags by their JSON text, and shapes.
_STRING_FIELDS = ("name", "dtype", "scope", "phase", "tunable", "tags")
_CODED = _STRING_FIELDS + ("shape",)


def _coded(values: List[object]) -> Tuple[np.ndarray, List[object]]:
    """Codes of ``values`` into their distinct values (first-seen order)."""
    table: Dict[object, int] = {}
    codes = [-1 if v is None else table.setdefault(v, len(table))
             for v in values]
    return np.array(codes, dtype=np.int32), list(table)


def _encode_trace(trace: Trace, meta: Optional[dict]) -> Dict[str, np.ndarray]:
    """The columns of one trace entry."""
    # Positions often share one record object (a loaded trace, a templated
    # build), so each object is encoded once.
    slot_of: Dict[int, int] = {}
    objects: List[KernelRecord] = []
    slots: List[int] = []
    for record in trace.records:
        slot = slot_of.setdefault(id(record), len(objects))
        if slot == len(objects):
            objects.append(record)
        slots.append(slot)
    del slot_of
    columns = {
        "category": np.array([_CATEGORY_CODE[r.category] for r in objects],
                             dtype=np.int8),
        "flops": np.array([r.flops for r in objects], dtype=np.float64),
        "bytes": np.array([r.bytes for r in objects], dtype=np.float64),
        "fused": np.array([r.fused for r in objects], dtype=bool),
    }
    tables: Dict[str, List[object]] = {}
    for field in _CODED:
        values = [getattr(r, field) for r in objects]
        if field == "tags":
            values = [None if v is None else json.dumps(v) for v in values]
        columns[field], tables[field] = _coded(values)

    # One row per distinct record: the objects' columns compared as bytes,
    # so equal rows have equal float bits.
    keys = np.empty(len(objects), dtype=[(name, column.dtype) for name, column
                                         in columns.items()])
    for name, column in columns.items():
        keys[name] = column
    keys = keys.view(np.dtype((np.void, keys.itemsize)))
    _, first, inverse = np.unique(keys, return_index=True,
                                  return_inverse=True)
    del keys
    order = np.argsort(first)  # rows in first-seen order
    row_of = np.empty_like(order)
    row_of[order] = np.arange(order.size)
    arrays = {name: column[first[order]] for name, column in columns.items()}
    arrays["index"] = row_of[inverse][slots].astype(np.int32)
    for field in _STRING_FIELDS:
        arrays[f"{field}_table"] = np.array(tables[field], dtype=np.str_)
    shapes = tables["shape"]
    arrays["shape_ndim"] = np.array([len(s) for s in shapes], dtype=np.int64)
    arrays["shape_dims"] = np.array([d for s in shapes for d in s],
                                    dtype=np.int64)
    arrays["trace_name"] = np.array(trace.name, dtype=np.str_)
    arrays["meta"] = np.array(json.dumps(meta), dtype=np.str_)
    arrays["format"] = np.array([TRACE_FORMAT_VERSION], dtype=np.int64)
    return arrays


def _decode_trace(data) -> Tuple[Trace, Optional[dict]]:
    """A trace and its meta from the columns of :func:`_encode_trace`."""
    if int(data["format"][0]) != TRACE_FORMAT_VERSION:
        raise ValueError(f"trace entry format {data['format'][0]!r}")
    tables = {field: data[f"{field}_table"].tolist()
              for field in _STRING_FIELDS}
    dims = data["shape_dims"].tolist()
    ends = np.cumsum(data["shape_ndim"]).tolist()
    tables["shape"] = [tuple(dims[start:end])
                       for start, end in zip([0] + ends[:-1], ends)]
    fields = {}
    for field in _CODED:
        table = tables[field]
        fields[field] = [None if c < 0 else table[c]
                         for c in data[field].tolist()]
    rows = [KernelRecord(*values) for values in zip(
        fields["name"], [_CATEGORIES[c] for c in data["category"].tolist()],
        data["flops"].tolist(), data["bytes"].tolist(), fields["shape"],
        fields["dtype"], fields["scope"], data["fused"].tolist(),
        fields["phase"], fields["tunable"],
        [None if t is None else json.loads(t) for t in fields["tags"]])]
    trace = Trace(name=data["trace_name"].item())
    trace.records = [rows[i] for i in data["index"].tolist()]
    return trace, json.loads(data["meta"].item())


# ----------------------------------------------------------------------
# Content-addressed on-disk cache
# ----------------------------------------------------------------------
def default_cache_dir() -> str:
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def cache_enabled() -> bool:
    value = os.environ.get(CACHE_DISABLE_ENV, "1").strip().lower()
    return value not in ("0", "off", "false", "no", "")


def content_key(material: str) -> str:
    """SHA-256 digest of key material (a stable repr of cfg/policy keys)."""
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class TraceCacheStore:
    """Content-addressed directory of traces and numpy cost arrays.

    Entries are written atomically (temp file + rename) and read
    defensively: a corrupt or truncated entry counts as a miss and is
    removed.  All lookups are counted so ``repro trace cache`` and the
    bench harness can report hit rates.
    """

    def __init__(self, root: Optional[str] = None,
                 enabled: Optional[bool] = None) -> None:
        self.root = root or default_cache_dir()
        self.enabled = cache_enabled() if enabled is None else enabled
        self._lock = threading.Lock()
        #: Per-destination-path write locks (singleflight): entries are
        #: content-addressed, so when concurrent sweep workers race to
        #: publish the same key, one write suffices — the losers skip
        #: instead of re-staging an identical temp file, and ``writes``
        #: counts published entries, not redundant attempts.
        self._write_locks: Dict[str, threading.Lock] = {}
        self._counts = dict.fromkeys(("trace_hits", "trace_misses",
                                      "array_hits", "array_misses",
                                      "writes"), 0)

    def path(self, material: str) -> str:
        """The entry of ``material``, of either kind."""
        return os.path.join(self.root, f"{content_key(material)}.npz")

    def _count(self, counter: str) -> None:
        with self._lock:
            self._counts[counter] += 1

    def _write_lock(self, path: str) -> threading.Lock:
        with self._lock:
            lock = self._write_locks.get(path)
            if lock is None:
                lock = self._write_locks[path] = threading.Lock()
            return lock

    def _publish(self, material: str,
                 encode: Callable[[], Dict[str, np.ndarray]]) -> Optional[str]:
        """Write the entry ``encode()`` returns, atomically and once, no
        matter how many racers.

        Entries are content-addressed: every writer racing on a path is
        staging identical bytes, so the first publisher wins and the rest
        return the already-published path without encoding or counting a
        write.
        """
        if not self.enabled:
            return None
        path = self.path(material)
        with self._write_lock(path):
            if os.path.exists(path):
                return path
            try:
                os.makedirs(self.root, exist_ok=True)
                fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
                try:
                    with os.fdopen(fd, "wb") as handle:
                        np.savez_compressed(handle, **encode())
                    os.replace(tmp, path)
                finally:
                    if os.path.exists(tmp):
                        os.unlink(tmp)
            except OSError:
                return None  # unwritable cache dir: degrade to no caching
            self._count("writes")
        return path

    def _load(self, material: str, decode: Callable[[object], object],
              kind: str) -> object:
        """``decode`` of the entry of ``material``, or None.  A missing
        file is a miss; an unreadable entry, or one ``decode`` rejects by
        raising or returning None, is a miss whose file is removed, so
        that it is rebuilt."""
        if not self.enabled:
            return None
        path = self.path(material)
        try:
            with np.load(path, allow_pickle=False) as data:
                result = decode(data)
        except FileNotFoundError:
            self._count(f"{kind}_misses")
            return None
        except Exception:
            result = None
        if result is None:
            self._drop(path)
        self._count(f"{kind}_misses" if result is None else f"{kind}_hits")
        return result

    @staticmethod
    def _drop(path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    # ------------------------------------------------------------------
    # The two entry kinds
    # ------------------------------------------------------------------
    def get_trace(self, material: str) -> Optional[Tuple[Trace, Optional[dict]]]:
        return self._load(material, _decode_trace, "trace")

    def put_trace(self, material: str, trace: Trace,
                  meta: Optional[dict] = None) -> Optional[str]:
        return self._publish(material, lambda: _encode_trace(trace, meta))

    def get_arrays(self, material: str,
                   decode: Callable[[Dict[str, np.ndarray]], object]) -> object:
        """``decode`` of the arrays of the entry of ``material``, or None;
        a ``decode`` that returns None rejects the entry (a miss)."""
        return self._load(
            material, lambda data: decode({k: data[k] for k in data.files}),
            "array")

    def put_arrays(self, material: str,
                   arrays: Dict[str, np.ndarray]) -> Optional[str]:
        return self._publish(material, lambda: arrays)

    # ------------------------------------------------------------------
    # Introspection / maintenance
    # ------------------------------------------------------------------
    def entries(self) -> List[Tuple[str, int]]:
        """(filename, bytes) for every cache entry on disk."""
        try:
            names = sorted(os.listdir(self.root))
        except FileNotFoundError:
            return []
        out = []
        for name in names:
            if name.endswith(".npz"):
                try:
                    out.append((name, os.path.getsize(
                        os.path.join(self.root, name))))
                except OSError:
                    continue
        return out

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        removed = 0
        for name, _size in self.entries():
            self._drop(os.path.join(self.root, name))
            removed += 1
        return removed

    def stats(self) -> Dict[str, object]:
        entries = self.entries()
        with self._lock:  # counters snapshot atomically vs writers
            counters = dict(self._counts)
        return {
            "root": self.root,
            "enabled": self.enabled,
            "entries": len(entries),
            "bytes": sum(size for _name, size in entries),
            **counters,
        }


_DEFAULT_STORE: Optional[TraceCacheStore] = None
_DEFAULT_STORE_LOCK = threading.Lock()


def default_store() -> TraceCacheStore:
    """Process-wide cache store (env re-read on first use / after reset)."""
    global _DEFAULT_STORE
    with _DEFAULT_STORE_LOCK:
        if _DEFAULT_STORE is None:
            _DEFAULT_STORE = TraceCacheStore()
        return _DEFAULT_STORE


def reset_default_store() -> None:
    """Forget the process-wide store (tests repoint it via env vars)."""
    global _DEFAULT_STORE
    with _DEFAULT_STORE_LOCK:
        _DEFAULT_STORE = None
