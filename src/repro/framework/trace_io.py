"""Trace serialization and the persistent on-disk trace/cost cache.

Paper-scale traces are expensive to regenerate (~seconds of shape
propagation over 100k+ ops); serializing them lets analyses run offline,
diffs be archived next to results, and external tooling consume them.

Two layers live here:

* **Flat format** (:func:`dump_trace` / :func:`load_trace`): JSON-lines,
  gzip-compressed for ``.gz`` paths.  Format v2 deduplicates identical
  kernel records — a 157k-kernel step trace has only a few thousand
  distinct (name, flops, bytes, shape, scope, ...) rows, so v2 files are
  much smaller and load much faster (the loader *shares* one
  :class:`KernelRecord` object across identical positions, which is safe
  because records are immutable by convention — every transform in the
  codebase copies via :meth:`KernelRecord.scaled`).  v1 files still load.
* **Content-addressed cache** (:class:`TraceCacheStore`): a directory of
  traces and numpy cost arrays keyed by the SHA-256 of caller-provided key
  material (the trace builder uses its ``_cfg_key``/``_policy_key``
  signature).  CLI runs, examples and benchmark sessions started in a fresh
  process hit the disk cache and skip the meta-build entirely.  Location:
  ``$REPRO_CACHE_DIR`` (default ``~/.cache/repro``); set
  ``REPRO_TRACE_CACHE=0`` to disable.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
import os
import tempfile
import threading
from typing import IO, Dict, List, Optional, Tuple, Union

import numpy as np

from .tracer import KernelCategory, KernelRecord, Trace

#: v1 = one JSON object per record; v2 = deduplicated rows + index array.
FORMAT_VERSION = 2

#: Cache location override / kill-switch environment variables.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
CACHE_DISABLE_ENV = "REPRO_TRACE_CACHE"

_GZIP_LEVEL = 5


def _record_to_dict(record: KernelRecord) -> dict:
    return {
        "name": record.name,
        "category": record.category.name,
        "flops": record.flops,
        "bytes": record.bytes,
        "shape": list(record.shape),
        "dtype": record.dtype,
        "scope": record.scope,
        "fused": record.fused,
        "phase": record.phase,
        "tunable": record.tunable,
        "tags": record.tags,
    }


def _record_from_dict(data: dict) -> KernelRecord:
    return KernelRecord(
        name=data["name"],
        category=KernelCategory[data["category"]],
        flops=float(data["flops"]),
        bytes=float(data["bytes"]),
        shape=tuple(int(s) for s in data["shape"]),
        dtype=data["dtype"],
        scope=data["scope"],
        fused=bool(data["fused"]),
        phase=data["phase"],
        tunable=data.get("tunable"),
        tags=data.get("tags"),
    )


def _unique_rows(records: List[KernelRecord]) -> Tuple[List[str], List[int]]:
    """The distinct record lines in first-seen order, and each position's
    row.  Positions often share one record object (a loaded trace, a
    templated build), so each object is serialized once; the lookup
    tables are freed before the caller writes the rows."""
    rows: List[str] = []
    row_of: Dict[str, int] = {}
    slot_of: Dict[int, int] = {}
    index: List[int] = []
    for record in records:
        slot = slot_of.get(id(record))
        if slot is None:
            line = json.dumps(_record_to_dict(record))
            slot = row_of.get(line)
            if slot is None:
                slot = row_of[line] = len(rows)
                rows.append(line)
            slot_of[id(record)] = slot
        index.append(slot)
    return rows, index


def dump_trace(trace: Trace, target: Union[str, IO[str]],
               meta: Optional[dict] = None) -> None:
    """Write a trace as JSON lines; ``.gz`` paths are gzip-compressed.

    First line is a header (format version, trace name, record count, and
    any caller ``meta``); then one line per *unique* record, then one line
    holding the index array mapping trace positions to unique rows.
    """
    own = isinstance(target, str)
    if own:
        handle: IO[str] = (gzip.open(target, "wt", compresslevel=_GZIP_LEVEL)
                           if target.endswith(".gz") else open(target, "w"))
    else:
        handle = target
    try:
        rows, index = _unique_rows(trace.records)
        header = {"version": FORMAT_VERSION, "name": trace.name,
                  "records": len(trace.records), "rows": len(rows)}
        if meta is not None:
            header["meta"] = meta
        handle.write(json.dumps(header) + "\n")
        for line in rows:
            handle.write(line + "\n")
        handle.write(json.dumps(index) + "\n")
    finally:
        if own:
            handle.close()


def load_trace_with_meta(source: Union[str, IO[str]]
                         ) -> Tuple[Trace, Optional[dict]]:
    """Load a trace written by :func:`dump_trace`, plus its header meta."""
    own = isinstance(source, str)
    if own:
        handle: IO[str] = (gzip.open(source, "rt")
                           if source.endswith(".gz") else open(source))
    else:
        handle = source
    try:
        header = json.loads(handle.readline())
        version = header.get("version")
        trace = Trace(name=header.get("name", "trace"))
        if version == 1:
            for line in handle:
                line = line.strip()
                if line:
                    trace.records.append(_record_from_dict(json.loads(line)))
        elif version == FORMAT_VERSION:
            n_rows = int(header["rows"])
            try:
                rows = [_record_from_dict(json.loads(handle.readline()))
                        for _ in range(n_rows)]
                index = json.loads(handle.readline())
            except json.JSONDecodeError as exc:
                raise ValueError(
                    "truncated trace: unique-record rows or index line "
                    "missing") from exc
            # Identical positions share one immutable record object.
            trace.records = [rows[i] for i in index]
        else:
            raise ValueError(f"unsupported trace format version {version!r}")
        if len(trace.records) != header.get("records", len(trace.records)):
            raise ValueError(
                f"truncated trace: header promised {header['records']} "
                f"records, found {len(trace.records)}")
        return trace, header.get("meta")
    finally:
        if own:
            handle.close()


def load_trace(source: Union[str, IO[str]]) -> Trace:
    """Load a trace written by :func:`dump_trace` (meta discarded)."""
    return load_trace_with_meta(source)[0]


def trace_to_string(trace: Trace) -> str:
    buf = io.StringIO()
    dump_trace(trace, buf)
    return buf.getvalue()


def trace_from_string(text: str) -> Trace:
    return load_trace(io.StringIO(text))


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
        self.trace_hits = 0
        self.trace_misses = 0
        self.array_hits = 0
        self.array_misses = 0
        self.writes = 0

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def trace_path(self, material: str) -> str:
        return os.path.join(self.root, f"{content_key(material)}.trace.gz")

    def arrays_path(self, material: str) -> str:
        return os.path.join(self.root, f"{content_key(material)}.npz")

    def _atomic_write(self, path: str, writer) -> None:
        os.makedirs(self.root, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        os.close(fd)
        try:
            writer(tmp)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    def _write_lock(self, path: str) -> threading.Lock:
        with self._lock:
            lock = self._write_locks.get(path)
            if lock is None:
                lock = self._write_locks[path] = threading.Lock()
            return lock

    def _publish(self, path: str, writer) -> Optional[str]:
        """Write ``path`` atomically, once, no matter how many racers.

        Entries are content-addressed: every writer racing on a path is
        staging identical bytes, so the first publisher wins and the rest
        return the already-published path without counting a write.
        """
        with self._write_lock(path):
            if os.path.exists(path):
                return path
            try:
                self._atomic_write(path, writer)
            except OSError:
                return None  # unwritable cache dir: degrade to no caching
            with self._lock:
                self.writes += 1
        return path

    @staticmethod
    def _drop(path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Traces
    # ------------------------------------------------------------------
    def get_trace(self, material: str) -> Optional[Tuple[Trace, Optional[dict]]]:
        if not self.enabled:
            return None
        path = self.trace_path(material)
        try:
            with gzip.open(path, "rt") as handle:
                result = load_trace_with_meta(handle)
        except FileNotFoundError:
            with self._lock:
                self.trace_misses += 1
            return None
        except Exception:
            # Corrupt / truncated / incompatible entry: rebuild it.
            self._drop(path)
            with self._lock:
                self.trace_misses += 1
            return None
        with self._lock:
            self.trace_hits += 1
        return result

    def put_trace(self, material: str, trace: Trace,
                  meta: Optional[dict] = None) -> Optional[str]:
        if not self.enabled:
            return None
        path = self.trace_path(material)

        def writer(tmp: str) -> None:
            with gzip.open(tmp, "wt", compresslevel=_GZIP_LEVEL) as handle:
                dump_trace(trace, handle, meta=meta)

        return self._publish(path, writer)

    # ------------------------------------------------------------------
    # Numpy arrays (vectorized per-kernel costs)
    # ------------------------------------------------------------------
    def get_arrays(self, material: str) -> Optional[Dict[str, np.ndarray]]:
        if not self.enabled:
            return None
        path = self.arrays_path(material)
        try:
            with np.load(path, allow_pickle=False) as data:
                result = {k: data[k] for k in data.files}
        except FileNotFoundError:
            with self._lock:
                self.array_misses += 1
            return None
        except Exception:
            self._drop(path)
            with self._lock:
                self.array_misses += 1
            return None
        with self._lock:
            self.array_hits += 1
        return result

    def put_arrays(self, material: str,
                   arrays: Dict[str, np.ndarray]) -> Optional[str]:
        if not self.enabled:
            return None
        path = self.arrays_path(material)

        def writer(tmp: str) -> None:
            with open(tmp, "wb") as handle:
                np.savez_compressed(handle, **arrays)

        return self._publish(path, writer)

    def drop_arrays(self, material: str) -> None:
        """Remove an array entry its reader rejected, so it is rebuilt."""
        if self.enabled:
            self._drop(self.arrays_path(material))

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
            if name.endswith((".trace.gz", ".npz")):
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
            counters = {
                "trace_hits": self.trace_hits,
                "trace_misses": self.trace_misses,
                "array_hits": self.array_hits,
                "array_misses": self.array_misses,
                "writes": self.writes,
            }
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
