"""Bounded, instrumented in-memory caches.

Long sweep sessions (the optimization ladder, scenario grids, the optimizer's
knob search) used to grow the module-level memo dicts without bound: every
``(scenario)`` key kept its full :class:`StepEstimate`, every ``(policy,
config)`` key kept a ~150k-record trace.  :class:`LruCache` is the shared
replacement: a thread-safe least-recently-used mapping with a capacity cap
and hit/miss/eviction counters, so cache behaviour is observable (``repro
trace cache``, ``repro bench``) instead of implicit.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Iterator, Optional, Tuple


@dataclass
class CacheStats:
    """Counters for one cache (a point-in-time copy, safe to keep)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    capacity: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits, "misses": self.misses,
            "evictions": self.evictions, "size": self.size,
            "capacity": self.capacity, "hit_rate": self.hit_rate,
        }


class LruCache:
    """Thread-safe LRU mapping with a hard capacity cap and counters.

    ``get`` refreshes recency; when ``put`` grows the cache past
    ``capacity`` the least-recently-used entry is dropped.  A ``capacity``
    of ``0`` disables storage entirely (every lookup is a miss) — useful
    for turning a cache off in tests without changing call sites.
    """

    def __init__(self, capacity: int = 128, name: str = "") -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.name = name
        self.capacity = capacity
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------
    # Mapping operations
    # ------------------------------------------------------------------
    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self._misses += 1
                return default
            self._data.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            if self.capacity == 0:
                return
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self._evictions += 1

    def get_or_create(self, key: Hashable, factory: Callable[[], Any]) -> Any:
        """``get`` falling back to ``factory()`` (stored under ``key``).

        The factory runs outside the lock, so concurrent misses on the same
        key may both build; the value must therefore be deterministic (true
        for every cache in this codebase — traces, cost arrays, estimates).
        """
        sentinel = object()
        value = self.get(key, sentinel)
        if value is not sentinel:
            return value
        value = factory()
        self.put(key, value)
        return value

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __iter__(self) -> Iterator[Hashable]:
        with self._lock:
            return iter(list(self._data))

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def reset_stats(self) -> None:
        with self._lock:
            self._hits = self._misses = self._evictions = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(hits=self._hits, misses=self._misses,
                              evictions=self._evictions,
                              size=len(self._data), capacity=self.capacity)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats
        return (f"LruCache({self.name!r}, {s.size}/{s.capacity}, "
                f"hits={s.hits}, misses={s.misses})")


_REGISTRY: Dict[str, LruCache] = {}
_REGISTRY_LOCK = threading.Lock()
_ANON_COUNT = 0


def register_cache(cache: LruCache) -> LruCache:
    """Track a cache in the process-wide registry (for stats reporting).

    Unnamed caches get a registration-order name (``cache-0``, ``cache-1``,
    ...) under the registry lock: ``id()``-based names made registry
    reports differ between otherwise identical runs, and the bare counter
    read-modify-write would race without the lock.
    """
    global _ANON_COUNT
    with _REGISTRY_LOCK:
        name = cache.name
        if not name:
            name = f"cache-{_ANON_COUNT}"
            _ANON_COUNT += 1
        _REGISTRY[name] = cache
    return cache


def cache_registry() -> Dict[str, CacheStats]:
    """Stats for every registered cache, keyed by name."""
    with _REGISTRY_LOCK:
        return {name: cache.stats for name, cache in _REGISTRY.items()}


def reset_registry_stats() -> None:
    """Zero every registered cache's counters (contents stay cached).

    Measurement sessions (``repro bench``'s hit-rate gates, the optimizer's
    incremental-path instrumentation) call this first so rates reflect the
    session, not whatever the process did before it.
    """
    with _REGISTRY_LOCK:
        caches = list(_REGISTRY.values())
    for cache in caches:
        cache.reset_stats()
