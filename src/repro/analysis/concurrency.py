"""Dynamic concurrency detector: real threads, real locks, real races.

PR 4's analyzers audit the *simulated* world; this module audits the real
threaded runtime that has grown around it — the serve broker pipeline, the
non-blocking loader, the registered LRU caches and the content-addressed
disk store.  Every concurrency bug shipped
so far (DES waiter leak, loader-shutdown deadlock, orphaned broker requests)
was found by a hand-written test *after* the fact; the detector turns that
class of bug into baseline-gated lint findings.

How it works
------------
:func:`instrumented` monkeypatches ``threading.Lock`` / ``RLock`` /
``Condition`` / ``Thread`` with tracked wrappers for the duration of one
scenario.  Everything built on top — ``threading.Event``, ``Semaphore``,
``queue.Queue``, ``concurrent.futures`` pools and futures — resolves those
names at call time inside the stdlib, so it composes automatically: a
``queue.Queue`` created inside the window gets a tracked mutex and tracked
conditions without any queue-specific shims.  The monitor then derives:

* **RC001** — lockset data races over state opted in via :func:`shared`
  (classic Eraser: once two threads touch a box, the intersection of the
  locks held at every access must stay non-empty if anybody writes);
* **RC002** — cross-thread lock acquisition-order cycles (the real-thread
  generalization of the DES-only SC001), recorded only for *blocking*
  acquires so ``Condition``'s ownership probes cannot fabricate edges;
* **RC003** — blocking, timeout-less waits entered while holding a tracked
  lock (the wait's own condition lock is excluded);
* **RC004** — threads created in the window that are still alive after a
  grace join when the scenario exits;
* **RC005** — timeout-less waits still parked at scenario exit: the
  wake-up they are waiting for is never coming.

Determinism contract: findings carry *sites* (``path:line`` of the first
frame outside the stdlib/monitor) and *normalized* thread names (digit
runs collapsed to ``*``), never ids, counters or wall-clock values, so two
runs of the same scenario emit byte-identical JSON.  This module is
excluded from the ``astlint`` deterministic set: grace joins and stress
timeouts are its business.
"""

from __future__ import annotations

import concurrent.futures._base
import concurrent.futures.thread
import os
import queue
import re
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .findings import Finding, Severity, sort_findings
from .rules import RuleConfig, register_rule

# Real primitives, captured before any patching can occur.
_REAL_LOCK = threading.Lock
_REAL_RLOCK = threading.RLock
_REAL_CONDITION = threading.Condition
_REAL_THREAD = threading.Thread

register_rule(
    "RC001", "conc", Severity.ERROR, "lockset data race",
    "State annotated with shared() was written from multiple threads with "
    "no lock held consistently across all accesses.")
register_rule(
    "RC002", "conc", Severity.ERROR, "lock acquisition-order cycle",
    "Two or more threads acquire the same tracked locks in conflicting "
    "orders; an unlucky interleaving deadlocks.")
register_rule(
    "RC003", "conc", Severity.WARNING, "blocking wait while holding a lock",
    "A thread entered a timeout-less wait (condition/queue/join) while "
    "holding a tracked lock, so the lock is unavailable for as long as the "
    "wake-up takes — or forever if it never comes.")
register_rule(
    "RC004", "conc", Severity.WARNING, "leaked thread at scope exit",
    "A thread created during the scenario was still alive after the grace "
    "join when the scenario exited; shutdown does not join every worker.")
register_rule(
    "RC005", "conc", Severity.ERROR, "stuck wait at scope exit",
    "A timeout-less wait was still parked when the scenario exited: the "
    "notify/sentinel/set() it waits for is never sent on this path.")


# ----------------------------------------------------------------------
# Sites and actors
# ----------------------------------------------------------------------
_SKIP_FILES = frozenset(
    os.path.abspath(f) for f in (
        threading.__file__, queue.__file__,
        concurrent.futures.thread.__file__,
        concurrent.futures._base.__file__,
        __file__,
    ))


def _norm_path(filename: str) -> str:
    """Render a filename relative to the repro/tests package root."""
    parts = filename.replace("\\", "/").split("/")
    for anchor in ("repro", "tests"):
        if anchor in parts:
            i = len(parts) - 1 - parts[::-1].index(anchor)
            return "/".join(parts[i:])
    return parts[-1]


def _callsite() -> str:
    """``path:line`` of the first frame outside the stdlib/monitor."""
    frame = sys._getframe(1)
    while frame is not None:
        if os.path.abspath(frame.f_code.co_filename) not in _SKIP_FILES:
            return f"{_norm_path(frame.f_code.co_filename)}:{frame.f_lineno}"
        frame = frame.f_back
    return "<unknown>"


def _norm_actor(name: str) -> str:
    """Collapse digit runs so pool-counter thread names stay stable."""
    return re.sub(r"\d+", "*", name)


_THREADING_FILE = os.path.abspath(threading.__file__)


def _in_thread_start() -> bool:
    """True when the current wait is ``Thread.start``'s started-handshake.

    ``Thread.start`` parks on the new thread's ``_started`` event — a
    timeout-less wait, often entered while an executor holds its shutdown
    lock, but structurally bounded: the child sets the event as its very
    first act.  Flagging it would make every pool spin-up an RC003.
    """
    frame = sys._getframe(1)
    while frame is not None:
        filename = os.path.abspath(frame.f_code.co_filename)
        if filename not in _SKIP_FILES:
            return False
        if filename == _THREADING_FILE and frame.f_code.co_name == "start":
            return True
        frame = frame.f_back
    return False


def _current_actor() -> str:
    return _norm_actor(threading.current_thread().name)


# ----------------------------------------------------------------------
# Monitor
# ----------------------------------------------------------------------
@dataclass
class _SharedState:
    owner: Optional[int] = None          # first accessing thread serial
    shared: bool = False                 # a second thread has arrived
    lockset: Optional[Set[int]] = None   # candidate guards (uids)
    any_write: bool = False
    actors: Set[str] = field(default_factory=set)


class _ThreadState:
    __slots__ = ("held", "saved", "serial")

    def __init__(self) -> None:
        self.held: Dict[int, int] = {}   # lock uid -> recursion count
        self.saved: Dict[int, int] = {}  # stashed counts across cond waits
        self.serial: Optional[int] = None  # monitor-assigned thread id


class ConcurrencyMonitor:
    """Collects lock/wait/thread facts for one instrumented scenario."""

    def __init__(self, grace_join_s: float = 1.0) -> None:
        self.grace_join_s = grace_join_s
        self._recording = True
        self._lock = _REAL_LOCK()
        self._local = threading.local()
        self._next_uid = 0
        self._lock_names: Dict[int, str] = {}
        self._site_counts: Dict[str, int] = {}
        # (held uid, wanted uid) -> actors that exhibited the order
        self._edges: Dict[Tuple[int, int], Set[str]] = {}
        self._threads: List[Tuple["_TrackedThread", str]] = []
        # rc003 facts: (site, kind, actor, sorted held uids)
        self._lock_holding_waits: Set[Tuple[str, str, str, Tuple[int, ...]]] = set()
        self._pending: Dict[int, Tuple[str, str, str]] = {}  # token -> fact
        self._wait_seq = 0
        self._shared: Dict[str, _SharedState] = {}
        self._thread_serial = 0
        self._facts: Optional["ConcFacts"] = None

    # -- per-thread state ------------------------------------------------
    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
        return st

    def _thread_id(self) -> int:
        """Stable id for the calling thread's lifetime.

        ``threading.get_ident()`` is an OS handle that gets *recycled*: a
        thread that runs to completion before its sibling starts can hand
        its ident to that sibling, which would make two distinct threads
        look like one and silently hide an RC001 race.  The thread-local
        state dies with its thread, so a serial assigned on first touch is
        unique per thread lifetime within a monitor.
        """
        st = self._state()
        if st.serial is None:
            with self._lock:
                st.serial = self._thread_serial
                self._thread_serial += 1
        return st.serial

    # -- registration ----------------------------------------------------
    def register_lock(self) -> int:
        site = _callsite()
        with self._lock:
            uid = self._next_uid
            self._next_uid += 1
            n = self._site_counts.get(site, 0)
            self._site_counts[site] = n + 1
            self._lock_names[uid] = site if n == 0 else f"{site}#{n}"
        return uid

    def register_thread(self, thread: "_TrackedThread", site: str) -> None:
        with self._lock:
            self._threads.append((thread, site))

    # -- lock events -----------------------------------------------------
    def on_acquire_request(self, uid: int, blocking: bool) -> None:
        if not blocking:
            return  # try-locks cannot deadlock and ownership probes lie
        held = self._state().held
        if not held or held.get(uid, 0):
            return
        actor = _current_actor()
        with self._lock:
            for h, count in held.items():
                if count > 0 and h != uid:
                    self._edges.setdefault((h, uid), set()).add(actor)

    def on_acquired(self, uid: int) -> None:
        held = self._state().held
        held[uid] = held.get(uid, 0) + 1

    def on_released(self, uid: int) -> None:
        held = self._state().held
        count = held.get(uid, 0) - 1
        if count <= 0:
            held.pop(uid, None)
        else:
            held[uid] = count

    def on_release_save(self, uid: int) -> None:
        """Condition.wait dropped all recursion levels of an RLock."""
        st = self._state()
        st.saved[uid] = st.held.pop(uid, 1)

    def on_acquire_restore(self, uid: int) -> None:
        st = self._state()
        st.held[uid] = st.saved.pop(uid, 1)

    # -- waits -----------------------------------------------------------
    def wait_begin(self, kind: str, timeout: Optional[float],
                   exclude_uid: Optional[int] = None) -> Optional[int]:
        if timeout is not None:
            return None  # bounded waits cannot hang forever
        if _in_thread_start():
            return None  # the started-handshake is structurally bounded
        st = self._state()
        held = tuple(sorted(u for u, c in st.held.items()
                            if c > 0 and u != exclude_uid))
        site = _callsite()
        actor = _current_actor()
        with self._lock:
            if held:
                self._lock_holding_waits.add((site, kind, actor, held))
            token = self._wait_seq
            self._wait_seq += 1
            self._pending[token] = (site, kind, actor)
        return token

    def wait_end(self, token: int) -> None:
        with self._lock:
            self._pending.pop(token, None)

    # -- shared state ----------------------------------------------------
    def on_shared_access(self, name: str, is_write: bool) -> None:
        ident = self._thread_id()
        held = frozenset(u for u, c in self._state().held.items() if c > 0)
        actor = _current_actor()
        with self._lock:
            st = self._shared.get(name)
            if st is None:
                st = self._shared[name] = _SharedState()
            st.actors.add(actor)
            st.any_write = st.any_write or is_write
            if st.owner is None:
                st.owner = ident
            elif st.shared:
                assert st.lockset is not None
                st.lockset &= held
            elif ident != st.owner:
                st.shared = True
                st.lockset = set(held)

    # -- scenario exit ---------------------------------------------------
    def finish(self) -> "ConcFacts":
        """Grace-join, stop recording, and snapshot the collected facts."""
        if not self._recording:
            return self._facts  # idempotent
        with self._lock:
            threads = list(self._threads)
        deadline = time.monotonic() + self.grace_join_s
        for thread, _site in threads:
            if thread.is_alive():
                thread.join(max(0.0, deadline - time.monotonic()))
        self._recording = False
        _clear_active(self)
        with self._lock:
            leaked = sorted({(site, _norm_actor(t.name))
                             for t, site in threads if t.is_alive()})
            stuck = sorted(set(self._pending.values()))
            names = dict(self._lock_names)
            holding = sorted(
                (site, kind, actor,
                 tuple(names.get(u, f"lock-{u}") for u in held))
                for site, kind, actor, held in self._lock_holding_waits)
            edges = sorted(
                (names.get(h, f"lock-{h}"), names.get(w, f"lock-{w}"),
                 tuple(sorted(actors)))
                for (h, w), actors in self._edges.items())
            races = sorted(
                (name, tuple(sorted(st.actors)))
                for name, st in self._shared.items()
                if st.shared and st.any_write and not st.lockset)
        self._facts = ConcFacts(leaked_threads=leaked, stuck_waits=stuck,
                                lock_holding_waits=holding, order_edges=edges,
                                shared_races=races)
        return self._facts


@dataclass(frozen=True)
class ConcFacts:
    """Deterministic snapshot of one scenario's concurrency behaviour."""

    leaked_threads: List[Tuple[str, str]]            # (site, actor)
    stuck_waits: List[Tuple[str, str, str]]          # (site, kind, actor)
    lock_holding_waits: List[Tuple[str, str, str, Tuple[str, ...]]]
    order_edges: List[Tuple[str, str, Tuple[str, ...]]]
    shared_races: List[Tuple[str, Tuple[str, ...]]]  # (name, actors)


# ----------------------------------------------------------------------
# Instrumentation layer
# ----------------------------------------------------------------------
_ACTIVE: Optional[ConcurrencyMonitor] = None
_ACTIVE_LOCK = _REAL_LOCK()


def _active() -> Optional[ConcurrencyMonitor]:
    mon = _ACTIVE
    return mon if mon is not None and mon._recording else None


def _clear_active(monitor: ConcurrencyMonitor) -> None:
    global _ACTIVE
    with _ACTIVE_LOCK:
        if _ACTIVE is monitor:
            _ACTIVE = None


class _TrackedLock:
    """Monitored non-reentrant mutex (duck-types ``threading.Lock``).

    Deliberately does *not* implement ``_release_save`` /
    ``_acquire_restore`` / ``_is_owned``: ``threading.Condition`` then falls
    back to plain ``acquire``/``release`` — which route through this
    wrapper — so held-lock accounting stays correct across ``cond.wait``.
    """

    __slots__ = ("_mon", "_inner", "_uid")

    def __init__(self) -> None:
        mon = _active()
        self._mon = mon
        self._inner = _REAL_LOCK()
        self._uid = mon.register_lock() if mon is not None else -1

    def _rec(self) -> Optional[ConcurrencyMonitor]:
        mon = self._mon
        return mon if mon is not None and mon._recording else None

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        mon = self._rec()
        if mon is not None:
            mon.on_acquire_request(self._uid, blocking)
        got = self._inner.acquire(blocking, timeout)
        if got and mon is not None:
            mon.on_acquired(self._uid)
        return got

    def release(self) -> None:
        self._inner.release()
        mon = self._rec()
        if mon is not None:
            mon.on_released(self._uid)

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()


class _TrackedRLock:
    """Monitored reentrant mutex.

    Implements the private Condition protocol (``_release_save`` /
    ``_acquire_restore`` / ``_is_owned``) by delegating to the C RLock and
    mirroring the recursion count into the monitor's per-thread state, so a
    ``Future``'s condition keeps accounting straight through ``wait``.
    """

    __slots__ = ("_mon", "_inner", "_uid")

    def __init__(self) -> None:
        mon = _active()
        self._mon = mon
        self._inner = _REAL_RLOCK()
        self._uid = mon.register_lock() if mon is not None else -1

    def _rec(self) -> Optional[ConcurrencyMonitor]:
        mon = self._mon
        return mon if mon is not None and mon._recording else None

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        mon = self._rec()
        if mon is not None:
            mon.on_acquire_request(self._uid, blocking)
        got = self._inner.acquire(blocking, timeout)
        if got and mon is not None:
            mon.on_acquired(self._uid)
        return got

    def release(self) -> None:
        self._inner.release()
        mon = self._rec()
        if mon is not None:
            mon.on_released(self._uid)

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()

    # Condition protocol --------------------------------------------------
    def _release_save(self):
        state = self._inner._release_save()
        mon = self._rec()
        if mon is not None:
            mon.on_release_save(self._uid)
        return state

    def _acquire_restore(self, state) -> None:
        self._inner._acquire_restore(state)
        mon = self._rec()
        if mon is not None:
            mon.on_acquire_restore(self._uid)

    def _is_owned(self) -> bool:
        return self._inner._is_owned()


class _TrackedCondition(_REAL_CONDITION):
    """Real Condition over tracked locks, with wait begin/end hooks."""

    def __init__(self, lock=None) -> None:
        super().__init__(lock)
        self._mon = _active()

    def wait(self, timeout: Optional[float] = None) -> bool:
        mon = self._mon
        if mon is None or not mon._recording:
            return super().wait(timeout)
        token = mon.wait_begin("condition-wait", timeout,
                               exclude_uid=getattr(self._lock, "_uid", None))
        try:
            return super().wait(timeout)
        finally:
            if token is not None:
                mon.wait_end(token)


class _TrackedThread(_REAL_THREAD):
    """Real Thread that registers itself and hooks timeout-less joins."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        mon = _active()
        self._mon = mon
        if mon is not None:
            mon.register_thread(self, _callsite())

    def join(self, timeout: Optional[float] = None) -> None:
        mon = self._mon
        if mon is None or not mon._recording:
            return super().join(timeout)
        token = mon.wait_begin("thread-join", timeout)
        try:
            return super().join(timeout)
        finally:
            if token is not None:
                mon.wait_end(token)


@contextmanager
def instrumented(monitor: ConcurrencyMonitor):
    """Patch ``threading`` primitives so ``monitor`` sees every event.

    The patch window covers the ``with`` body only; the monitor stays the
    active recorder until :meth:`ConcurrencyMonitor.finish`, so waits that
    park just after the body exits are still captured by the grace join.
    Not reentrant: one monitor at a time, process-wide.
    """
    global _ACTIVE
    with _ACTIVE_LOCK:
        if _ACTIVE is not None:
            raise RuntimeError("concurrency instrumentation is active; "
                               "it is not reentrant")
        _ACTIVE = monitor
    saved = (threading.Lock, threading.RLock,
             threading.Condition, threading.Thread)
    threading.Lock = _TrackedLock
    threading.RLock = _TrackedRLock
    threading.Condition = _TrackedCondition
    threading.Thread = _TrackedThread
    try:
        yield monitor
    finally:
        (threading.Lock, threading.RLock,
         threading.Condition, threading.Thread) = saved
        # _ACTIVE stays set until monitor.finish() so late parkers record.


# ----------------------------------------------------------------------
# shared(): opt-in data-race annotation
# ----------------------------------------------------------------------
class SharedBox:
    """A named cell whose accesses feed the RC001 lockset analysis.

    A no-op container outside an instrumented window; production code never
    needs it — only scenarios and the known-bug corpus annotate state.
    """

    __slots__ = ("name", "_value")

    def __init__(self, name: str, value) -> None:
        self.name = name
        self._value = value

    def get(self):
        mon = _active()
        if mon is not None:
            mon.on_shared_access(self.name, is_write=False)
        return self._value

    def set(self, value) -> None:
        mon = _active()
        if mon is not None:
            mon.on_shared_access(self.name, is_write=True)
        self._value = value

    def mutate(self, fn: Callable):
        mon = _active()
        if mon is not None:
            mon.on_shared_access(self.name, is_write=True)
        self._value = fn(self._value)
        return self._value


def shared(name: str, value) -> SharedBox:
    return SharedBox(name, value)


# ----------------------------------------------------------------------
# Facts -> findings
# ----------------------------------------------------------------------
def findings_from_facts(facts: ConcFacts, scenario: str,
                        config: Optional[RuleConfig] = None) -> List[Finding]:
    cfg = config or RuleConfig()
    out: List[Finding] = []

    def add(f: Optional[Finding]) -> None:
        if f is not None:
            out.append(f)

    for name, actors in facts.shared_races:
        add(cfg.finding(
            "RC001", f"shared:{name}",
            f"shared state '{name}' is written from threads "
            f"{', '.join(actors)} with no consistently-held lock",
            key=scenario,
            fix_hint="guard every access with one lock held in all threads, "
                     "or confine the state to a single thread"))

    graph: Dict[str, Set[str]] = {}
    edge_actors: Dict[Tuple[str, str], Tuple[str, ...]] = {}
    for held, wanted, actors in facts.order_edges:
        graph.setdefault(held, set()).add(wanted)
        edge_actors[(held, wanted)] = actors
    for cycle in _find_cycles(graph):
        ring = " -> ".join(cycle + [cycle[0]])
        actors = sorted({a for pair in zip(cycle, cycle[1:] + [cycle[0]])
                         for a in edge_actors.get(pair, ())})
        add(cfg.finding(
            "RC002", cycle[0],
            f"lock acquisition-order cycle {ring} "
            f"(exhibited by {', '.join(actors)})",
            key=f"{scenario}|{'->'.join(cycle)}",
            fix_hint="impose one global acquisition order on these locks"))

    for site, kind, actor, held in facts.lock_holding_waits:
        add(cfg.finding(
            "RC003", site,
            f"{actor} blocks in a timeout-less {kind} while holding "
            f"{', '.join(held)}",
            key=f"{scenario}|{kind}|{actor}|{','.join(held)}",
            fix_hint="release the lock before blocking, or give the wait "
                     "a timeout"))

    for site, actor in facts.leaked_threads:
        add(cfg.finding(
            "RC004", site,
            f"thread '{actor}' created here was still alive at scenario "
            f"exit (survived the grace join)",
            key=f"{scenario}|{actor}",
            fix_hint="join every worker on the shutdown path"))

    for site, kind, actor in facts.stuck_waits:
        add(cfg.finding(
            "RC005", site,
            f"thread '{actor}' was still parked in a timeout-less {kind} "
            f"at scenario exit; its wake-up never arrives",
            key=f"{scenario}|{kind}|{actor}",
            fix_hint="send shutdown sentinels / set events on the close "
                     "path before joining"))
    return out


def _find_cycles(graph: Dict[str, Set[str]]) -> List[List[str]]:
    """Simple cycles, canonicalized and deduplicated (mirrors sched.py)."""
    cycles: List[List[str]] = []
    seen: Set[Tuple[str, ...]] = set()

    def canonical(path: List[str]) -> Tuple[str, ...]:
        pivot = min(range(len(path)), key=lambda i: path[i])
        return tuple(path[pivot:] + path[:pivot])

    def dfs(node: str, path: List[str], on_path: Set[str]) -> None:
        for nxt in sorted(graph.get(node, ())):
            if nxt in on_path:
                cycle = path[path.index(nxt):]
                canon = canonical(cycle)
                if canon not in seen:
                    seen.add(canon)
                    cycles.append(list(canon))
                continue
            on_path.add(nxt)
            dfs(nxt, path + [nxt], on_path)
            on_path.remove(nxt)

    for start in sorted(graph):
        dfs(start, [start], {start})
    return cycles


# ----------------------------------------------------------------------
# Scenarios: the real workloads the detector drives
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ConcScenario:
    """One instrumented workload.

    ``run`` executes under instrumentation and may return a *rescue*
    callback, invoked after the monitor snapshot, that unwedges any
    deliberately-stuck threads (corpus scenarios must, or the process
    would carry zombie threads to exit).
    """

    name: str
    description: str
    run: Callable[[ConcurrencyMonitor], Optional[Callable[[], None]]]


def _scenario_broker(monitor: ConcurrencyMonitor):
    """Concurrent submits + close through the real threaded broker."""
    from ..serve.broker import BrokerConfig, run_broker_smoke

    run_broker_smoke("transformer",
                     n_requests=4,
                     config=BrokerConfig(workload="transformer",
                                         gpu_workers=2))
    return None


def _scenario_loader(monitor: ConcurrencyMonitor):
    """Full drain, then an early close mid-drain, on both loaders."""
    from ..datapipe.loader import BlockingLoader, NonBlockingLoader

    class _Dataset:
        def __len__(self) -> int:
            return 8

        def __getitem__(self, idx: int) -> int:
            time.sleep(0.02 if idx == 1 else 0.001)
            return idx

    dataset = _Dataset()
    list(NonBlockingLoader(dataset, num_workers=2))
    for loader_cls in (BlockingLoader, NonBlockingLoader):
        it = iter(loader_cls(dataset, num_workers=2))
        next(it)
        it.close()  # early close with samples still in flight
    return None


def _scenario_cache(monitor: ConcurrencyMonitor):
    """LruCache churn plus a lock-guarded shared() box under contention."""
    from ..framework.caching import LruCache, reset_registry_stats

    cache = LruCache(capacity=16, name="conc-scenario")
    guard = threading.Lock()
    box = shared("conc-scenario.guarded-counter", 0)

    def churn(base: int) -> None:
        for i in range(100):
            cache.put((base, i % 24), i)
            cache.get((base ^ 1, i % 24))
            with guard:
                box.mutate(lambda v: v + 1)

    workers = [threading.Thread(target=churn, args=(i,),
                                name=f"conc-cache-{i}") for i in range(2)]
    for w in workers:
        w.start()
    reset_registry_stats()
    for w in workers:
        w.join()
    # Read under the guard: the lockset analysis is deliberately
    # happens-before-blind (classic Eraser), so even a post-join read
    # must hold the annotated state's lock.
    with guard:
        assert box.get() == 200
    return None


def _scenario_store(monitor: ConcurrencyMonitor):
    """Concurrent same-key disk-store writes must not corrupt or race."""
    import shutil
    import tempfile

    from ..framework.tracer import KernelCategory, KernelRecord, Trace
    from ..framework.trace_io import TraceCacheStore

    trace = Trace(name="conc-store")
    trace.records.append(KernelRecord(
        name="gemm", category=KernelCategory.MATH, flops=1.0, bytes=1.0,
        shape=(2, 2), dtype="fp32", scope="conc", fused=False, phase="fwd",
        tunable=None, tags=None))
    tmp = tempfile.mkdtemp(prefix="repro-conc-store-")
    try:
        store = TraceCacheStore(root=tmp, enabled=True)
        start = threading.Event()

        def put() -> None:
            start.wait()
            for _ in range(4):
                store.put_trace("conc-key", trace)

        workers = [threading.Thread(target=put, name=f"conc-store-{i}")
                   for i in range(3)]
        for w in workers:
            w.start()
        start.set()
        for w in workers:
            w.join()
        loaded = store.get_trace("conc-key")
        assert loaded is not None and len(loaded[0].records) == 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return None


def default_scenarios() -> List[ConcScenario]:
    """The fixed-tree scenarios ``repro lint conc`` runs (and must pass)."""
    return [
        ConcScenario("broker", "broker submit/close pipeline",
                     _scenario_broker),
        ConcScenario("loader", "loader drain + early close", _scenario_loader),
        ConcScenario("cache", "LruCache churn + guarded shared state",
                     _scenario_cache),
        ConcScenario("store", "concurrent same-key disk-store writes",
                     _scenario_store),
    ]


def run_scenario(scenario: ConcScenario,
                 config: Optional[RuleConfig] = None,
                 grace_join_s: float = 1.0) -> List[Finding]:
    """Instrument one scenario and convert its facts into findings."""
    monitor = ConcurrencyMonitor(grace_join_s=grace_join_s)
    rescue: Optional[Callable[[], None]] = None
    try:
        with instrumented(monitor):
            rescue = scenario.run(monitor)
    finally:
        facts = monitor.finish()
        if rescue is not None:
            rescue()
    return findings_from_facts(facts, scenario.name, config)


def run_conc_scenarios(config: Optional[RuleConfig] = None,
                       include_corpus: bool = False,
                       scenarios: Optional[Sequence[ConcScenario]] = None,
                       grace_join_s: float = 1.0) -> List[Finding]:
    """Run the dynamic detector over the scenario suite.

    ``include_corpus`` adds the known-bug corpus (deliberately re-broken
    PR-7 shutdown paths) whose findings are the detector's regression
    oracle — they are *expected*, and excluded from the default run so the
    fixed tree lints clean.
    """
    if scenarios is None:
        todo = list(default_scenarios())
        if include_corpus:
            from .corpus import corpus_scenarios
            todo += corpus_scenarios()
    else:
        todo = list(scenarios)
    findings: List[Finding] = []
    seen: Set[str] = set()
    for scenario in todo:
        for f in run_scenario(scenario, config, grace_join_s=grace_join_s):
            fp = f.fingerprint()
            if fp not in seen:
                seen.add(fp)
                findings.append(f)
    return sort_findings(findings)


__all__ = [
    "ConcFacts", "ConcScenario", "ConcurrencyMonitor", "SharedBox",
    "default_scenarios", "findings_from_facts", "instrumented",
    "run_conc_scenarios", "run_scenario", "shared",
]
