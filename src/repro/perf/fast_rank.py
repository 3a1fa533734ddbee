"""Closed-form rank-level step schedule (the rank DES fast path).

The event engine of :func:`repro.perf.scaling._run_distributed_step` runs
one generator process per DAP rank on a shared simulator.  Its schedule
has a closed form, because the ranks interact in only three ways:

* they differ only in loader delay and host jitter at the start of each
  step;
* every DAP collective is a barrier, which releases every rank at the
  latest arrival;
* each rank's DDP buckets queue FIFO on that rank's own NIC.

A step is therefore per-rank start times, a max at each barrier, and one
FIFO recursion over bucket ready times.  :func:`solve_rank_steps`
evaluates it *bit-identically* to the event engine: every output double
comes from the same IEEE-754 operations, in the same order.

* Clocks advance op by op (``t = t + op.seconds``), never by a precomputed
  sum.  Ranks whose clocks are equal share one lane, so after the first
  barrier a step costs one scalar walk over the plan.
* ``dap_sync`` adds ``release - arrival`` at every barrier (a zero on
  shared lanes, which leaves the sum unchanged); ``compute`` and
  ``dap_comm`` add ``op.seconds`` in plan order, the same for every rank
  and step; ``data``, ``host`` and ``gate`` are differences of absolute
  times.
* Bucket ``k`` is ready at ``span_start + max(frac*bw - backward_done,
  0.0)``; the NIC serves buckets in stable ready-time order (spawn order
  breaks ties), each ending at ``max(ready, previous end) + seconds``.

The loaders are each rank's own :class:`PipelineFeed`, on a simulator of
its own that is fired up to each fetch.  Whether a delivery due at the
very instant of a fetch lands before it depends on the shared simulator's
insertion order: the earlier-scheduled event fires first.  Each loader
event therefore keeps the time it was scheduled at, and each fetch knows
when its own event was scheduled (the barrier release when a world gate
wait precedes it, else when the final sleep of the last rank to arrive
began).  When those two times are equal too, or the loader runs out of
samples, the solver raises :class:`Unordered` and the caller runs the
event engine.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..datapipe.sim_pipeline import PipelineFeed
from ..sim.des import Event, Simulator

#: Per-(step, rank) stats of a rank-level run.  ``total`` is the ``sum()``
#: of the others, in this order.
STAT_KEYS = ("compute", "dap_comm", "dap_sync", "ddp_wait", "data", "host",
             "gate", "total")

#: Scheduling time of the first fetch's event: after the loaders' first
#: workers (scheduled before the run, at ``-inf``) and before anything
#: scheduled once the run has started (at a time >= 0).
_FIRST_FETCH = -1.0


class Unordered(Exception):
    """The closed form cannot order this run's events as the DES would."""


class _LoaderClock(Simulator):
    """One rank's loader simulator, fired by the solver up to each fetch.

    Every event carries the time it was scheduled at, so only
    :meth:`fire_until` and :meth:`fire_until_set` drive it, never
    :meth:`Simulator.run`.
    """

    def __init__(self) -> None:
        super().__init__()
        self.stamp = -math.inf

    def schedule_at(self, time: float, callback) -> None:
        super().schedule_at(time, (callback, self.stamp))

    def _fire(self) -> None:
        due, _seq, (callback, _stamp) = heapq.heappop(self._heap)
        self.now = self.stamp = due
        callback()

    def fire_until(self, time: float, stamp: float) -> None:
        """Fire every event that precedes a fetch at ``time`` whose own
        event was scheduled at ``stamp``."""
        heap = self._heap
        while heap:
            due, _seq, (_callback, scheduled) = heap[0]
            if due > time or (due == time and scheduled >= stamp):
                if due == time and scheduled == stamp:
                    raise Unordered(f"loader event and fetch tie at t={time}")
                break
            self._fire()
        self.now = self.stamp = time

    def fire_until_set(self, event: Event) -> None:
        while not event.triggered:
            if not self._heap:
                raise Unordered("a loader ran out of samples")
            self._fire()


def _bucket_offsets(plan: Sequence, buckets: Sequence[Tuple[float, float]],
                    update_start: Optional[int]
                    ) -> Tuple[List[Optional[List[float]]], int]:
    """Ready offsets of the buckets spawned at each backward span's start,
    and how many buckets those spans spawn.  The rest are spawned where the
    rank waits for them (the update phase, else the end of the plan)."""
    backward_wall = sum(op.seconds for op in plan
                        if op.kind == "compute" and op.phase == "backward")
    offsets: List[Optional[List[float]]] = [None] * len(plan)
    next_bucket = 0
    backward_done = 0.0
    for i, op in enumerate(plan):
        if i == update_start:
            break
        if op.kind != "compute":
            continue
        if op.phase == "backward" and buckets:
            span_end = backward_done + op.seconds
            spawned = []
            while (next_bucket < len(buckets)
                   and buckets[next_bucket][0] * backward_wall
                   <= span_end + 1e-15):
                frac = buckets[next_bucket][0]
                spawned.append(max(frac * backward_wall - backward_done, 0.0))
                next_bucket += 1
            offsets[i] = spawned or None
        if op.phase == "backward":
            backward_done += op.seconds
    return offsets, next_bucket


def _nic_fifo(ready: List[float], seconds: List[float]
              ) -> Tuple[List[float], List[float]]:
    """Start and end of every bucket on one FIFO NIC, in spawn order."""
    n = len(ready)
    starts = [0.0] * n
    ends = [0.0] * n
    free = -math.inf
    for k in sorted(range(n), key=ready.__getitem__):
        starts[k] = ready[k] if ready[k] > free else free
        ends[k] = free = starts[k] + seconds[k]
    return starts, ends


def _resume_stamp(starts: List[float], ends: List[float], t0: float,
                  stamp: float) -> float:
    """Scheduling time of the event that resumes a rank which, from ``t0``
    inside an event scheduled at ``stamp``, waits on its buckets in spawn
    order.  A bucket's end event is scheduled when the bucket starts."""
    now = t0
    for begin, end in zip(starts, ends):
        if end > now or (end == now and begin > stamp):
            now, stamp = end, begin
    return stamp


def _wait_for_buckets(lanes: List[float], ready: Optional[List[List[float]]],
                      n_late: int, seconds: List[float],
                      began: Optional[List[float]]
                      ) -> Tuple[List[float], List[float], List[float]]:
    """Spawn the buckets not yet spawned and wait for all of them.

    Returns the lanes' clocks after the wait, the waits, and (when
    ``began`` is given) the scheduling times of the events that resume
    them.  The result has one lane per rank if either the clocks or the
    NIC queues differ between ranks.
    """
    queues = ready or [[]]
    width = max(len(lanes), len(queues))
    after, waited, stamps = [], [], []
    for lane in range(width):
        t0 = lanes[lane % len(lanes)]
        starts, ends = _nic_fifo(queues[lane % len(queues)]
                                 + [t0 + 0.0] * n_late, seconds)
        # Service ends never decrease, so the max is the last bucket's.
        end = max(ends, default=-math.inf)
        t1 = end if end > t0 else t0
        after.append(t1)
        waited.append(t1 - t0)
        if began is not None:
            stamps.append(_resume_stamp(starts, ends, t0,
                                        began[lane % len(began)]))
    return after, waited, stamps


def solve_rank_steps(plan: Sequence, n_ranks: int, n_steps: int,
                     buckets: Sequence[Tuple[float, float]],
                     gate_s: float = 0.0,
                     rank_delays: Optional[np.ndarray] = None,
                     prep_series: Optional[np.ndarray] = None,
                     data_workers: int = 8,
                     data_queue_capacity: int = 16,
                     blocking_pipeline: bool = True
                     ) -> Dict[str, np.ndarray]:
    """The event engine's per-(step, rank) stats, solved in closed form.

    Takes the arguments of :func:`repro.perf.scaling._run_distributed_step`
    and returns the same arrays, bit for bit.  Raises :class:`Unordered`
    for a run it cannot order (see the module docstring), and for an empty
    plan, whose ranks would fetch again from inside a loader delivery.
    """
    if not plan:
        raise Unordered("empty plan")
    n_ops = len(plan)
    seconds = [op.seconds for op in plan]
    barrier = [op.kind != "compute" for op in plan]
    update_start = next((i for i, op in enumerate(plan)
                         if op.phase == "update"), None)
    offsets, n_early = _bucket_offsets(plan, buckets, update_start)
    bucket_s = [s for _, s in buckets]
    n_late = len(buckets) - n_early
    wait_at = None
    if buckets:
        wait_at = n_ops if update_start is None else update_start
    compute = dap_comm = 0.0
    for s, comm in zip(seconds, barrier):
        if comm:
            dap_comm += s
        else:
            compute += s

    loaders = []
    if prep_series is not None:
        for r in range(n_ranks):
            clock = _LoaderClock()
            loaders.append((clock, PipelineFeed(
                clock, prep_series[r::n_ranks], data_workers,
                blocking=blocking_pipeline,
                queue_capacity=data_queue_capacity)))
    delays = (None if rank_delays is None
              else np.asarray(rank_delays, dtype=np.float64).tolist())

    rows: Dict[str, List[List[float]]] = {k: [] for k in STAT_KEYS}
    t = 0.0
    fetch_stamp = _FIRST_FETCH
    for step in range(n_steps):
        # --- step start: loader fetch, then host jitter, per rank ---
        starts = [t] * n_ranks
        data = [0.0] * n_ranks
        host = [0.0] * n_ranks
        for r, (clock, feed) in enumerate(loaders):
            clock.fire_until(t, fetch_stamp)
            got = feed.get_event()
            clock.fire_until_set(got)
            starts[r] = clock.now
            data[r] = clock.now - t
        if delays is not None:
            for r, delay in enumerate(delays[step]):
                if delay > 0.0:
                    t1 = starts[r] + delay
                    host[r] = t1 - starts[r]
                    starts[r] = t1

        # --- the plan: one clock per lane (one lane while ranks agree) ---
        lanes = [starts[0]] if min(starts) == max(starts) else starts
        sync = [0.0] * n_ranks
        ddp = [0.0] * n_ranks
        ready: Optional[List[List[float]]] = None
        began = lanes   # when each lane's latest sleep began
        for i in range(n_ops):
            if i == wait_at:
                lanes, waited, _ = _wait_for_buckets(lanes, ready, n_late,
                                                     bucket_s, None)
                ddp = waited * n_ranks if len(waited) == 1 else waited
            s = seconds[i]
            if barrier[i]:
                if len(lanes) > 1:
                    release = max(lanes)
                    for r, c in enumerate(lanes):
                        sync[r] += release - c
                    lanes = [release]
                began = lanes
                lanes = [lanes[0] + s]
                continue
            offs = offsets[i]
            if offs is not None:
                if ready is None:
                    ready = [[] for _ in lanes]
                elif len(ready) < len(lanes):
                    ready = [list(ready[0]) for _ in lanes]
                for lane, queue in enumerate(ready):
                    c = lanes[lane % len(lanes)]
                    queue.extend([c + o for o in offs])
            began = lanes
            lanes = [c + s for c in lanes]
        if wait_at == n_ops:
            lanes, waited, began = _wait_for_buckets(
                lanes, ready, n_late, bucket_s, began if loaders else None)
            ddp = waited * n_ranks if len(waited) == 1 else waited

        # --- final barrier, world gate ---
        release = max(lanes)
        if len(lanes) > 1:
            for r, c in enumerate(lanes):
                sync[r] += release - c
        extra = max([0.0] + [d + h for d, h in zip(data, host)])
        wait = gate_s - extra if gate_s > 0.0 else 0.0
        t, gate = release, 0.0
        if wait > 0.0:
            # The next fetch's event is the gate sleep, scheduled at the
            # release (even when ``release + wait`` rounds to ``release``).
            t = release + wait
            gate = t - release
            fetch_stamp = release
        elif loaders:
            # The next fetch runs inside the last arrival's event: among
            # the ranks arriving at the release, the latest-scheduled one.
            fetch_stamp = max(began[lane % len(began)]
                              for lane, c in enumerate(lanes)
                              if c == release)
        for key, row in zip(STAT_KEYS, (
                [compute] * n_ranks, [dap_comm] * n_ranks, sync, ddp, data,
                host, [gate] * n_ranks)):
            rows[key].append(row)
        rows["total"].append([
            sum((compute, dap_comm, sync[r], ddp[r], data[r], host[r], gate))
            for r in range(n_ranks)])
    return {k: np.array(v, dtype=np.float64).reshape(n_steps, n_ranks)
            for k, v in rows.items()}
