"""Single-rank step time: a discrete-event simulation over the kernel trace.

Two processes run inside one :class:`repro.sim.des.Simulator`:

* the **CPU dispatch process** walks the trace, paying the per-kernel launch
  cost (eager dispatch, or graph replay when ``graphed``) and pushing each
  kernel onto the GPU stream's queue; at phase boundaries (loss readout,
  grad-norm logging) it drains its launch lead unless the step is
  graph-captured;
* the **GPU compute process** pops kernels in order and executes them for
  their roofline-model device time, starving (idle) whenever the CPU has not
  dispatched far enough ahead.

CPU overhead is therefore *exposed* only when the GPU starves waiting for
launches — which is how Table 1's "CPU overhead 9.1%" row is measured, and
why CUDA Graphs (dispatch -> ~0.25us) recover it.  The event-driven form is
numerically equivalent to the older two-clock recurrence::

    cpu_clock  += dispatch_cost(kernel)
    gpu_start   = max(cpu_clock, gpu_free)
    gpu_free    = gpu_start + device_time(kernel)

(pinned by ``tests/perf/test_des_golden.py``), but it shares the engine with
the multi-rank distributed simulation and can report *segment marks*: the
GPU-timeline timestamps at arbitrary trace positions, which the distributed
model uses to place DAP collectives and DDP buckets at their actual
positions inside the step.

Two engines produce the breakdown:

* ``engine="event"`` — the generator-based DES above, kernel by kernel;
* ``engine="fast"`` (default) — the closed-form vectorized recurrence in
  :mod:`repro.perf.fast_step` over precomputed cost arrays
  (:mod:`repro.perf.vector_cost`), which is **bit-identical** to the event
  engine (including segments, timelines and ``on_kernel`` replay) at a
  small fraction of the wall time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..framework.tracer import KernelRecord
from ..hardware.gpu import GpuSpec
from ..hardware.roofline import CostModel
from ..sim.des import Event, Simulator, Timeline
from .fast_step import two_clock_times
from .vector_cost import TraceCostArrays, _executable, compute_cost_arrays

#: Kernel-level simulation engines (see the module docstring).
ENGINES = ("fast", "event")


@dataclass
class SegmentSpan:
    """One contiguous span of the simulated step between two marks."""

    end_index: int      # trace position (exclusive) where the span ends
    phase: str          # phase of the records inside the span
    wall_s: float       # GPU-timeline wall time of the span
    gpu_busy_s: float   # device-busy seconds inside the span
    kernel_count: int   # executed (non-COMM, non-hidden) kernels


@dataclass
class StepTimeBreakdown:
    """Wall-clock decomposition of one rank-step (no communication)."""

    total_s: float
    gpu_busy_s: float
    cpu_exposed_s: float
    dispatch_total_s: float
    kernel_count: int
    category_seconds: Dict[str, float] = field(default_factory=dict)
    category_calls: Dict[str, int] = field(default_factory=dict)
    limiter_seconds: Dict[str, float] = field(default_factory=dict)
    segments: List[SegmentSpan] = field(default_factory=list)

    @property
    def cpu_overhead_fraction(self) -> float:
        return self.cpu_exposed_s / self.total_s if self.total_s else 0.0


def check_engine(engine: str) -> None:
    """Reject an engine name that is not in :data:`ENGINES`."""
    if engine not in ENGINES:
        raise ValueError(f"unknown simulation engine {engine!r}; expected "
                         f"one of {ENGINES}")


def simulate_step(records: Optional[Iterable[KernelRecord]], gpu: GpuSpec,
                  cost_model: Optional[CostModel] = None,
                  graphed: bool = False,
                  segment_marks: Optional[Sequence[int]] = None,
                  timeline: Optional[Timeline] = None,
                  rank: int = 0,
                  on_kernel: Optional[
                      Callable[[KernelRecord, float, float], None]] = None,
                  engine: str = "fast",
                  costs: Optional[TraceCostArrays] = None
                  ) -> StepTimeBreakdown:
    """Simulate one step over the kernel trace.

    Args:
        graphed: replay from a captured CUDA Graph (tiny dispatch cost).
        segment_marks: trace positions (indices into ``records``) at which
            to record GPU-timeline boundaries; the resulting
            :class:`SegmentSpan` list partitions the step (a final mark at
            the end of the trace is implied).  The distributed layer passes
            ``TraceStructure.default_marks`` (every COMM record and phase
            boundary); positions may repeat.
        timeline: optional interval log; GPU starvation spans are recorded
            as ``("gpu", "dispatch_wait")`` intervals.
        on_kernel: per-kernel completion hook called as ``(record, start_s,
            end_s)`` with the kernel's GPU-timeline execution span, in
            execution order — the chrome-trace exporter and the flame
            rollup consume exactly the simulated timestamps.
        engine: ``"fast"`` (vectorized closed form, default) or
            ``"event"`` (generator DES); anything else raises
            :class:`ValueError`.
        costs: precomputed cost arrays for ``records`` (from
            :func:`repro.perf.vector_cost.trace_cost_arrays`); the fast
            engine computes them on the fly when absent.  With ``costs``
            the fast engine works from the arrays alone: ``records`` may
            be None unless ``on_kernel`` needs them.
    """
    check_engine(engine)
    recs = (None if records is None
            else records if isinstance(records, list) else list(records))
    if engine == "event":
        if recs is None:
            raise ValueError("the event engine needs the records")
        return _simulate_step_event(
            recs, gpu, cost_model, graphed, segment_marks, timeline, rank,
            on_kernel)
    return _simulate_step_fast(
        recs, gpu, cost_model, graphed, segment_marks, timeline, rank,
        on_kernel, costs)


# ----------------------------------------------------------------------
# Fast engine: closed-form vectorized recurrence over cost arrays
# ----------------------------------------------------------------------
def _simulate_step_fast(recs: Optional[List[KernelRecord]], gpu: GpuSpec,
                        cost_model: Optional[CostModel], graphed: bool,
                        segment_marks: Optional[Sequence[int]],
                        timeline: Optional[Timeline], rank: int,
                        on_kernel: Optional[Callable],
                        costs: Optional[TraceCostArrays]
                        ) -> StepTimeBreakdown:
    if recs is None and (costs is None or on_kernel is not None):
        raise ValueError("the fast engine needs the records unless it is "
                         "given cost arrays and no on_kernel hook")
    if costs is None:
        costs = compute_cost_arrays(recs, cost_model or CostModel(gpu))
    elif recs is not None and costs.structure.n_records != len(recs):
        raise ValueError(
            f"cost arrays cover {costs.structure.n_records} records but the "
            f"trace has {len(recs)}")
    structure = costs.structure
    n_records = structure.n_records

    dispatch = gpu.dispatch_seconds(graphed=graphed)
    m = costs.m
    sec = costs.seconds

    if m:
        drain_mask: Optional[np.ndarray] = None
        if not graphed:
            pc = structure.phase_codes
            drain_mask = np.empty(m, dtype=bool)
            drain_mask[0] = True
            np.not_equal(pc[1:], pc[:-1], out=drain_mask[1:])
        c, ends = two_clock_times(sec, dispatch, drain_mask)
        last_end = float(ends[-1])
        busy = float(costs.sec_cumsum[-1])
    else:
        c = ends = np.empty(0, dtype=np.float64)
        last_end = 0.0
        busy = 0.0

    # Timeline intervals and on_kernel replay, interleaved exactly like the
    # event engine: a starvation span (the GPU waiting on a launch) is
    # logged right before the kernel that ends it executes.
    if (timeline is not None or on_kernel is not None) and m:
        c_list = c.tolist()
        end_list = ends.tolist()
        prev_end = 0.0
        exec_positions = structure.exec_idx.tolist()
        for k in range(m):
            ck = c_list[k]
            ek = end_list[k]
            if timeline is not None and ck > prev_end:
                timeline.record("gpu", "dispatch_wait", prev_end, ck, rank)
            if on_kernel is not None:
                started = ck if ck > prev_end else prev_end
                on_kernel(recs[exec_positions[k]], started, ek)
            prev_end = ek

    segments: List[SegmentSpan] = []
    if segment_marks is not None:
        marks = sorted(set(int(x) for x in segment_marks))
        if not marks or marks[-1] != n_records:
            marks.append(n_records)
        thresholds = np.searchsorted(
            structure.exec_idx, np.asarray(marks, dtype=np.int64),
            side="left")
        sec_cumsum = costs.sec_cumsum
        phase_codes = structure.phase_codes
        phase_names = structure.phase_names
        prev_t = 0.0
        prev_busy = 0.0
        prev_count = 0
        prev_phase = "forward"
        for idx, count in zip(marks, thresholds.tolist()):
            t = float(ends[count - 1]) if count else 0.0
            b = float(sec_cumsum[count - 1]) if count else 0.0
            # The segment phase is the phase of its first executed kernel
            # (None-fallback to the previous segment, as the event engine's
            # pre-pass does).
            phase = (phase_names[int(phase_codes[prev_count])]
                     if count > prev_count else prev_phase)
            segments.append(SegmentSpan(end_index=idx, phase=phase,
                                        wall_s=t - prev_t,
                                        gpu_busy_s=b - prev_busy,
                                        kernel_count=count - prev_count))
            prev_t, prev_busy, prev_count, prev_phase = t, b, count, phase

    return StepTimeBreakdown(
        total_s=last_end,
        gpu_busy_s=busy,
        cpu_exposed_s=max(last_end - busy, 0.0),
        dispatch_total_s=dispatch * m,
        kernel_count=m,
        category_seconds=dict(costs.category_seconds),
        category_calls=dict(costs.category_calls),
        limiter_seconds=dict(costs.limiter_seconds),
        segments=segments,
    )


# ----------------------------------------------------------------------
# Event engine: the generator-based DES (reference semantics)
# ----------------------------------------------------------------------
def _simulate_step_event(recs: List[KernelRecord], gpu: GpuSpec,
                         cost_model: Optional[CostModel], graphed: bool,
                         segment_marks: Optional[Sequence[int]],
                         timeline: Optional[Timeline], rank: int,
                         on_kernel: Optional[Callable]
                         ) -> StepTimeBreakdown:
    cost_model = cost_model or CostModel(gpu)
    dispatch = gpu.dispatch_seconds(graphed=graphed)

    # ------------------------------------------------------------------
    # Optional pre-pass: translate trace positions into executed-kernel
    # counts so the GPU process can timestamp each boundary as it crosses it.
    # ------------------------------------------------------------------
    marks: Optional[List[int]] = None
    thresholds: List[int] = []
    seg_phases: List[Optional[str]] = []
    needed: Optional[set] = None
    if segment_marks is not None:
        marks = sorted(set(int(m) for m in segment_marks))
        if not marks or marks[-1] != len(recs):
            marks.append(len(recs))
        count = 0
        ptr = 0
        phase_of_segment: Optional[str] = None
        for i, r in enumerate(recs):
            while ptr < len(marks) and marks[ptr] == i:
                thresholds.append(count)
                seg_phases.append(phase_of_segment)
                phase_of_segment = None
                ptr += 1
            if _executable(r):
                count += 1
                if phase_of_segment is None:
                    phase_of_segment = r.phase
        while ptr < len(marks):
            thresholds.append(count)
            seg_phases.append(phase_of_segment)
            phase_of_segment = None
            ptr += 1
        needed = set(thresholds)

    # ------------------------------------------------------------------
    # The two processes, sharing a dispatch queue.
    # ------------------------------------------------------------------
    sim = Simulator()
    pending: deque = deque()
    cpu_done = [False]
    gpu_waiter: List[Optional[Event]] = [None]
    cpu_drain: List[Optional[Event]] = [None]
    dispatched = [0]
    executed = [0]
    busy = [0.0]
    last_end = [0.0]
    boundary_time: Dict[int, float] = {0: 0.0}
    boundary_busy: Dict[int, float] = {0: 0.0}

    cat_seconds: Dict[str, float] = {}
    cat_calls: Dict[str, int] = {}
    limiters: Dict[str, float] = {}
    kernel_cost = cost_model.kernel_cost

    def cpu_proc():
        prev_phase: Optional[str] = None
        for r in recs:
            if not _executable(r):
                continue
            if r.phase != prev_phase:
                # Host synchronization at phase boundaries: the CPU drains
                # its launch lead, so a launch-bound phase (the per-tensor
                # optimizer) exposes its dispatch cost instead of hiding
                # behind earlier GPU work.
                if not graphed and executed[0] < dispatched[0]:
                    drain = Event(sim)
                    cpu_drain[0] = drain
                    yield drain
                prev_phase = r.phase
            yield dispatch
            cost = kernel_cost(r)
            seconds = cost.seconds
            key = r.category.value
            cat_seconds[key] = cat_seconds.get(key, 0.0) + seconds
            cat_calls[key] = cat_calls.get(key, 0) + 1
            limiters[cost.limiter] = limiters.get(cost.limiter, 0.0) + seconds
            dispatched[0] += 1
            pending.append((r, seconds))
            waiter = gpu_waiter[0]
            if waiter is not None:
                gpu_waiter[0] = None
                waiter.succeed(None)
        cpu_done[0] = True
        waiter = gpu_waiter[0]
        if waiter is not None:
            gpu_waiter[0] = None
            waiter.succeed(None)

    def gpu_proc():
        while True:
            if not pending:
                if cpu_done[0]:
                    return
                waiter = Event(sim)
                gpu_waiter[0] = waiter
                idle_from = sim.now
                yield waiter
                if timeline is not None and sim.now > idle_from:
                    timeline.record("gpu", "dispatch_wait", idle_from,
                                    sim.now, rank)
                continue
            rec, seconds = pending.popleft()
            started = sim.now
            yield seconds
            busy[0] += seconds
            executed[0] += 1
            n = executed[0]
            last_end[0] = sim.now
            if on_kernel is not None:
                on_kernel(rec, started, sim.now)
            if needed is not None and n in needed:
                boundary_time[n] = sim.now
                boundary_busy[n] = busy[0]
            drain = cpu_drain[0]
            if drain is not None and n == dispatched[0]:
                cpu_drain[0] = None
                drain.succeed(None)

    sim.process(cpu_proc(), name="cpu-dispatch")
    sim.process(gpu_proc(), name="gpu-stream")
    sim.run()

    segments: List[SegmentSpan] = []
    if marks is not None:
        prev_t = 0.0
        prev_busy = 0.0
        prev_count = 0
        prev_phase = "forward"
        for idx, count, seg_phase in zip(marks, thresholds, seg_phases):
            t = boundary_time.get(count, prev_t)
            b = boundary_busy.get(count, prev_busy)
            phase = seg_phase if seg_phase is not None else prev_phase
            segments.append(SegmentSpan(end_index=idx, phase=phase,
                                        wall_s=t - prev_t, gpu_busy_s=b - prev_busy,
                                        kernel_count=count - prev_count))
            prev_t, prev_busy, prev_count, prev_phase = t, b, count, phase

    n = dispatched[0]
    total = last_end[0]
    return StepTimeBreakdown(
        total_s=total,
        gpu_busy_s=busy[0],
        cpu_exposed_s=max(total - busy[0], 0.0),
        dispatch_total_s=dispatch * n,
        kernel_count=n,
        category_seconds=cat_seconds,
        category_calls=cat_calls,
        limiter_seconds=limiters,
        segments=segments,
    )
