"""Discrete-event models of the blocking vs non-blocking data pipeline.

Figure 5 of the paper: the default PyTorch DataLoader delivers batches in
sampler order, so one slow batch ("b") blocks training even though batch "c"
is already prepared.  The ScaleFold pipeline yields whichever batch is ready
(priority queue keyed by index for best-effort ordering), so training never
idles while *any* batch is available.

:class:`PipelineFeed` is the reusable piece: W prep workers feeding a
bounded queue *inside a caller-supplied simulator*, so the distributed step
simulator (:mod:`repro.perf.scaling`) can attach one feed per rank and let
data stalls emerge as queue-empty waits on the shared event timeline.
:func:`simulate_pipeline` wraps a feed plus a single trainer process and
reports per-step stall statistics for the standalone Figure 5 analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..sim.des import Event, FifoQueue, Simulator


@dataclass
class PipelineResult:
    """Outcome of one pipeline simulation."""

    total_time_s: float
    step_starts: List[float]
    stalls: List[float]          # per-step wait for data
    delivery_order: List[int]    # sample index per step

    @property
    def n_steps(self) -> int:
        return len(self.stalls)

    @property
    def total_stall_s(self) -> float:
        return float(sum(self.stalls))

    @property
    def stall_probability(self) -> float:
        eps = 1e-9
        return float(np.mean([s > eps for s in self.stalls])) if self.stalls else 0.0

    @property
    def mean_stall_when_stalled(self) -> float:
        stalls = [s for s in self.stalls if s > 1e-9]
        return float(np.mean(stalls)) if stalls else 0.0


class PipelineFeed:
    """W prep workers feeding a bounded batch queue inside ``sim``.

    Workers start preparing immediately on construction; a finished batch
    enters the queue unless ``queue_capacity`` batches are already waiting,
    in which case the worker pauses (prefetch backpressure) until the
    trainer drains one.  ``blocking=True`` is the PyTorch DataLoader
    discipline (strict sampler order); ``blocking=False`` is ScaleFold's
    ready-first delivery.
    """

    def __init__(self, sim: Simulator, prep_times: Sequence[float],
                 n_workers: int, blocking: bool,
                 queue_capacity: int = 4) -> None:
        self.sim = sim
        self.queue = FifoQueue(sim, priority=not blocking, in_order=blocking)
        self._prep_times = prep_times
        self._next_sample = 0
        self._in_queue = 0
        self._paused_workers = 0
        self._capacity = queue_capacity
        for _ in range(min(n_workers, len(prep_times))):
            self._worker_start()

    def _worker_start(self) -> None:
        idx = self._next_sample
        if idx >= len(self._prep_times):
            return
        self._next_sample += 1
        self.sim.schedule(float(self._prep_times[idx]),
                          lambda i=idx: self._worker_done(i))

    def _worker_done(self, idx: int) -> None:
        self.queue.put((idx,))
        self._in_queue += 1
        if self._in_queue < self._capacity:
            self._worker_start()
        else:
            self._paused_workers += 1

    def get_event(self) -> Event:
        """Process-style batch fetch: fires with ``(sample_index,)``."""
        event = Event(self.sim)

        def deliver(item) -> None:
            self._in_queue -= 1
            while self._paused_workers and self._in_queue < self._capacity:
                self._paused_workers -= 1
                self._worker_start()
            event.succeed(item)

        self.queue.get(deliver)
        return event


def simulate_pipeline(prep_times: Sequence[float], n_workers: int,
                      step_time_s: float, blocking: bool,
                      queue_capacity: int = 4,
                      warmup_s: float = 0.0) -> PipelineResult:
    """Simulate W workers preparing batches for one training process.

    Args:
        prep_times: per-sample preparation seconds, in sampler order.
        blocking: PyTorch-style in-order delivery vs ScaleFold's
            ready-first (priority-queue) delivery.
        queue_capacity: finished batches that may wait in the queue before
            workers pause (prefetch backpressure).
        warmup_s: head start the workers get before step 0 (prefetching
            during initialization).
    """
    sim = Simulator()
    feed = PipelineFeed(sim, prep_times, n_workers, blocking,
                        queue_capacity=queue_capacity)
    n = len(prep_times)
    result = PipelineResult(0.0, [], [], [])

    def trainer():
        if warmup_s > 0.0:
            yield warmup_s
        for _ in range(n):
            ready_at = sim.now
            item = yield feed.get_event()
            start = sim.now
            result.step_starts.append(start)
            result.stalls.append(max(start - ready_at, 0.0))
            result.delivery_order.append(item[0])
            yield step_time_s
        result.total_time_s = sim.now

    sim.process(trainer(), name="trainer")
    sim.run()
    if result.total_time_s == 0.0 and result.step_starts:
        result.total_time_s = result.step_starts[-1] + step_time_s
    return result


@dataclass
class StallModel:
    """Condensed stall statistics for the straggler/scaling models."""

    probability: float
    mean_stall_s: float

    @classmethod
    def from_result(cls, result: PipelineResult) -> "StallModel":
        return cls(result.stall_probability, result.mean_stall_when_stalled)


def stall_model(prep_times: Sequence[float], n_workers: int,
                step_time_s: float, blocking: bool,
                queue_capacity: int = 4) -> StallModel:
    """Simulate and condense to (stall probability, mean stall)."""
    res = simulate_pipeline(prep_times, n_workers, step_time_s, blocking,
                            queue_capacity=queue_capacity)
    return StallModel.from_result(res)
