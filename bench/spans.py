"""Span recorder and the from-outside instrumentation of the estimate path.

Nothing under ``src/`` knows about it: :func:`instrument` rebinds the
names ``repro.perf.scaling`` resolves at call time (``build_step_trace``,
``partition_step``, ...) and wraps public class methods
(``TraceCacheStore.get_*``/``put_*``, ``StragglerModel.sample_rank_delays``,
``Simulator.schedule_at``), then restores every binding on exit.  A
``gc.callbacks`` hook times the garbage collector's pauses inside
estimates.

Each span records its layer name, start, end, parent span and estimate id;
spans stay in memory until the child process writes them out.  A layer's
self time is its span's duration minus the time its child spans cover, so
the self times of one estimate add up to the estimate's root span.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import time
from collections import Counter
from typing import Callable, Dict, Iterator, List, Optional

#: Root layer: the unattributed remainder of ``estimate_step_time`` (plan
#: build, serial/parallel split, bookkeeping).
ROOT = "perf.scaling"
RANK_DES = "perf.scaling.rank_des"
READ = "framework.trace_io.read"
WRITE = "framework.trace_io.write"
#: Counters of the cyclic garbage collector's work inside estimates.
GC_PAUSE = "python.gc.pause_s"
GC_FULL = "python.gc.full_collections"

#: Layer name -> name of its self-time metric.
SELF_METRICS = {
    ROOT: "perf.scaling.self_s",
    "perf.trace_builder": "perf.trace_builder.self_s",
    READ: "framework.trace_io.read_s",
    WRITE: "framework.trace_io.write_s",
    "distributed.dap": "distributed.dap.self_s",
    "perf.torchcompile": "perf.torchcompile.self_s",
    "perf.vector_cost": "perf.vector_cost.self_s",
    "perf.step_time": "perf.step_time.self_s",
    "distributed.ddp": "distributed.ddp.self_s",
    RANK_DES: "perf.scaling.rank_des.self_s",
    "distributed.straggler": "distributed.straggler.self_s",
    "datapipe.sim_pipeline": "datapipe.sim_pipeline.self_s",
}

#: Layers whose call count is reported per estimate.
CALL_METRICS = {"perf.trace_builder": "perf.trace_builder.calls",
                RANK_DES: "perf.scaling.rank_des.calls"}

#: Caches reported by name from ``cache_registry()``; a cache missing from
#: the registry reads 0 lookups.
CACHES = ("cost-arrays", "dap-partitions", "prep-series", "serial-split",
          "shard-masks", "step-estimates", "step-traces", "trace-structures")


class Recorder:
    """In-memory spans and counters for the estimates of one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: [name, start, end, parent index or -1, estimate id]
        self.spans: List[list] = []
        self.counters: Counter = Counter()
        self._stack: List[int] = []
        self._estimate = -1
        #: Layer of the innermost open span (None outside any estimate).
        self.current_name: Optional[str] = None

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        if parent < 0:
            self._estimate += 1
        index = len(self.spans)
        self.spans.append([name, self.clock(), None, parent, self._estimate])
        self._stack.append(index)
        outer, self.current_name = self.current_name, name
        try:
            yield
        finally:
            self.current_name = outer
            self._stack.pop()
            self.spans[index][2] = self.clock()

    def wrap(self, fn: Callable, name: str,
             on_result: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result
        return traced

    def self_times(self) -> Dict[str, float]:
        """Summed self seconds per layer over every recorded span."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _est in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Dict[str, float] = {}
        for (name, start, end, _parent, _est), child_s in zip(self.spans,
                                                              covered):
            out[name] = out.get(name, 0.0) + (end - start) - child_s
        return out

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def root_seconds(self) -> List[float]:
        """Duration of every estimate (root span), in call order."""
        return [end - start for _n, start, end, parent, _e in self.spans
                if parent < 0]


@contextlib.contextmanager
def _patched(bindings) -> Iterator[None]:
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in bindings]
    try:
        for owner, attr, value in bindings:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)


@contextlib.contextmanager
def instrument(rec: Recorder) -> Iterator[None]:
    """Record a span around every layer entry point of the estimate path."""
    from repro.distributed.straggler import StragglerModel
    from repro.framework.trace_io import TraceCacheStore
    from repro.perf import scaling
    from repro.sim.des import Simulator

    counters = rec.counters

    def count_kernels(breakdown) -> None:
        counters["perf.step_time.kernels"] += breakdown.kernel_count

    def count_buckets(buckets) -> None:
        counters["distributed.ddp.buckets"] += len(buckets)

    schedule_at = Simulator.schedule_at
    rank_des_events = [0]

    def counted_schedule_at(sim, when, callback):
        # Runs once per simulated event, so it stays as lean as possible.
        if rec.current_name == RANK_DES:
            rank_des_events[0] += 1
        return schedule_at(sim, when, callback)

    gc_start: List[Optional[float]] = [None]

    def on_gc(phase: str, info: dict) -> None:
        # Collector pauses inside an estimate.  They fall inside whichever
        # layer allocated, so they overlap the layers' self times instead
        # of adding to them.
        if phase == "start":
            gc_start[0] = rec.clock() if rec.current_name else None
        elif gc_start[0] is not None:
            counters[GC_PAUSE] += rec.clock() - gc_start[0]
            if info["generation"] == 2:
                counters[GC_FULL] += 1

    def module(attr, name, on_result=None):
        return (scaling, attr,
                rec.wrap(getattr(scaling, attr), name, on_result))

    def method(cls, attr, name):
        return (cls, attr, rec.wrap(cls.__dict__[attr], name))

    with _patched([
        module("estimate_step_time", ROOT),
        module("build_step_trace", "perf.trace_builder"),
        module("partition_step", "distributed.dap"),
        module("apply_torch_compile", "perf.torchcompile"),
        module("trace_cost_arrays", "perf.vector_cost"),
        module("simulate_step", "perf.step_time", count_kernels),
        module("bucket_schedule", "distributed.ddp", count_buckets),
        module("_run_distributed_step", RANK_DES),
        module("stall_model", "datapipe.sim_pipeline"),
        method(StragglerModel, "sample_rank_delays", "distributed.straggler"),
        method(TraceCacheStore, "get_trace", READ),
        method(TraceCacheStore, "get_arrays", READ),
        method(TraceCacheStore, "put_trace", WRITE),
        method(TraceCacheStore, "put_arrays", WRITE),
        (Simulator, "schedule_at", counted_schedule_at),
    ]):
        gc.callbacks.append(on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(on_gc)
            counters["sim.des.events"] += rank_des_events[0]
