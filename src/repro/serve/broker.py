"""A real concurrent request broker over the numeric model path.

This is not a simulation: :class:`RequestBroker` spins up actual threads
and runs actual tiny-preset workload batches through the actual model.
The pipeline mirrors a production prediction service (and the CPU/GPU
stage split ParaFold formalized for AlphaFold serving):

    submit() -> admission control -> CPU feature-prep pool
             -> length-bucketed batcher (max-batch / max-wait flush)
             -> GPU execution workers (one model replica each, eval mode)
             -> per-request futures

Admission control bounds the number of admitted-but-unfinished requests;
excess submissions are rejected synchronously at the door (load shedding,
not unbounded queueing).  The batcher groups prepped requests by length
bucket and flushes a bucket when it reaches ``max_batch`` or when its
oldest member has waited ``max_wait_s`` — the same policy the DES fleet
model (:mod:`repro.serve.fleet`) prices at scale.

Threading discipline: every mutable counter lives behind ``_lock``; the
prep pool, the batcher thread and the execution workers communicate only
through queues; ``close()`` is idempotent, drains nothing silently (it
fails pending futures with :class:`BrokerClosed`) and joins every thread.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..workloads import get_workload


class BrokerRejected(RuntimeError):
    """Raised by :meth:`RequestBroker.submit` when admission control says no."""


class BrokerClosed(RuntimeError):
    """Set on futures still pending when the broker shuts down."""


@dataclass(frozen=True)
class BrokerConfig:
    """Knobs of the threaded broker (defaults sized for smoke runs)."""

    workload: str = "alphafold"
    preset: str = "tiny"
    #: Flush a length bucket at this many requests ...
    max_batch: int = 4
    #: ... or when its oldest request has waited this long (seconds).
    max_wait_s: float = 0.05
    #: Admission bound: maximum admitted-but-unfinished requests.
    queue_limit: int = 64
    #: CPU feature-preparation threads (workload.request_batch calls).
    prep_workers: int = 2
    #: GPU execution threads, one model replica each.
    gpu_workers: int = 1
    #: Length-bucket width multiplier (requests whose lengths fall in the
    #: same geometric bucket batch together).
    bucket_factor: float = 2.0


@dataclass
class _Request:
    request_id: int
    length: int
    future: Future
    t_submit: float
    t_prepped: float = 0.0
    t_done: float = 0.0
    batch: Optional[dict] = None


@dataclass
class _Batch:
    bucket: int
    requests: List[_Request] = field(default_factory=list)
    t_open: float = 0.0


class RequestBroker:
    """Admission -> prep pool -> batcher -> execution workers, for real."""

    def __init__(self, config: BrokerConfig = BrokerConfig()) -> None:
        self.config = config
        self.workload = get_workload(config.workload)
        self.cfg = self.workload.preset(config.preset)

        self._lock = threading.Lock()
        self._inflight = 0
        self._max_inflight = 0
        self._submitted = 0
        self._rejected = 0
        self._completed = 0
        self._failed = 0
        self._batch_sizes: List[int] = []
        self._latencies: List[float] = []

        self._prepped: "queue.Queue[Optional[_Request]]" = queue.Queue()
        self._dispatch: "queue.Queue[Optional[_Batch]]" = queue.Queue()
        self._closing = threading.Event()
        #: Set by close() only after the prep pool has fully drained; the
        #: batcher must not exit while admitted requests are still being
        #: prepped (closing alone does not mean the pipeline is empty).
        self._prep_drained = threading.Event()

        self._prep_pool = ThreadPoolExecutor(
            max_workers=config.prep_workers,
            thread_name_prefix="serve-prep")
        self._batcher = threading.Thread(target=self._batch_loop,
                                         name="serve-batcher", daemon=True)
        self._workers = [
            threading.Thread(target=self._exec_loop, args=(i,),
                             name=f"serve-gpu-{i}", daemon=True)
            for i in range(config.gpu_workers)
        ]
        self._batcher.start()
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    # Front door
    # ------------------------------------------------------------------
    def submit(self, request_id: int,
               length: Optional[int] = None) -> Future:
        """Admit one request; returns a future resolving to a result dict.

        Raises :class:`BrokerRejected` synchronously when the admitted-but-
        unfinished count has reached ``queue_limit`` (shed at the door) and
        :class:`BrokerClosed` after :meth:`close`.
        """
        if self._closing.is_set():
            raise BrokerClosed("broker is closed")
        with self._lock:
            if self._inflight >= self.config.queue_limit:
                self._rejected += 1
                raise BrokerRejected(
                    f"queue limit {self.config.queue_limit} reached")
            self._submitted += 1
            self._inflight += 1
            self._max_inflight = max(self._max_inflight, self._inflight)
        request = _Request(
            request_id=request_id,
            length=(length if length is not None
                    else self.workload.serve_length(self.cfg)),
            future=Future(),
            t_submit=time.monotonic(),
        )
        try:
            self._prep_pool.submit(self._prep_one, request)
        except RuntimeError:
            # close() shut the prep pool down after the check above.
            with self._lock:
                self._submitted -= 1
                self._inflight -= 1
            raise BrokerClosed("broker is closed") from None
        return request.future

    # ------------------------------------------------------------------
    # Stage 1: CPU feature preparation
    # ------------------------------------------------------------------
    def _prep_one(self, request: _Request) -> None:
        try:
            request.batch = self.workload.request_batch(
                self.cfg, request.request_id)
            request.t_prepped = time.monotonic()
            self._prepped.put(request)
        except BaseException as exc:  # noqa: BLE001 - forwarded to caller
            self._finish(request, error=exc)

    # ------------------------------------------------------------------
    # Stage 2: length-bucketed batching with a max-wait timer
    # ------------------------------------------------------------------
    def _bucket_of(self, length: int) -> int:
        factor = self.config.bucket_factor
        bucket = 0
        edge = self.workload.serve_length(self.cfg)
        while length > edge and bucket < 32:
            edge = int(edge * factor)
            bucket += 1
        return bucket

    def _batch_loop(self) -> None:
        open_batches: Dict[int, _Batch] = {}

        def flush(bucket: int) -> None:
            batch = open_batches.pop(bucket)
            self._dispatch.put(batch)

        while True:
            if open_batches:
                oldest = min(b.t_open for b in open_batches.values())
                timeout = max(
                    0.0, oldest + self.config.max_wait_s - time.monotonic())
            else:
                timeout = None if not self._prep_drained.is_set() else 0.05
            try:
                request = self._prepped.get(timeout=timeout)
            except queue.Empty:
                request = None
            if request is not None:
                bucket = self._bucket_of(request.length)
                batch = open_batches.get(bucket)
                if batch is None:
                    batch = open_batches[bucket] = _Batch(
                        bucket=bucket, t_open=time.monotonic())
                batch.requests.append(request)
                if len(batch.requests) >= self.config.max_batch:
                    flush(bucket)
                continue
            # Timer path: flush every bucket whose oldest member timed out.
            now = time.monotonic()
            for bucket in [b for b, batch in open_batches.items()
                           if now - batch.t_open >= self.config.max_wait_s]:
                flush(bucket)
            # Exit only once close() has confirmed the prep pool is fully
            # drained: requests can be admitted-but-not-yet-prepped long
            # after _closing is set, and exiting on _closing alone would
            # orphan them (their futures would never resolve).
            if self._prep_drained.is_set() and self._prepped.empty():
                for bucket in list(open_batches):
                    flush(bucket)
                for _ in self._workers:
                    self._dispatch.put(None)
                return

    # ------------------------------------------------------------------
    # Stage 3: GPU execution workers (one real model replica each)
    # ------------------------------------------------------------------
    def _exec_loop(self, worker_index: int) -> None:
        # Each worker owns a replica, built once, in eval mode (inference
        # disables dropout, so outputs are deterministic in request_id).
        model, _ = self.workload.build(self.cfg)
        if hasattr(model, "eval"):
            model.eval()
        while True:
            batch = self._dispatch.get()
            if batch is None:
                return
            with self._lock:
                self._batch_sizes.append(len(batch.requests))
            for request in batch.requests:
                try:
                    outputs = self.workload.infer(model, request.batch)
                    self._finish(request, outputs=outputs)
                except BaseException as exc:  # noqa: BLE001
                    self._finish(request, error=exc)

    # ------------------------------------------------------------------
    # Bookkeeping + shutdown
    # ------------------------------------------------------------------
    def _finish(self, request: _Request, outputs=None,
                error: Optional[BaseException] = None) -> None:
        request.t_done = time.monotonic()
        with self._lock:
            self._inflight -= 1
            if error is None:
                self._completed += 1
                self._latencies.append(request.t_done - request.t_submit)
            else:
                self._failed += 1
        if error is None:
            request.future.set_result({
                "request_id": request.request_id,
                "length": request.length,
                "outputs": outputs,
                "latency_s": request.t_done - request.t_submit,
            })
        else:
            request.future.set_exception(error)

    def close(self) -> None:
        """Drain admitted work, then stop and join every thread."""
        if self._closing.is_set():
            return
        self._closing.set()
        self._prep_pool.shutdown(wait=True)
        self._prep_drained.set()
        self._prepped.put(None)  # wake the batcher if it is parked
        self._batcher.join()
        for worker in self._workers:
            worker.join()
        # A None sentinel may still sit in the prepped queue; nothing reads
        # it again.  Any request that never reached _finish (prep raised
        # after shutdown began) fails loudly rather than hanging callers.
        # (With shutdown(wait=True) above this is a belt-and-braces path.)

    def __enter__(self) -> "RequestBroker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def stats(self) -> Dict[str, object]:
        """Counters; deterministic fields only under submit-all-up-front."""
        with self._lock:
            return {
                "submitted": self._submitted,
                "rejected": self._rejected,
                "completed": self._completed,
                "failed": self._failed,
                "max_inflight": self._max_inflight,
                "n_batches": len(self._batch_sizes),
                "batch_sizes": sorted(self._batch_sizes),
                "latencies_s": list(self._latencies),
            }


def run_broker_smoke(workload: str = "alphafold", n_requests: int = 4,
                     config: Optional[BrokerConfig] = None) -> Dict[str, object]:
    """Serve ``n_requests`` concurrently through the real model path.

    All requests are submitted before any result is awaited, so the broker
    genuinely holds ``n_requests`` in flight at once (``max_inflight`` in
    the report proves it).  Returns a report whose ``deterministic``
    section is stable across runs; wall-clock timings live separately.
    """
    config = config or BrokerConfig(workload=workload)
    t0 = time.monotonic()
    with RequestBroker(config) as broker:
        futures = [broker.submit(i) for i in range(n_requests)]
        results = [f.result(timeout=120.0) for f in futures]
    wall_s = time.monotonic() - t0
    stats = broker.stats()
    output_keys = {str(r["request_id"]): sorted(r["outputs"]) for r in results}
    return {
        "deterministic": {
            "workload": config.workload,
            "preset": config.preset,
            "n_requests": n_requests,
            "submitted": stats["submitted"],
            "completed": stats["completed"],
            "rejected": stats["rejected"],
            "failed": stats["failed"],
            "max_inflight": stats["max_inflight"],
            "output_keys": output_keys,
        },
        "timing": {
            "wall_s": wall_s,
            "latencies_s": stats["latencies_s"],
            "batch_sizes": stats["batch_sizes"],
        },
    }
