"""Discrete-event fleet model of the serving tier.

Simulates N frontends feeding a shared CPU feature-prep pool, per-
(workload, length-bucket) batchers, and M GPU execution workers — the
exact pipeline :class:`repro.serve.broker.RequestBroker` runs with real
threads, here as DES processes on :mod:`repro.sim.des` so a day of
traffic over a large fleet costs milliseconds to evaluate.

Every request is priced from the calibrated trace machinery
(:func:`repro.serve.costs.inference_cost` — the same
:mod:`repro.perf.vector_cost` arrays the training path validates), so
fleet-level answers (how many GPUs for this arrival rate? what does p99
look like under bursty traffic? does the SLO survive a node crash?) are
anchored to the same cost model as the training-time results.

Mechanics worth noting:

* Batchers race ``any_of(timeout(max_wait), new_item)`` — the primitive
  whose loser-callback leak this PR fixed — and flush on ``max_batch`` or
  the max-wait deadline, exactly like the threaded broker.
* GPU workers race each batch's service timeout against a *long-lived*
  per-worker fail event (the cluster model's pattern): a fault mid-batch
  aborts the attempt, re-queues the batch for any worker, and takes the
  worker down for detection + restart; SLOW faults stretch service times
  instead.  Faults come from the PR 5 :class:`repro.sim.faults
  .FaultInjector` with ``n_ranks = n_gpu_workers``.
* Everything is seeded (`np.random.default_rng` over (seed, purpose)
  tuples) and the simulation is pure DES, so the JSON report is
  bit-identical run to run — CI diffs two runs byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..sim.des import Event, FifoQueue, Resource, Simulator, any_of, timeout
from ..sim.faults import SLOW, FaultConfig, FaultInjector
from ..workloads import get_workload
from .costs import InferenceCost, inference_cost, prep_seconds

REJECTED = "rejected"
COMPLETED = "completed"


# ----------------------------------------------------------------------
# Traffic
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ArrivalConfig:
    """Request arrival process for the whole fleet (split over frontends).

    ``poisson`` is homogeneous; ``bursty`` multiplies the rate by
    ``burst_factor`` for ``burst_s`` out of every ``burst_every_s``
    (flash-crowd traffic); ``diurnal`` modulates it sinusoidally with
    period ``diurnal_period_s``.  Non-homogeneous patterns are sampled by
    thinning, so the accepted stream is an exact draw from the modulated
    intensity.
    """

    pattern: str = "poisson"          # poisson | bursty | diurnal
    rate_rps: float = 1.0
    burst_factor: float = 4.0
    burst_every_s: float = 60.0
    burst_s: float = 10.0
    diurnal_period_s: float = 600.0
    diurnal_amplitude: float = 0.8    # in [0, 1)

    def __post_init__(self) -> None:
        if self.pattern not in ("poisson", "bursty", "diurnal"):
            raise ValueError(f"unknown arrival pattern {self.pattern!r}")
        if self.rate_rps <= 0:
            raise ValueError("rate_rps must be positive")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1)")

    def intensity(self, t: float) -> float:
        """Instantaneous arrival rate (fleet-wide, requests/second)."""
        if self.pattern == "bursty":
            in_burst = (t % self.burst_every_s) < self.burst_s
            return self.rate_rps * (self.burst_factor if in_burst else 1.0)
        if self.pattern == "diurnal":
            phase = 2.0 * math.pi * t / self.diurnal_period_s
            return self.rate_rps * (1.0
                                    + self.diurnal_amplitude * math.sin(phase))
        return self.rate_rps

    def peak_rate(self) -> float:
        if self.pattern == "bursty":
            return self.rate_rps * self.burst_factor
        if self.pattern == "diurnal":
            return self.rate_rps * (1.0 + self.diurnal_amplitude)
        return self.rate_rps

    def sample_times(self, rng: np.random.Generator, duration_s: float,
                     scale: float = 1.0) -> List[float]:
        """Arrival times on ``[0, duration_s)`` by Poisson thinning.

        ``scale`` divides the intensity (each of F frontends carries 1/F
        of the fleet rate from its own stream).
        """
        lam_max = self.peak_rate() * scale
        times: List[float] = []
        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / lam_max))
            if t >= duration_s:
                return times
            if rng.random() * lam_max <= self.intensity(t) * scale:
                times.append(t)


# ----------------------------------------------------------------------
# Fleet configuration + records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FleetConfig:
    """One serving fleet under one traffic mix."""

    workloads: Tuple[str, ...] = ("alphafold", "transformer")
    #: Traffic mix over ``workloads`` (normalized; uniform when None).
    weights: Optional[Tuple[float, ...]] = None
    preset: str = "tiny"
    gpu: str = "H100"
    n_frontends: int = 2
    n_prep_workers: int = 4
    n_gpu_workers: int = 4
    max_batch: int = 4
    max_wait_s: float = 0.2
    #: Admission bound on admitted-but-unfinished requests (fleet-wide).
    queue_limit: int = 256
    #: Geometric width of the length buckets batched together.
    bucket_factor: float = 2.0
    duration_s: float = 120.0
    #: SLO per workload = slo_factor x its unloaded request latency
    #: (mean prep + max batching wait + a batch-of-one service).
    slo_factor: float = 10.0
    seed: int = 0
    faults: Optional[FaultConfig] = None

    def __post_init__(self) -> None:
        counts = (self.n_frontends, self.n_prep_workers, self.n_gpu_workers,
                  self.max_batch, self.queue_limit)
        if min(counts) < 1:
            raise ValueError("fleet frontends, workers, batch size and "
                             "queue limit must each be >= 1")
        if not 0.0 <= self.max_wait_s < math.inf:
            raise ValueError("batching max wait must be finite and >= 0")

    def resolved_weights(self) -> Tuple[float, ...]:
        weights = self.weights or tuple(1.0 for _ in self.workloads)
        if len(weights) != len(self.workloads):
            raise ValueError("weights must match workloads")
        total = float(sum(weights))
        return tuple(w / total for w in weights)


@dataclass
class FleetRequestRecord:
    """One request's life through the simulated fleet."""

    request_id: int
    frontend: int
    workload: str
    length: int
    t_arrival: float
    prep_s: float
    status: str = ""
    t_prep_start: float = math.nan
    t_prepped: float = math.nan
    t_batched: float = math.nan
    t_done: float = math.nan
    worker: int = -1
    batch_id: int = -1

    @property
    def latency_s(self) -> float:
        return self.t_done - self.t_arrival


@dataclass
class BatchAttempt:
    worker: int
    start: float
    end: float
    outcome: str   # "ok" | fault kind that aborted it


@dataclass
class FleetBatchRecord:
    """One flushed batch (possibly retried across workers after aborts)."""

    batch_id: int
    workload: str
    bucket: int
    request_ids: List[int]
    lengths: List[int]
    service_s: float
    t_flush: float
    attempts: List[BatchAttempt] = field(default_factory=list)


@dataclass
class _WorkerState:
    fail: Optional[Event] = None
    down_until: float = 0.0
    slow_until: float = 0.0
    busy_s: float = 0.0


@dataclass
class _Bucket:
    items: List[FleetRequestRecord] = field(default_factory=list)
    new_item: Optional[Event] = None


# ----------------------------------------------------------------------
# Result + report
# ----------------------------------------------------------------------
@dataclass
class FleetResult:
    """Everything the fleet simulation observed (report + trace source)."""

    config: FleetConfig
    arrival: ArrivalConfig
    costs: Dict[str, InferenceCost]
    slo_s: Dict[str, float]
    requests: List[FleetRequestRecord]
    batches: List[FleetBatchRecord]
    faults: List[Dict[str, object]]
    worker_busy_s: List[float]
    queue_depth_samples: List[Tuple[float, int]]
    makespan_s: float

    # ------------------------------------------------------------------
    def _latency_stats(self, latencies: List[float]) -> Dict[str, float]:
        if not latencies:
            return {"p50": 0.0, "p90": 0.0, "p99": 0.0, "mean": 0.0,
                    "max": 0.0}
        arr = np.asarray(latencies, dtype=np.float64)
        return {
            "p50": float(np.percentile(arr, 50)),
            "p90": float(np.percentile(arr, 90)),
            "p99": float(np.percentile(arr, 99)),
            "mean": float(arr.mean()),
            "max": float(arr.max()),
        }

    def mean_queue_depth(self) -> float:
        """Time-weighted mean of the admitted-but-unfinished count."""
        samples = self.queue_depth_samples
        if len(samples) < 2:
            return 0.0
        total = 0.0
        for (t0, depth), (t1, _) in zip(samples, samples[1:]):
            total += depth * (t1 - t0)
        horizon = samples[-1][0] - samples[0][0]
        return total / horizon if horizon > 0 else 0.0

    def report(self) -> Dict[str, object]:
        """JSON-safe summary; bit-deterministic for a given config."""
        per_workload: Dict[str, object] = {}
        for name in self.config.workloads:
            reqs = [r for r in self.requests if r.workload == name]
            completed = [r for r in reqs if r.status == COMPLETED]
            slo = self.slo_s[name]
            within = [r for r in completed if r.latency_s <= slo]
            per_workload[name] = {
                "requests": len(reqs),
                "completed": len(completed),
                "rejected": len([r for r in reqs if r.status == REJECTED]),
                "slo_s": slo,
                "within_slo": len(within),
                "goodput_rps": (len(within) / self.makespan_s
                                if self.makespan_s > 0 else 0.0),
                "latency_s": self._latency_stats(
                    [r.latency_s for r in completed]),
                "mean_batch_size": (
                    float(np.mean([len(b.request_ids) for b in self.batches
                                   if b.workload == name]))
                    if any(b.workload == name for b in self.batches) else 0.0),
            }
        completed = [r for r in self.requests if r.status == COMPLETED]
        within_all = [r for r in completed
                      if r.latency_s <= self.slo_s[r.workload]]
        aborted = sum(1 for b in self.batches
                      for a in b.attempts if a.outcome != "ok")
        fault_kinds: Dict[str, int] = {}
        for fault in self.faults:
            kind = str(fault["kind"])
            fault_kinds[kind] = fault_kinds.get(kind, 0) + 1
        return {
            "config": {
                "workloads": list(self.config.workloads),
                "weights": list(self.config.resolved_weights()),
                "preset": self.config.preset,
                "gpu": self.config.gpu,
                "n_frontends": self.config.n_frontends,
                "n_prep_workers": self.config.n_prep_workers,
                "n_gpu_workers": self.config.n_gpu_workers,
                "max_batch": self.config.max_batch,
                "max_wait_s": self.config.max_wait_s,
                "queue_limit": self.config.queue_limit,
                "duration_s": self.config.duration_s,
                "arrival_pattern": self.arrival.pattern,
                "arrival_rate_rps": self.arrival.rate_rps,
                "seed": self.config.seed,
                "faults": self.config.faults is not None,
            },
            "costs": {name: cost.as_dict()
                      for name, cost in self.costs.items()},
            "workloads": per_workload,
            "fleet": {
                "requests": len(self.requests),
                "completed": len(completed),
                "rejected": len([r for r in self.requests
                                 if r.status == REJECTED]),
                "makespan_s": self.makespan_s,
                "throughput_rps": (len(completed) / self.makespan_s
                                   if self.makespan_s > 0 else 0.0),
                "goodput_rps": (len(within_all) / self.makespan_s
                                if self.makespan_s > 0 else 0.0),
                "latency_s": self._latency_stats(
                    [r.latency_s for r in completed]),
                "mean_queue_depth": self.mean_queue_depth(),
                "peak_queue_depth": max(
                    (d for _, d in self.queue_depth_samples), default=0),
                "n_batches": len(self.batches),
                "mean_batch_size": (
                    float(np.mean([len(b.request_ids)
                                   for b in self.batches]))
                    if self.batches else 0.0),
                "aborted_attempts": aborted,
                "faults": fault_kinds,
                "worker_utilization": [
                    busy / self.makespan_s if self.makespan_s > 0 else 0.0
                    for busy in self.worker_busy_s],
            },
        }


# ----------------------------------------------------------------------
# Request generation (all randomness happens up front, seeded)
# ----------------------------------------------------------------------
def _generate_requests(config: FleetConfig,
                       arrival: ArrivalConfig) -> List[FleetRequestRecord]:
    arrivals: List[Tuple[float, int]] = []
    for frontend in range(config.n_frontends):
        rng = np.random.default_rng((config.seed, 0xF0, frontend))
        for t in arrival.sample_times(rng, config.duration_s,
                                      scale=1.0 / config.n_frontends):
            arrivals.append((t, frontend))
    arrivals.sort()

    weights = config.resolved_weights()
    rng_mix = np.random.default_rng((config.seed, 0xF1))
    workload_idx = rng_mix.choice(len(config.workloads), size=len(arrivals),
                                  p=list(weights)) if arrivals else []

    # Per-workload length and prep-time streams, consumed in arrival order.
    lengths: Dict[str, List[int]] = {}
    preps: Dict[str, List[float]] = {}
    cursor: Dict[str, int] = {}
    for index, name in enumerate(config.workloads):
        count = int(np.sum(np.asarray(workload_idx) == index)) \
            if len(arrivals) else 0
        rng_len = np.random.default_rng((config.seed, 0xF2, index))
        wl = get_workload(name)
        lengths[name] = [int(v) for v in
                         wl.sample_request_lengths(rng_len, max(count, 1))]
        preps[name] = [float(v) for v in
                       prep_seconds(name, max(count, 1), seed=config.seed)]
        cursor[name] = 0

    requests: List[FleetRequestRecord] = []
    for rid, ((t, frontend), widx) in enumerate(zip(arrivals, workload_idx)):
        name = config.workloads[int(widx)]
        k = cursor[name]
        cursor[name] += 1
        requests.append(FleetRequestRecord(
            request_id=rid, frontend=frontend, workload=name,
            length=lengths[name][k], t_arrival=t, prep_s=preps[name][k]))
    return requests


def _bucket_of(length: int, base_length: int, factor: float) -> int:
    bucket = 0
    edge = base_length
    while length > edge and bucket < 32:
        edge = int(edge * factor)
        bucket += 1
    return bucket


# ----------------------------------------------------------------------
# The simulation
# ----------------------------------------------------------------------
def run_fleet(config: FleetConfig = FleetConfig(),
              arrival: ArrivalConfig = ArrivalConfig()) -> FleetResult:
    """Simulate one fleet under one traffic pattern; fully deterministic."""
    costs = {name: inference_cost(name, preset=config.preset, gpu=config.gpu)
             for name in config.workloads}
    slo_s = {}
    for name in config.workloads:
        cost = costs[name]
        prep_mean = float(np.mean(prep_seconds(name, 256, seed=config.seed)))
        # Anchor the SLO to the *traffic's* typical request, not the
        # preset's canonical length: mean sampled length, solo batch.
        rng_slo = np.random.default_rng((config.seed, 0xF3))
        mean_len = float(np.mean(
            get_workload(name).sample_request_lengths(rng_slo, 256)))
        unloaded = prep_mean + config.max_wait_s \
            + cost.batch_seconds([mean_len])
        slo_s[name] = config.slo_factor * unloaded

    requests = _generate_requests(config, arrival)
    total = len(requests)

    sim = Simulator()
    prep_pool = Resource(sim, capacity=config.n_prep_workers,
                         name="serve-prep")
    dispatch = FifoQueue(sim)
    states = [_WorkerState() for _ in range(config.n_gpu_workers)]
    buckets: Dict[Tuple[str, int], _Bucket] = {}
    batches: List[FleetBatchRecord] = []
    faults_log: List[Dict[str, object]] = []
    depth_samples: List[Tuple[float, int]] = [(0.0, 0)]
    state = {"inflight": 0, "terminal": 0}

    def set_inflight(delta: int) -> None:
        state["inflight"] += delta
        depth_samples.append((sim.now, state["inflight"]))

    def mark_terminal() -> None:
        state["terminal"] += 1

    def finished() -> bool:
        return state["terminal"] >= total

    # -- stage 3: GPU workers ------------------------------------------
    def complete_batch(batch: FleetBatchRecord, worker: int) -> None:
        for rid in batch.request_ids:
            req = requests[rid]
            req.status = COMPLETED
            req.t_done = sim.now
            req.worker = worker
            set_inflight(-1)
            mark_terminal()

    def gpu_worker(worker: int):
        st = states[worker]
        st.fail = Event(sim)
        while True:
            batch = yield dispatch.get_event()
            if sim.now < st.down_until:
                yield st.down_until - sim.now
            service = batch.service_s
            if sim.now < st.slow_until and config.faults is not None:
                service *= config.faults.slow_factor
            start = sim.now
            # Race the long-lived fail event (NOT a fresh one per batch):
            # the any_of loser-detach fix is what keeps this O(1).
            index, value = yield any_of(sim, timeout(sim, service), st.fail)
            if index == 0:
                batch.attempts.append(BatchAttempt(worker, start, sim.now,
                                                   "ok"))
                st.busy_s += sim.now - start
                complete_batch(batch, worker)
            else:
                batch.attempts.append(BatchAttempt(worker, start, sim.now,
                                                   str(value)))
                st.busy_s += sim.now - start
                st.fail = Event(sim)
                dispatch.put(batch)   # any recovered worker may retry it

    for worker in range(config.n_gpu_workers):
        sim.process(gpu_worker(worker), name=f"gpu-worker-{worker}")

    # -- stage 2: per-(workload, bucket) batchers ----------------------
    def flush(key: Tuple[str, int], bucket: _Bucket) -> None:
        group = bucket.items[:config.max_batch]
        del bucket.items[:len(group)]
        cost = costs[key[0]]
        batch = FleetBatchRecord(
            batch_id=len(batches), workload=key[0], bucket=key[1],
            request_ids=[r.request_id for r in group],
            lengths=[r.length for r in group],
            service_s=cost.batch_seconds([r.length for r in group]),
            t_flush=sim.now)
        for req in group:
            req.t_batched = sim.now
            req.batch_id = batch.batch_id
        batches.append(batch)
        dispatch.put(batch)

    def batcher(key: Tuple[str, int], bucket: _Bucket):
        while True:
            if not bucket.items:
                bucket.new_item = Event(sim)
                yield bucket.new_item
            deadline = sim.now + config.max_wait_s
            while len(bucket.items) < config.max_batch:
                remaining = deadline - sim.now
                if remaining <= 0:
                    break
                bucket.new_item = Event(sim)
                index, _ = yield any_of(sim, timeout(sim, remaining),
                                        bucket.new_item)
                if index == 0:
                    break
            flush(key, bucket)

    def enqueue(req: FleetRequestRecord) -> None:
        key = (req.workload,
               _bucket_of(req.length, costs[req.workload].base_length,
                          config.bucket_factor))
        bucket = buckets.get(key)
        if bucket is None:
            bucket = buckets[key] = _Bucket()
            sim.process(batcher(key, bucket),
                        name=f"batcher-{key[0]}-b{key[1]}")
        bucket.items.append(req)
        if bucket.new_item is not None and not bucket.new_item.triggered:
            bucket.new_item.succeed(None)

    # -- stage 1: admission + CPU feature prep -------------------------
    def request_proc(req: FleetRequestRecord):
        yield prep_pool.acquire()
        req.t_prep_start = sim.now
        yield req.prep_s
        prep_pool.release()
        req.t_prepped = sim.now
        enqueue(req)

    def arrive(req: FleetRequestRecord) -> None:
        if state["inflight"] >= config.queue_limit:
            req.status = REJECTED
            req.t_done = sim.now
            mark_terminal()
            return
        set_inflight(+1)
        sim.process(request_proc(req), name=f"request-{req.request_id}")

    for req in requests:
        sim.schedule_at(req.t_arrival, lambda r=req: arrive(r))

    # -- faults --------------------------------------------------------
    if config.faults is not None:
        injector = FaultInjector(config.faults,
                                 n_ranks=config.n_gpu_workers,
                                 gpus_per_node=min(8, config.n_gpu_workers))

        def on_fault(event) -> None:
            faults_log.append({
                "time_s": sim.now, "kind": event.kind,
                "workers": [r % config.n_gpu_workers for r in event.ranks],
            })
            for rank in event.ranks:
                st = states[rank % config.n_gpu_workers]
                if event.kind == SLOW:
                    st.slow_until = max(st.slow_until,
                                        sim.now + event.duration_s)
                elif config.faults is not None:
                    st.down_until = max(
                        st.down_until,
                        sim.now + event.detection_s + config.faults.restart_s)
                    if (st.fail is not None and not st.fail.triggered
                            and st.fail.waiter_count):
                        st.fail.succeed(event.kind)

        injector.attach(sim, on_fault, stop=finished)

    sim.run(max_events=20_000_000)

    terminal_times = [req.t_done for req in requests
                      if not math.isnan(req.t_done)]
    makespan = max(terminal_times) if terminal_times else 0.0
    return FleetResult(
        config=config,
        arrival=arrival,
        costs=costs,
        slo_s=slo_s,
        requests=requests,
        batches=batches,
        faults=faults_log,
        worker_busy_s=[st.busy_s for st in states],
        queue_depth_samples=depth_samples,
        makespan_s=makespan,
    )
