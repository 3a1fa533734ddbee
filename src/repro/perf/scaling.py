"""Distributed step-time scenarios: DAP scaling, barriers, and the
optimization ladder (Figures 3, 7, 8 of the paper).

:class:`Scenario` describes one training configuration (workload and size
preset, kernel policy, DAP degree, GPU, pipeline and host options).
:func:`estimate_step_time`, the only entry point, runs it through two
simulation levels; ``engine`` selects a closed form or an event engine for
both, and the event engines are the closed forms' oracles:

1. the **kernel level** (:func:`repro.perf.step_time.simulate_step`)
   simulates the CPU dispatch stream against the GPU compute stream over
   the DAP-partitioned kernel trace, and reports segment marks at every
   embedded collective position and phase boundary;
2. the **rank level** (:func:`_run_distributed_step`) replays those compute
   segments on every DAP rank, with DAP collective bundles at their actual
   trace positions (a barrier, then the transfer), DDP bucket all-reduces
   launched at their gradient-ready points on a per-rank NIC and overlapped
   with backward, per-rank data-loader queues
   (:class:`repro.datapipe.sim_pipeline.PipelineFeed`) whose empty-queue
   waits surface as stalls, per-rank host-jitter clock offsets, and a
   world-size straggler gate at the gradient sync.  The event engine runs
   one process per rank on a shared simulator; the closed form
   (:func:`repro.perf.fast_rank.solve_rank_steps`) solves the same schedule
   as barrier maxima and a FIFO recursion per NIC.

The familiar additive breakdown (``compute + dap_comm + ddp_exposed +
imbalance``) partitions the simulated rank-0 step: every interval is
attributed to the resource that blocked it, so overlap is a simulation
artifact, not a hand-tuned subtraction.  ``engine="event"`` estimates also
record the per-rank intervals (``StepEstimate.timeline``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..datapipe.sim_pipeline import PipelineFeed, StallModel, stall_model
from ..distributed.collectives import collective_time
from ..distributed.dap import partition_step
from ..distributed.ddp import bucket_schedule
from ..distributed.straggler import ImbalanceInputs, StragglerModel
from ..distributed.topology import ClusterTopology
from ..framework.caching import LruCache, register_cache
from ..framework.dtypes import bfloat16
from ..framework.tracer import KernelRecord
from ..hardware.cpu import CpuJitterConfig
from ..hardware.gpu import get_gpu
from ..hardware.roofline import CostModel
from ..model.config import KernelPolicy
from ..sim.des import Barrier, Event, Process, Resource, Simulator, Timeline
from ..workloads import DEFAULT_WORKLOAD, Workload, get_workload
from .fast_rank import STAT_KEYS, Unordered, solve_rank_steps
from .fast_step import sequential_sum
from .step_time import check_engine, simulate_step
from .torchcompile import apply_torch_compile
from .trace_builder import build_step_trace, trace_key
from .vector_cost import (TraceStructure, cost_cache_material,
                          extract_structure, trace_cost_arrays)

#: Rank-level simulation horizon: warmup steps absorb loader cold start and
#: are excluded from the reported means.
N_WARMUP_STEPS = 2
N_MEASURED_STEPS = 8
#: Seed offset separating the simulated ranks' jitter stream from the
#: world-gate sampling stream (which must stay bit-identical per seed).
_RANK_JITTER_SEED_OFFSET = 9173
#: Finished batches a rank's data loader may queue ahead of the trainer.
DATA_QUEUE_CAPACITY = 16


def scalefold_checkpointing(dap_n: int) -> bool:
    """Whether the ScaleFold system keeps activation checkpointing at DAP
    degree ``dap_n``: the paper turns it off at DAP-8 (§4.1)."""
    return dap_n < 8


@dataclass
class Scenario:
    """One training configuration to estimate; the defaults are the eager
    fp32 OpenFold reference system."""

    policy: KernelPolicy = field(default_factory=KernelPolicy.reference)
    gpu: str = "H100"
    dap_n: int = 1
    dp_degree: int = 128           # data-parallel replicas (global bs 128)
    cuda_graphs: bool = False
    gc_disabled: bool = False
    torch_compile: bool = False
    nonblocking_pipeline: bool = False
    data_workers: int = 8
    n_recycle: int = 1
    imbalance_enabled: bool = True
    seed: int = 17
    workload: str = DEFAULT_WORKLOAD
    #: DDP gradient-bucket size in MiB (PyTorch default 25).  A pure
    #: rank-level knob: changing it re-runs only the distributed DES over
    #: the cached trace/partition/cost state.
    ddp_bucket_mb: float = 25.0
    #: Model size preset (``wl.preset(preset, policy)``): the trace and the
    #: DAP collective bundles both come from this one config.
    preset: str = "full"

    @classmethod
    def scalefold(cls, dap_n: int = 8, **fields) -> "Scenario":
        """The paper's final system (§3-§4) at DAP degree ``dap_n``: every
        fused kernel in bf16, checkpointing per
        :func:`scalefold_checkpointing`, CUDA graphs whenever DAP shards
        the step, GC off, torch.compile and the non-blocking loader.
        ``fields`` set the other fields or override any of these."""
        system = dict(
            policy=KernelPolicy.scalefold(
                checkpointing=scalefold_checkpointing(dap_n)),
            dap_n=dap_n, cuda_graphs=dap_n > 1, gc_disabled=True,
            torch_compile=True, nonblocking_pipeline=True)
        system.update(fields)
        return cls(**system)

    @property
    def world_size(self) -> int:
        return self.dp_degree * self.dap_n

    def label(self) -> str:
        bits = [self.gpu, f"DAP-{self.dap_n}"]
        if self.preset != "full":
            bits.insert(0, self.preset)
        if self.workload != DEFAULT_WORKLOAD:
            bits.insert(0, self.workload)
        p = self.policy
        for flag, name in ((p.batched_gemm, "gemm"), (p.fused_mha, "mha"),
                           (p.fused_layernorm, "ln"), (p.fused_adam_swa, "adam"),
                           (self.cuda_graphs, "graph"), (self.gc_disabled, "gc-off"),
                           (self.torch_compile, "compile"),
                           (self.nonblocking_pipeline, "nbpipe")):
            if flag:
                bits.append(name)
        if p.dtype.name != "fp32":
            bits.append(p.dtype.name)
        if not p.activation_checkpointing:
            bits.append("no-ckpt")
        return "+".join(bits)


@dataclass
class StepEstimate:
    """Wall-clock decomposition of one distributed training step.

    The component fields partition the simulated rank-0 timeline exactly:
    every interval of the step is attributed to the resource that occupied
    or blocked the rank, so ``total_s == compute_s + dap_comm_s +
    ddp_exposed_s + imbalance_s``.
    """

    scenario_label: str
    compute_s: float           # DES device+host compute (kernel level)
    cpu_exposed_s: float       # host dispatch exposed inside compute_s
    serial_compute_s: float    # device time in non-DAP-shardable scopes
    parallel_compute_s: float  # device time in shardable scopes
    dap_comm_s: float          # DAP all-to-all / all-gather (exposed)
    ddp_exposed_s: float       # gradient all-reduce left over after overlap
    imbalance_s: float         # waiting on the slowest synchronized rank
    data_stall_mean_s: float   # per-rank average wait on data
    total_s: float
    kernel_count: int
    stall: StallModel
    #: Per-rank interval attribution; only ``engine="event"`` records it.
    #: Left out of ``==``, so a fast and an event estimate compare equal.
    timeline: Optional[Timeline] = field(default=None, compare=False)

    def as_dict(self) -> Dict[str, float]:
        out = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)
               if f.compare}
        out["stall"] = dataclasses.asdict(self.stall)
        return out


# Shared straggler RNG cache keyed by seed so estimates are deterministic.
_PREP_CACHE = register_cache(LruCache(capacity=8, name="prep-series"))


def _prep_times(workload: Workload, seed: int = 5, n: int = 1024) -> np.ndarray:
    return _PREP_CACHE.get_or_create(
        (workload.name, seed, n),
        lambda: workload.prep_time_series(seed=seed, n=n))


# ----------------------------------------------------------------------
# Rank-level simulation
# ----------------------------------------------------------------------
@dataclass
class _PlanOp:
    """One entry of a rank's per-step schedule."""

    kind: str      # "compute" | "comm"
    seconds: float
    phase: str


def _build_step_plan(structure: TraceStructure,
                     segments, topo: ClusterTopology) -> List[_PlanOp]:
    """Turn kernel-level segment marks into a rank-step schedule.

    Each compute segment becomes a timed span on the rank's GPU stream; each
    embedded COMM record (``structure.comm_positions``) becomes a collective
    bundle (costed through the alpha-beta model) at exactly that position.
    """
    comm_at = {pos: k for k, pos in
               enumerate(structure.comm_positions.tolist())}
    plan: List[_PlanOp] = []
    for seg in segments:
        if seg.wall_s > 0.0:
            plan.append(_PlanOp("compute", seg.wall_s, seg.phase))
        k = comm_at.get(seg.end_index)
        if k is not None:
            seconds = sum(collective_time(ev, topo)
                          for ev in structure.comm_events[k])
            plan.append(_PlanOp("comm", seconds, structure.comm_phases[k]))
    return plan


def _run_distributed_step(plan: List[_PlanOp],
                          n_ranks: int,
                          n_steps: int,
                          buckets: List[Tuple[float, float]],
                          gate_s: float = 0.0,
                          rank_delays: Optional[np.ndarray] = None,
                          prep_series: Optional[np.ndarray] = None,
                          data_workers: int = 8,
                          data_queue_capacity: int = DATA_QUEUE_CAPACITY,
                          blocking_pipeline: bool = True,
                          engine: str = "fast",
                          timeline: Optional[Timeline] = None
                          ) -> Dict[str, np.ndarray]:
    """Simulate ``n_steps`` distributed steps over ``n_ranks`` DAP ranks.

    Returns per-(step, rank) arrays that tile each step's wall time (see
    :data:`repro.perf.fast_rank.STAT_KEYS`).  ``engine="fast"`` solves the
    schedule in closed form (:func:`repro.perf.fast_rank.solve_rank_steps`)
    and hands any run it cannot order exactly to the event engine;
    ``engine="event"`` always runs the event engine, the only one that can
    record a ``timeline``.
    """
    args = (plan, n_ranks, n_steps, buckets, gate_s, rank_delays,
            prep_series, data_workers, data_queue_capacity, blocking_pipeline)
    if engine == "fast":
        if timeline is not None:
            raise ValueError("only engine='event' records a timeline")
        try:
            return solve_rank_steps(*args)
        except Unordered:
            pass
    return _simulate_rank_steps(*args, timeline=timeline)


def _simulate_rank_steps(plan: List[_PlanOp],
                         n_ranks: int,
                         n_steps: int,
                         buckets: List[Tuple[float, float]],
                         gate_s: float,
                         rank_delays: Optional[np.ndarray],
                         prep_series: Optional[np.ndarray],
                         data_workers: int,
                         data_queue_capacity: int,
                         blocking_pipeline: bool,
                         timeline: Optional[Timeline] = None
                         ) -> Dict[str, np.ndarray]:
    """The rank-level event engine: one process per rank, shared simulator.

    Every rank is one process; all waiting happens on simulator events
    (barriers, queue gets, resource grants), and every simulated second of
    the rank timeline is attributed to exactly one component, so the
    returned per-(step, rank) arrays tile each step's wall time.
    """
    sim = Simulator()
    barrier = Barrier(sim, n_ranks, name="dap-sync")
    backward_wall = sum(op.seconds for op in plan
                        if op.kind == "compute" and op.phase == "backward")
    update_start: Optional[int] = next(
        (i for i, op in enumerate(plan) if op.phase == "update"), None)

    keys = STAT_KEYS
    stats = {k: np.zeros((n_steps, n_ranks)) for k in keys}
    step_extra: Dict[int, float] = {}

    feeds: List[Optional[PipelineFeed]] = [None] * n_ranks
    if prep_series is not None:
        feeds = [PipelineFeed(sim, prep_series[r::n_ranks], data_workers,
                              blocking=blocking_pipeline,
                              queue_capacity=data_queue_capacity)
                 for r in range(n_ranks)]

    def spawn_bucket(nic: Resource, seconds: float, offset: float,
                     rank: int) -> Event:
        finished = Event(sim)

        def bucket_proc():
            yield nic.acquire()
            started = sim.now
            yield seconds
            nic.release()
            if timeline is not None:
                timeline.record("nic", "ddp_comm", started, sim.now, rank)
            finished.succeed(None)

        sim.schedule(offset, lambda: Process(sim, bucket_proc(),
                                             name=f"ddp-bucket-r{rank}"))
        return finished

    def rank_proc(rank: int):
        nic = Resource(sim, name=f"nic-{rank}")
        feed = feeds[rank]
        # Every rank logs into the shared timeline; consumers filter by
        # the interval's ``rank`` (the chrome-trace exporter emits one
        # track per rank, the breakdown derivation reads rank 0).
        tl = timeline
        for step in range(n_steps):
            acc = dict.fromkeys(keys, 0.0)
            if feed is not None:
                t0 = sim.now
                yield feed.get_event()
                acc["data"] = sim.now - t0
                if tl is not None:
                    tl.record("loader", "data_wait", t0, sim.now, rank)
            if rank_delays is not None:
                delay = float(rank_delays[step, rank])
                if delay > 0.0:
                    t0 = sim.now
                    yield delay
                    acc["host"] = sim.now - t0
                    if tl is not None:
                        tl.record("host", "jitter", t0, sim.now, rank)
            backward_done = 0.0
            next_bucket = 0
            bucket_events: List[Event] = []
            for i, op in enumerate(plan):
                if i == update_start:
                    # Optimizer waits on all gradient buckets: whatever the
                    # backward could not hide is the exposed DDP cost.
                    while next_bucket < len(buckets):
                        bucket_events.append(spawn_bucket(
                            nic, buckets[next_bucket][1], 0.0, rank))
                        next_bucket += 1
                    t0 = sim.now
                    for ev in bucket_events:
                        yield ev
                    acc["ddp_wait"] += sim.now - t0
                    if tl is not None:
                        tl.record("nic", "ddp_wait", t0, sim.now, rank)
                if op.kind == "compute":
                    if op.phase == "backward" and buckets:
                        # Launch every bucket whose gradients become ready
                        # inside this span, at its ready offset.
                        span_end = backward_done + op.seconds
                        while (next_bucket < len(buckets)
                               and buckets[next_bucket][0] * backward_wall
                               <= span_end + 1e-15):
                            frac, secs = buckets[next_bucket]
                            offset = max(frac * backward_wall - backward_done,
                                         0.0)
                            bucket_events.append(
                                spawn_bucket(nic, secs, offset, rank))
                            next_bucket += 1
                    t0 = sim.now
                    yield op.seconds
                    acc["compute"] += op.seconds
                    if op.phase == "backward":
                        backward_done += op.seconds
                    if tl is not None:
                        tl.record("gpu", "compute", t0, sim.now, rank)
                else:
                    t0 = sim.now
                    yield barrier.arrive()
                    acc["dap_sync"] += sim.now - t0
                    if tl is not None:
                        tl.record("nic", "dap_sync", t0, sim.now, rank)
                    t0 = sim.now
                    yield op.seconds
                    acc["dap_comm"] += op.seconds
                    if tl is not None:
                        tl.record("nic", "dap_comm", t0, sim.now, rank)
            if update_start is None and (buckets or bucket_events):
                while next_bucket < len(buckets):
                    bucket_events.append(spawn_bucket(
                        nic, buckets[next_bucket][1], 0.0, rank))
                    next_bucket += 1
                t0 = sim.now
                for ev in bucket_events:
                    yield ev
                acc["ddp_wait"] += sim.now - t0
            # World-size straggler gate at the gradient sync: the DAP group
            # re-synchronizes here, and the step cannot complete before the
            # slowest of the whole data-parallel world.
            extra = acc["data"] + acc["host"]
            step_extra[step] = max(step_extra.get(step, 0.0), extra)
            t0 = sim.now
            yield barrier.arrive()
            acc["dap_sync"] += sim.now - t0
            if gate_s > 0.0:
                wait = gate_s - step_extra[step]
                if wait > 0.0:
                    t0 = sim.now
                    yield wait
                    acc["gate"] = sim.now - t0
                    if tl is not None:
                        tl.record("nic", "world_gate", t0, sim.now, rank)
            acc["total"] = sum(acc[k] for k in keys if k != "total")
            for k in keys:
                stats[k][step, rank] = acc[k]

    for r in range(n_ranks):
        sim.process(rank_proc(r), name=f"rank-{r}")
    sim.run()
    return stats


def _scenario_key(scenario: Scenario) -> Tuple:
    # Every field is part of the key, so a new Scenario field can never
    # alias cached estimates.  The spec signature pins the key to the spec
    # registered under the name now, as it pins the cost caches: estimates
    # computed against a replaced spec can't be replayed.
    values = tuple(getattr(scenario, f.name)
                   for f in dataclasses.fields(scenario))
    return (tuple(v.signature() if isinstance(v, KernelPolicy) else v
                  for v in values)
            + (get_gpu(scenario.gpu).signature(),))


_ESTIMATE_CACHE = register_cache(LruCache(capacity=256, name="step-estimates"))


#: Scenario fields that do not reach the partitioned records: the GPU (the
#: cost material carries its whole spec) and the rank-stage fields.  Every
#: other field is part of the records' identity (:func:`_records_id`).
_RANK_FIELDS = ("gpu", "dp_degree", "cuda_graphs", "gc_disabled",
                "nonblocking_pipeline", "data_workers", "imbalance_enabled",
                "seed", "ddp_bucket_mb")


def _records_id(scenario: Scenario) -> Tuple:
    """Identity of a scenario's partitioned (and compiled) records: its
    trace key plus every :class:`Scenario` field outside
    :data:`_RANK_FIELDS`, so a new field can never alias them.  It keys the
    partition entry and, through :func:`cost_cache_material`, the cost
    entry a warm estimate trusts without the records behind it."""
    wl = get_workload(scenario.workload)
    cfg = wl.preset(scenario.preset, scenario.policy)
    values = ((f.name, getattr(scenario, f.name))
              for f in dataclasses.fields(scenario)
              if f.name not in _RANK_FIELDS)
    fields = tuple((name, v.signature() if isinstance(v, KernelPolicy) else v)
                   for name, v in values)
    return ("dap-records",
            trace_key(scenario.policy, n_recycle=scenario.n_recycle, cfg=cfg,
                      workload=wl),
            fields)


@dataclass
class _Partition:
    """The structure of one DAP-partitioned (and optionally compiled)
    record list, and the records once something needed them.

    An entry taken from a cost-entry hit holds only the structure: another
    GPU re-costs it, and builds the records just for the tunable kernels.
    """

    structure: TraceStructure
    records: Optional[List[KernelRecord]] = None


#: DAP partitioning + the torch.compile record transform are pure
#: deterministic functions of (trace identity, DAP degree, compile flag);
#: the resulting record lists are immutable by convention, so scenarios
#: sharing a partitioned trace share one entry instead of re-partitioning
#: ~150k records per estimate.  Sized for the optimizer's joint knob
#: search (policy x DAP x compile combinations alive at once), not just
#: the 10-rung ladder; entries may hold full record lists, so the cap
#: stays moderate.
_DAP_CACHE = register_cache(LruCache(capacity=32, name="dap-partitions"))


def clear_estimate_cache() -> None:
    _ESTIMATE_CACHE.clear()


def clear_partition_cache() -> None:
    """Drop cached DAP partitions with the records and structures they
    hold."""
    _DAP_CACHE.clear()


def _partition(scenario: Scenario, records_id: Tuple) -> _Partition:
    """The partition entry of ``records_id``, with its records: on a miss,
    or for an entry that holds only a structure, the step trace is built,
    DAP-partitioned and compiled."""
    part = _DAP_CACHE.get(records_id)
    if part is not None and part.records is not None:
        return part
    wl = get_workload(scenario.workload)
    cfg = wl.preset(scenario.preset, scenario.policy)
    trace = build_step_trace(scenario.policy, n_recycle=scenario.n_recycle,
                             cfg=cfg, workload=wl)
    records = partition_step(trace, scenario.dap_n, wl, cfg)
    if scenario.torch_compile:
        records = apply_torch_compile(records)
    structure = part.structure if part is not None else None
    if structure is None or structure.n_records != len(records):
        structure = extract_structure(records, wl.shardable_scopes,
                                      trace.n_params)
    part = _Partition(structure, records)
    _DAP_CACHE.put(records_id, part)
    return part


def estimate_step_time(scenario: Scenario,
                       engine: str = "fast") -> StepEstimate:
    """Simulate one scenario's expected step time (two levels).

    ``engine`` selects both levels: ``"fast"`` runs the closed forms
    (:func:`repro.perf.step_time.simulate_step` with ``engine="fast"`` and
    :func:`repro.perf.fast_rank.solve_rank_steps`), ``"event"`` the event
    engines, which are their oracles.  Only ``"fast"`` estimates are
    memoized, so an ``"event"`` estimate always runs its engines; only
    ``"event"`` estimates record ``StepEstimate.timeline``.
    """
    check_engine(engine)
    cacheable = engine == "fast"
    if cacheable:
        key = _scenario_key(scenario)
        cached = _ESTIMATE_CACHE.get(key)
        if cached is not None:
            return cached

    wl = get_workload(scenario.workload)
    gpu = get_gpu(scenario.gpu)
    topo = ClusterTopology(gpu=gpu, n_gpus=scenario.world_size)
    records_id = _records_id(scenario)
    looked_up: List[_Partition] = []

    def partition() -> _Partition:
        # At most one partition lookup per estimate, and none on a hit.
        if not looked_up:
            looked_up.append(_partition(scenario, records_id))
        return looked_up[0]

    # --- kernel level: dispatch vs compute streams, segment marks at every
    # collective position and phase boundary ---
    cost = CostModel(gpu, autotune=True)
    # The per-kernel cost arrays and the structure they carry depend only
    # on (partitioned-trace identity, GPU spec, autotune): one evaluation
    # shared by every scenario over the same partitioned trace, and, via
    # the on-disk store, by every fresh process.  The fast engine reads
    # nothing else from the records, so a hit builds none; the event
    # engine's oracle walks the records themselves.
    records = partition().records if engine == "event" else None
    costs = trace_cost_arrays(
        records if records is not None else lambda: partition().records,
        cost,
        store_material=cost_cache_material(repr(records_id), gpu, True),
        structure=lambda: partition().structure)
    structure = costs.structure
    if records_id not in _DAP_CACHE:
        # A cost-entry hit: keep its structure, so another GPU re-costs it
        # instead of re-walking the records.
        _DAP_CACHE.put(records_id, _Partition(structure))
    breakdown = simulate_step(records, gpu, cost,
                              graphed=scenario.cuda_graphs,
                              segment_marks=structure.default_marks,
                              engine=engine, costs=costs)
    plan = _build_step_plan(structure, breakdown.segments, topo)
    serial_s = sequential_sum(costs.seconds[~structure.shardable])
    parallel_s = sequential_sum(costs.seconds[structure.shardable])

    param_bytes = structure.n_params * scenario.policy.dtype.itemsize
    buckets = bucket_schedule(param_bytes, scenario.dp_degree, topo,
                              bucket_bytes=int(scenario.ddp_bucket_mb * 2**20))

    # --- rank level, dry run: a deterministic pass (no jitter, no loader)
    # whose emergent step time is the trainer's service rate for the data
    # pipeline model ---
    dry = _run_distributed_step(plan, scenario.dap_n, n_steps=2,
                                buckets=buckets, engine=engine)
    nominal_step = float(dry["total"][-1, 0])

    prep = _prep_times(wl, seed=5, n=768)
    stall = stall_model(prep, scenario.data_workers, max(nominal_step, 1e-3),
                        blocking=not scenario.nonblocking_pipeline,
                        queue_capacity=DATA_QUEUE_CAPACITY)
    data_stall_mean = stall.probability * stall.mean_stall_s

    # --- straggler inputs: per-rank jitter for the simulated DAP group, and
    # the world-size gate (the slowest of the whole synchronized world) ---
    jittered = scenario.imbalance_enabled and scenario.world_size > 1
    n_steps = N_WARMUP_STEPS + N_MEASURED_STEPS
    gate = 0.0
    rank_delays = None
    prep_series = None
    if jittered:
        jitter = CpuJitterConfig(gc_enabled=not scenario.gc_disabled)
        model = StragglerModel(jitter=jitter, seed=scenario.seed)
        inputs = ImbalanceInputs(
            eager_dispatch_s=breakdown.dispatch_total_s,
            graphed=scenario.cuda_graphs,
            data_stall_probability=stall.probability,
            data_stall_mean_s=stall.mean_stall_s,
        )
        # Every rank must pass the same all-reduce: the slowest of the
        # whole world gates the step.  (Sampling cost is bounded by capping
        # the simulated group at 256 ranks; E[max] grows ~log beyond.)
        group = min(scenario.world_size, 256)
        delays = model.sample_rank_delays(inputs, group, n_steps=500)
        gate = float(delays.max(axis=1).mean())
        # The simulated ranks draw their own jitter (data stalls emerge from
        # the loader queues instead, so they are excluded here).
        rank_model = StragglerModel(
            jitter=jitter, seed=scenario.seed + _RANK_JITTER_SEED_OFFSET)
        rank_delays = rank_model.sample_rank_delays(
            dataclasses.replace(inputs, data_stall_probability=0.0,
                                data_stall_mean_s=0.0),
            scenario.dap_n, n_steps)
        prep_series = prep

    # --- rank level, full run ---
    timeline = Timeline() if engine == "event" else None
    stats = _run_distributed_step(
        plan, scenario.dap_n, n_steps=n_steps, buckets=buckets,
        gate_s=gate, rank_delays=rank_delays, prep_series=prep_series,
        data_workers=scenario.data_workers,
        data_queue_capacity=DATA_QUEUE_CAPACITY,
        blocking_pipeline=not scenario.nonblocking_pipeline,
        engine=engine, timeline=timeline)

    window = slice(N_WARMUP_STEPS, None)

    def mean0(key: str) -> float:
        return float(stats[key][window, 0].mean())

    compute_s = mean0("compute")
    dap_comm_s = mean0("dap_comm")
    ddp_exposed_s = mean0("ddp_wait")
    imbalance_s = mean0("data") + mean0("host") + mean0("dap_sync") + mean0("gate")
    total = compute_s + dap_comm_s + ddp_exposed_s + imbalance_s
    estimate = StepEstimate(
        scenario_label=scenario.label(),
        compute_s=compute_s,
        cpu_exposed_s=breakdown.cpu_exposed_s,
        serial_compute_s=serial_s,
        parallel_compute_s=parallel_s,
        dap_comm_s=dap_comm_s,
        ddp_exposed_s=ddp_exposed_s,
        imbalance_s=imbalance_s,
        data_stall_mean_s=data_stall_mean,
        total_s=total,
        kernel_count=breakdown.kernel_count,
        stall=stall,
        timeline=timeline,
    )
    if cacheable:
        _ESTIMATE_CACHE.put(key, estimate)
    return estimate


# ----------------------------------------------------------------------
# Figure 3: barrier decomposition
# ----------------------------------------------------------------------
@dataclass
class BarrierBreakdown:
    """Gap between actual DAP-n step time and the ideal DAP-1/n time."""

    dap_n: int
    actual_s: float
    ideal_s: float
    cpu_overhead_s: float
    serial_modules_s: float
    kernel_scalability_s: float
    comm_overhead_s: float
    imbalanced_comm_s: float

    @property
    def gap_s(self) -> float:
        return self.actual_s - self.ideal_s

    def shares(self) -> Dict[str, float]:
        gap = max(self.gap_s, 1e-12)
        return {
            "cpu_overhead": self.cpu_overhead_s / gap,
            "serial_modules": self.serial_modules_s / gap,
            "kernel_scalability": self.kernel_scalability_s / gap,
            "comm_overhead": self.comm_overhead_s / gap,
            "imbalanced_comm": self.imbalanced_comm_s / gap,
        }


def barrier_breakdown(scenario: Scenario,
                      base_estimate: Optional[StepEstimate] = None) -> BarrierBreakdown:
    """Decompose why DAP-n falls short of linear scaling (paper Fig. 3).

    Matches the paper's methodology: each factor is "the relative difference
    between the actual time and the theoretically optimal time" with that
    factor idealized away.
    """
    n = scenario.dap_n
    est = estimate_step_time(scenario)
    base = base_estimate or estimate_step_time(
        dataclasses.replace(scenario, dap_n=1))
    ideal = base.total_s / n
    serial_gap = est.serial_compute_s - base.serial_compute_s / n
    kernel_gap = est.parallel_compute_s - base.parallel_compute_s / n
    cpu_gap = est.cpu_exposed_s - base.cpu_exposed_s / n
    return BarrierBreakdown(
        dap_n=n,
        actual_s=est.total_s,
        ideal_s=ideal,
        cpu_overhead_s=max(cpu_gap, 0.0),
        serial_modules_s=max(serial_gap, 0.0),
        kernel_scalability_s=max(kernel_gap, 0.0),
        comm_overhead_s=est.dap_comm_s + est.ddp_exposed_s,
        imbalanced_comm_s=est.imbalance_s,
    )


# ----------------------------------------------------------------------
# Figure 8: the optimization ladder
# ----------------------------------------------------------------------
def optimization_ladder(gpu: str = "H100",
                        dp_degree: int = 128) -> List[Scenario]:
    """The step-by-step optimization sequence of Figure 8 (cumulative)."""
    p = KernelPolicy.reference()
    steps: List[Scenario] = []

    def add(policy: KernelPolicy, **kw) -> None:
        base = dict(gpu=gpu, dp_degree=dp_degree)
        base.update(kw)
        steps.append(Scenario(policy=policy, **base))

    add(p)                                                     # reference
    p = p.replace(batched_gemm=True)
    add(p)                                                     # + GEMM batching
    add(p, nonblocking_pipeline=True)                          # + dataloader
    p = p.replace(dtype=bfloat16)
    add(p, nonblocking_pipeline=True)                          # + bf16
    p = p.replace(fused_mha=True)
    add(p, nonblocking_pipeline=True)                          # + Triton MHA
    p = p.replace(fused_layernorm=True)
    add(p, nonblocking_pipeline=True)                          # + Triton LN
    p = p.replace(fused_adam_swa=True, bucketed_clip=True)
    add(p, nonblocking_pipeline=True)                          # + FusedAdam+SWA
    p_dap = p.replace(activation_checkpointing=False)
    add(p_dap, nonblocking_pipeline=True, dap_n=8,
        dp_degree=dp_degree, cuda_graphs=True)                 # + DAP-8+graph+no-ckpt
    add(p_dap, nonblocking_pipeline=True, dap_n=8,
        cuda_graphs=True, gc_disabled=True)                    # + GC off
    add(p_dap, nonblocking_pipeline=True, dap_n=8,
        cuda_graphs=True, gc_disabled=True, torch_compile=True)  # + compile
    return steps


LADDER_LABELS = [
    "reference", "+gemm_batching", "+nonblocking_dataloader", "+bf16",
    "+triton_mha", "+triton_layernorm", "+fused_adam_swa",
    "+dap8_cudagraph_nockpt", "+gc_disabled", "+torch_compile",
]
