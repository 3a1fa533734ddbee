"""Fault injection & checkpoint-restart modeling for the timing engine.

ScaleFold's headline number assumes 2080 H100s running uninterrupted.  At
that scale the cluster-level arithmetic flips: with a per-rank MTBF of even
a few years, the *job* sees a failure every few hours — and synchronous
data parallelism means a single rank crash aborts the whole collective.
Real time-to-train is then governed by

* the failure rate (independent rank crashes/hangs/slow-nodes plus
  correlated switch-level outages that take out a whole node),
* detection latency (a crash is seen within seconds; a hang burns the
  NCCL-watchdog-style timeout),
* restart cost (requeue + relaunch + compile/graph-capture + the durability
  lag of the last asynchronous checkpoint write),
* checkpoint cadence (all work since the last *durable* checkpoint is
  lost and replayed).

Two complementary tools:

* :class:`FaultInjector` — a deterministic, seedable event stream for the
  discrete-event cluster model (:func:`repro.sim.cluster
  .run_cluster_simulation`).  Injections are announced through the DES
  audit-hook machinery (:func:`repro.sim.des.set_audit`), so schedule
  analyzers observe them like any resource/barrier event.
* :func:`expected_run_seconds` — the closed-form Young/Daly-style expected
  completion time (Daly's exponential formula), with
  :func:`optimal_checkpoint_interval` sweeping the checkpoint cadence for
  its optimum.  At failure rate zero with a free checkpoint policy the
  formula degenerates to the fault-free work time *exactly*, which is the
  golden contract the fault-aware time-to-train path is pinned to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .des import Simulator, _audit_event

#: Fault kinds.  ``crash``/``hang``/``switch`` abort the synchronous job;
#: ``slow`` degrades one rank (and therefore, through the collective, the
#: whole job) for a bounded window.
CRASH = "crash"
HANG = "hang"
SLOW = "slow"
SWITCH = "switch"
ABORTING_KINDS = (CRASH, HANG, SWITCH)

_SECONDS_PER_HOUR = 3600.0


@dataclass(frozen=True)
class FaultConfig:
    """Failure-process calibration for one cluster."""

    #: Per-rank mean time between faults (hours).  ``inf`` disables rank
    #: faults entirely.  3 years/rank gives a 2048-rank job one fault
    #: every ~13 hours.
    mtbf_rank_hours: float = 26280.0
    #: Per-switch (node-group) MTBF for correlated outages that take down
    #: all ranks of a node at once.  ``inf`` disables them.
    switch_mtbf_hours: float = math.inf
    #: Mix of rank-fault kinds (must sum to 1).
    p_crash: float = 0.6
    p_hang: float = 0.25
    p_slow: float = 0.15
    #: Detection latency: a crash drops the process group quickly, a hang
    #: only surfaces when the collective watchdog fires.
    crash_detection_s: float = 10.0
    hang_detection_s: float = 120.0
    #: Slow-node degradation: the affected rank paces every collective.
    slow_factor: float = 2.0
    slow_duration_s: float = 300.0
    #: Requeue + relaunch + init/compile after an abort.
    restart_s: float = 180.0
    #: Non-productive steps replayed after restart (loader refill, CUDA
    #: Graph warmup) before training resumes at full rate.
    warmup_steps: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        # NaN fails every comparison, so this form rejects it.
        if not (self.mtbf_rank_hours > 0 and self.switch_mtbf_hours > 0):
            raise ValueError("MTBF must be positive (use inf to disable)")
        total = self.p_crash + self.p_hang + self.p_slow
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"fault-kind probabilities sum to {total}, not 1")

    # ------------------------------------------------------------------
    # Rates (per simulated second)
    # ------------------------------------------------------------------
    def rank_fault_rate(self) -> float:
        if math.isinf(self.mtbf_rank_hours):
            return 0.0
        return 1.0 / (self.mtbf_rank_hours * _SECONDS_PER_HOUR)

    def switch_rate(self, n_ranks: int, gpus_per_node: int = 8) -> float:
        if math.isinf(self.switch_mtbf_hours):
            return 0.0
        n_switches = (n_ranks + gpus_per_node - 1) // gpus_per_node
        return n_switches / (self.switch_mtbf_hours * _SECONDS_PER_HOUR)

    def abort_rate(self, n_ranks: int, gpus_per_node: int = 8) -> float:
        """Job-aborting failures per second for an ``n_ranks`` sync group."""
        rank = self.rank_fault_rate() * n_ranks * (self.p_crash + self.p_hang)
        return rank + self.switch_rate(n_ranks, gpus_per_node)

    def slow_rate(self, n_ranks: int) -> float:
        return self.rank_fault_rate() * n_ranks * self.p_slow

    def mean_detection_s(self, n_ranks: int, gpus_per_node: int = 8) -> float:
        """Expected detection latency over the aborting-fault mix."""
        lam = self.abort_rate(n_ranks, gpus_per_node)
        if lam == 0.0:
            return 0.0
        rank = self.rank_fault_rate() * n_ranks
        weighted = (rank * self.p_crash * self.crash_detection_s
                    + rank * self.p_hang * self.hang_detection_s
                    + self.switch_rate(n_ranks, gpus_per_node)
                    * self.crash_detection_s)
        return weighted / lam

    def detection_s(self, kind: str) -> float:
        return self.hang_detection_s if kind == HANG else self.crash_detection_s


@dataclass(frozen=True)
class FaultEvent:
    """One injected failure."""

    time_s: float
    kind: str                 # crash | hang | slow | switch
    rank: int                 # first affected rank
    ranks: Tuple[int, ...]    # every affected rank (whole node for switch)
    detection_s: float = 0.0
    duration_s: float = 0.0   # slow events only

    @property
    def aborts(self) -> bool:
        return self.kind in ABORTING_KINDS


class FaultInjector:
    """Deterministic, seedable failure-event source for one cluster.

    Rank faults and switch outages are drawn from independently derived
    streams, so enabling one never perturbs the other's sample path — a
    sweep over ``switch_mtbf_hours`` holds the rank-fault history fixed.
    """

    def __init__(self, config: FaultConfig, n_ranks: int,
                 gpus_per_node: int = 8) -> None:
        if n_ranks < 1:
            raise ValueError("need at least one rank")
        self.config = config
        self.n_ranks = n_ranks
        self.gpus_per_node = gpus_per_node

    # ------------------------------------------------------------------
    def _streams(self) -> Tuple[np.random.Generator, np.random.Generator]:
        cfg = self.config
        rank_rng = np.random.default_rng((cfg.seed, self.n_ranks, 0xFA01))
        switch_rng = np.random.default_rng((cfg.seed, self.n_ranks, 0xFA02))
        return rank_rng, switch_rng

    def _node_ranks(self, switch: int) -> Tuple[int, ...]:
        lo = switch * self.gpus_per_node
        hi = min(lo + self.gpus_per_node, self.n_ranks)
        return tuple(range(lo, hi))

    def stream(self, start_s: float = 0.0) -> Iterator[FaultEvent]:
        """Yield fault events in time order, indefinitely.

        Lazy generation: consumers (the DES driver) pull exactly as many
        events as the simulated horizon needs, and the sample path for a
        given (seed, n_ranks) is identical no matter how far it is read.
        """
        cfg = self.config
        rank_rng, switch_rng = self._streams()
        rank_rate = cfg.rank_fault_rate() * self.n_ranks
        switch_rate = cfg.switch_rate(self.n_ranks, self.gpus_per_node)

        next_rank = (start_s + rank_rng.exponential(1.0 / rank_rate)
                     if rank_rate > 0 else math.inf)
        next_switch = (start_s + switch_rng.exponential(1.0 / switch_rate)
                       if switch_rate > 0 else math.inf)
        kind_cdf = np.cumsum([cfg.p_crash, cfg.p_hang, cfg.p_slow])
        kinds = (CRASH, HANG, SLOW)

        while next_rank < math.inf or next_switch < math.inf:
            if next_rank <= next_switch:
                time_s = next_rank
                rank = int(rank_rng.integers(self.n_ranks))
                kind = kinds[int(np.searchsorted(kind_cdf,
                                                 rank_rng.random(),
                                                 side="right"))]
                duration = (float(rank_rng.exponential(cfg.slow_duration_s))
                            if kind == SLOW else 0.0)
                yield FaultEvent(time_s=time_s, kind=kind, rank=rank,
                                 ranks=(rank,),
                                 detection_s=cfg.detection_s(kind),
                                 duration_s=duration)
                next_rank = time_s + rank_rng.exponential(1.0 / rank_rate)
            else:
                time_s = next_switch
                n_switches = ((self.n_ranks + self.gpus_per_node - 1)
                              // self.gpus_per_node)
                switch = int(switch_rng.integers(n_switches))
                ranks = self._node_ranks(switch)
                yield FaultEvent(time_s=time_s, kind=SWITCH, rank=ranks[0],
                                 ranks=ranks,
                                 detection_s=cfg.crash_detection_s)
                next_switch = time_s + switch_rng.exponential(1.0 / switch_rate)

    def events(self, horizon_s: float, start_s: float = 0.0
               ) -> List[FaultEvent]:
        """Materialize the stream over ``[start_s, horizon_s)``."""
        out: List[FaultEvent] = []
        for event in self.stream(start_s):
            if event.time_s >= horizon_s:
                break
            out.append(event)
        return out

    def attach(self, sim: Simulator,
               on_event: Callable[[FaultEvent], None],
               stop: Optional[Callable[[], bool]] = None) -> None:
        """Drive the stream inside ``sim``: schedule each injection.

        Every injection is announced through the DES audit hook (kind
        ``fault_inject``) so schedule analyzers see failures alongside
        resource grants and barrier arrivals.  ``stop`` is polled before
        each injection; returning True ends the driver without advancing
        the simulation clock further.
        """
        iterator = self.stream()

        def _schedule_next() -> None:
            event = next(iterator, None)
            if event is None:
                return
            sim.schedule_at(max(event.time_s, sim.now), lambda: _fire(event))

        def _fire(event: FaultEvent) -> None:
            if stop is not None and stop():
                return
            _audit_event("fault_inject", f"rank-{event.rank}",
                         actor="fault-injector", fault_kind=event.kind,
                         ranks=list(event.ranks), sim=sim.audit_id)
            on_event(event)
            _schedule_next()

        _schedule_next()


# ----------------------------------------------------------------------
# Checkpoint policy and the Young/Daly expected-time model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CheckpointPolicy:
    """How (and how often) training state is made durable.

    ``blocking=True`` matches :func:`repro.train.checkpointing
    .save_checkpoint` — the loop stalls for the full write.  The
    asynchronous mode snapshots weights with a brief stall
    (``snapshot_stall_s``) and streams the write in the background; the
    checkpoint only becomes *durable* ``write_s`` later, so a failure in
    that window falls back to the previous checkpoint.
    """

    every_steps: int = 250
    write_s: float = 2.0
    blocking: bool = True
    snapshot_stall_s: float = 0.0

    def __post_init__(self) -> None:
        if not self.every_steps >= 1:
            raise ValueError("checkpoint interval must be >= 1 step")
        # NaN fails every comparison, so this form rejects it.
        if not (0 <= self.write_s < math.inf
                and 0 <= self.snapshot_stall_s < math.inf):
            raise ValueError("checkpoint costs must be finite and "
                             "non-negative")

    @property
    def overhead_s(self) -> float:
        """Fault-free stall added to the training loop per checkpoint."""
        return self.write_s if self.blocking else self.snapshot_stall_s

    @property
    def durability_lag_s(self) -> float:
        """Extra age of the last durable checkpoint at failure time."""
        return 0.0 if self.blocking else self.write_s


def checkpoint_write_seconds(n_params: int, optimizer_state: bool = True,
                             dtype_bytes: int = 4,
                             fs_bandwidth_gbps: float = 2.0) -> float:
    """Write time for one checkpoint on a parallel filesystem.

    Parameters plus, when ``optimizer_state``, Adam's two moments and the
    SWA weights — the exact payload of
    :func:`repro.train.checkpointing.save_checkpoint`.
    """
    words = 1 + (3 if optimizer_state else 0)
    total_bytes = n_params * dtype_bytes * words
    return total_bytes / (fs_bandwidth_gbps * 1e9)


@dataclass
class FaultTimeEstimate:
    """Expected completion time for one block of work under failures."""

    work_s: float                # fault-free training seconds
    expected_s: float            # expected wall seconds including failures
    abort_rate: float            # job-aborting failures per second
    expected_failures: float     # E[# aborts] over the run
    checkpoint_overhead_s: float  # fault-free checkpointing stall
    recovery_s: float            # mean detect+restart+replay per failure
    slow_stretch: float          # multiplicative slow-node degradation

    @property
    def overhead_s(self) -> float:
        return self.expected_s - self.work_s


def expected_run_seconds(work_s: float, step_s: float, n_ranks: int,
                         config: FaultConfig, policy: CheckpointPolicy,
                         gpus_per_node: int = 8) -> FaultTimeEstimate:
    """Daly's exponential checkpoint-restart model for one work block.

    ``T = M * e^{lam*R} * (e^{lam*(tau+delta)} - 1) * W/tau`` with
    ``M = 1/lam``, ``tau`` the compute per checkpoint segment, ``delta``
    the per-checkpoint stall and ``R`` the full recovery cost (mean
    detection + restart + warmup replay + durability lag).  Slow-node
    events do not abort; they stretch the effective work multiplicatively.
    As ``lam -> 0`` the expression degenerates to
    ``W * (1 + delta/tau)`` — with a free checkpoint policy, *exactly* the
    fault-free time, which the golden tests pin.
    """
    if work_s < 0 or step_s <= 0:
        raise ValueError("work must be >= 0 and step time positive")
    lam = config.abort_rate(n_ranks, gpus_per_node)
    slow_stretch = 1.0 + (config.slow_rate(n_ranks)
                          * (config.slow_factor - 1.0)
                          * config.slow_duration_s)
    work_eff = work_s * slow_stretch
    tau = policy.every_steps * step_s
    delta = policy.overhead_s
    recovery = (config.mean_detection_s(n_ranks, gpus_per_node)
                + config.restart_s + config.warmup_steps * step_s
                + policy.durability_lag_s)
    n_segments = work_eff / tau
    if lam == 0.0 or work_s == 0.0:
        expected = work_eff + delta * n_segments
        failures = 0.0
    else:
        expected = ((1.0 / lam) * math.exp(lam * recovery)
                    * math.expm1(lam * (tau + delta)) * n_segments)
        failures = lam * expected
    return FaultTimeEstimate(
        work_s=work_s,
        expected_s=expected,
        abort_rate=lam,
        expected_failures=failures,
        checkpoint_overhead_s=delta * n_segments,
        recovery_s=recovery,
        slow_stretch=slow_stretch,
    )


def young_daly_interval_s(config: FaultConfig, policy: CheckpointPolicy,
                          n_ranks: int, gpus_per_node: int = 8) -> float:
    """Young's closed-form optimal checkpoint interval ``sqrt(2*delta*M)``.

    ``inf`` when failures are off (checkpoint as rarely as possible) and
    0 when checkpoints are free (checkpoint as often as possible).
    """
    lam = config.abort_rate(n_ranks, gpus_per_node)
    if lam == 0.0:
        return math.inf
    if policy.overhead_s == 0.0:
        return 0.0
    return math.sqrt(2.0 * policy.overhead_s / lam)


@dataclass
class CheckpointSweep:
    """Expected time as a function of the checkpoint interval."""

    points: List[Tuple[int, float]]   # (every_steps, expected_s)
    best_every_steps: int
    best_expected_s: float
    young_daly_steps: float           # closed-form reference (may be inf)

    def as_dict(self) -> dict:
        return {
            "points": [{"every_steps": k, "expected_s": t}
                       for k, t in self.points],
            "best_every_steps": self.best_every_steps,
            "best_expected_s": self.best_expected_s,
            "young_daly_steps": (None if math.isinf(self.young_daly_steps)
                                 else self.young_daly_steps),
        }


def _default_interval_grid(max_steps: int) -> List[int]:
    grid = sorted({int(round(10 ** e)) for e in np.linspace(
        0, math.log10(max(max_steps, 1)), 25)})
    return [k for k in grid if 1 <= k <= max_steps]


def optimal_checkpoint_interval(work_s: float, step_s: float, n_ranks: int,
                                config: FaultConfig,
                                policy: CheckpointPolicy,
                                k_values: Optional[Sequence[int]] = None,
                                gpus_per_node: int = 8) -> CheckpointSweep:
    """Sweep the checkpoint cadence and return the expected-time optimum.

    A non-blocking policy cannot trigger a new write before the previous
    one lands, so intervals shorter than the write time are excluded.
    """
    total_steps = max(int(work_s / step_s), 1)
    candidates = list(k_values) if k_values is not None \
        else _default_interval_grid(total_steps)
    if not policy.blocking and policy.write_s > 0:
        min_k = max(int(math.ceil(policy.write_s / step_s)), 1)
        candidates = [k for k in candidates if k >= min_k] or [min_k]
    yd = young_daly_interval_s(config, policy, n_ranks, gpus_per_node)
    if math.isfinite(yd) and yd > 0:
        yd_k = min(max(int(round(yd / step_s)), 1), total_steps)
        if yd_k not in candidates:
            candidates.append(yd_k)
    candidates = sorted(set(candidates))

    points: List[Tuple[int, float]] = []
    for k in candidates:
        estimate = expected_run_seconds(
            work_s, step_s, n_ranks, config,
            policy=CheckpointPolicy(
                every_steps=k, write_s=policy.write_s,
                blocking=policy.blocking,
                snapshot_stall_s=policy.snapshot_stall_s),
            gpus_per_node=gpus_per_node)
        points.append((k, estimate.expected_s))
    best_k, best_t = min(points, key=lambda p: (p[1], p[0]))
    return CheckpointSweep(points=points, best_every_steps=best_k,
                           best_expected_s=best_t, young_daly_steps=yd)


# ----------------------------------------------------------------------
# Bookkeeping records shared with the DES cluster model
# ----------------------------------------------------------------------
@dataclass
class FaultRecord:
    """One fault as experienced by the simulated job."""

    time_s: float
    kind: str
    rank: int
    ranks: Tuple[int, ...]
    detection_s: float = 0.0
    downtime_s: float = 0.0      # detect + restart + replay (aborts only)
    lost_steps: int = 0          # committed steps rolled back
    restored_step: int = 0       # checkpoint step training resumed from


@dataclass
class CheckpointRecord:
    """One checkpoint snapshot and when (whether) it became durable."""

    step: int
    triggered_at: float
    durable_at: Optional[float] = None   # None: write torn by a failure

    @property
    def durable(self) -> bool:
        return self.durable_at is not None
