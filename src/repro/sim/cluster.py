"""Event-driven simulation of the whole training cluster.

Cross-validates the closed-form time-to-train model
(:mod:`repro.perf.time_to_train`) with an actual discrete-event run:

* every training step, each synchronized rank draws its delay (CPU peaks,
  GC, data stalls) and the gradient all-reduce completes at the slowest
  rank — E[max] emerges from sampling instead of being assumed;
* every ``eval_every_steps`` steps a checkpoint is snapshotted; the
  evaluation pool (sync: the training ranks themselves; async: dedicated
  GPUs) scores checkpoints SERIALLY, so a slow eval pass backs up the
  queue — the paper's "evaluation time must be smaller than training time"
  constraint appears as queue growth;
* with a :class:`~repro.sim.faults.FaultConfig`, a deterministic
  :class:`~repro.sim.faults.FaultInjector` interrupts training steps
  mid-flight (crash/hang/switch aborts, slow-node windows); the job pays
  detection + restart + warmup replay and rolls back to the last *durable*
  checkpoint of the configured :class:`~repro.sim.faults.CheckpointPolicy`;
* the run ends when an evaluation *completes* with avg_lddt_ca >= target:
  async evaluation's tail latency is therefore part of the measured TTT.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..distributed.straggler import ImbalanceInputs, StragglerModel
from ..hardware.cpu import CpuJitterConfig
from ..observability.runlog import RunLogger
from ..train.convergence import ConvergenceModel
from ..train.evaluation import EvalConfig, eval_pass_seconds
from .des import Event, Resource, Simulator, Timeline, any_of, timeout
from .faults import (CheckpointPolicy, CheckpointRecord, FaultConfig,
                     FaultEvent, FaultInjector, FaultRecord, SLOW)


@dataclass
class ClusterSimConfig:
    """One simulated training job."""

    step_seconds: float                 # compute+comm per step (no jitter)
    n_sync_ranks: int = 256             # ranks the all-reduce synchronizes
    global_batch: int = 256
    start_samples: float = 0.0
    target_lddt: float = 0.8
    init_seconds: float = 120.0
    eval: EvalConfig = field(default_factory=EvalConfig)
    async_eval: bool = True
    #: Synchronous evaluation pays a per-pass setup on the training nodes
    #: (SWA weight materialization, loader spin-up) — matches the
    #: closed-form model's SYNC_EVAL_SETUP_SECONDS.
    sync_eval_setup_s: float = 60.0
    n_train_gpus: int = 2048
    graphed: bool = True
    gc_disabled: bool = True
    eager_dispatch_s: float = 0.05
    data_stall_probability: float = 0.0
    data_stall_mean_s: float = 0.0
    max_steps: int = 20_000
    seed: int = 0
    #: Failure process; ``None`` runs the fault-free model.
    faults: Optional[FaultConfig] = None
    #: Checkpoint cadence/durability; ``None`` models no explicit
    #: checkpointing (restarts fall back to the job's starting state).
    checkpoint: Optional[CheckpointPolicy] = None
    gpus_per_node: int = 8


@dataclass
class EvalRecord:
    step: int
    triggered_at: float
    completed_at: float
    lddt: float

    @property
    def queue_delay(self) -> float:
        return self.completed_at - self.triggered_at


@dataclass
class ClusterRunResult:
    total_seconds: float
    steps: int
    converged: bool
    step_times: List[float]
    evals: List[EvalRecord]
    faults: List[FaultRecord] = field(default_factory=list)
    checkpoints: List[CheckpointRecord] = field(default_factory=list)
    timeline: Optional[Timeline] = None

    @property
    def total_minutes(self) -> float:
        return self.total_seconds / 60.0

    @property
    def mean_step_seconds(self) -> float:
        return float(np.mean(self.step_times)) if self.step_times else 0.0

    @property
    def downtime_seconds(self) -> float:
        """Detection + restart + replay across every abort."""
        return sum(f.downtime_s for f in self.faults)

    @property
    def lost_steps(self) -> int:
        """Committed steps rolled back to the last durable checkpoint."""
        return sum(f.lost_steps for f in self.faults)

    @property
    def eval_backlog_grew(self) -> bool:
        """Did evaluation fall behind training (the §3.4 bottleneck)?"""
        if len(self.evals) < 2:
            return False
        delays = [e.queue_delay for e in self.evals]
        return delays[-1] > 2.0 * delays[0] + 1e-9


def run_cluster_simulation(config: ClusterSimConfig,
                           convergence: Optional[ConvergenceModel] = None,
                           run_logger: Optional[RunLogger] = None
                           ) -> ClusterRunResult:
    """Run the event-driven cluster model until the target lDDT is scored.

    When ``run_logger`` is given, its clock is rebound to the simulation
    clock for the duration of the run, so the emitted
    ``run_start``/``step``/``eval``/``fault``/``run_stop`` events carry
    *simulated* milliseconds — the structured log reads like one from a
    real cluster.

    Fault semantics (``config.faults`` set): crash/hang/switch events
    interrupt the in-flight training step (its work is lost), burn the
    kind's detection latency plus ``restart_s``, roll training state back
    to the last durable checkpoint, and replay ``warmup_steps``
    non-productive steps.  Slow-node events stretch every step inside
    their window by ``slow_factor`` — the degraded rank paces the
    collective.  Faults landing inside a recovery window are absorbed by
    it (documented simplification: detection of overlapping failures is
    dominated by the one already being handled).
    """
    model = convergence or ConvergenceModel()
    rng = np.random.default_rng(config.seed)
    sim = Simulator()

    straggler = StragglerModel(
        jitter=CpuJitterConfig(gc_enabled=not config.gc_disabled),
        seed=config.seed)
    inputs = ImbalanceInputs(
        eager_dispatch_s=config.eager_dispatch_s,
        graphed=config.graphed,
        data_stall_probability=config.data_stall_probability,
        data_stall_mean_s=config.data_stall_mean_s,
    )
    # Pre-draw per-(step, rank) delays in bulk (vectorized), consume per step.
    sample_ranks = min(config.n_sync_ranks, 256)
    delays = straggler.sample_rank_delays(inputs, sample_ranks,
                                          config.max_steps)

    eval_gpus = (config.eval.n_eval_gpus if config.async_eval
                 else config.n_train_gpus)
    eval_pass = eval_pass_seconds(config.eval, eval_gpus)
    if not config.async_eval:
        eval_pass += config.sync_eval_setup_s

    state = {
        "step": 0,
        "samples": config.start_samples,
        "converged_at": None,
        "final_step": 0,
        "end_time": 0.0,
        "done": False,
        # Fault bookkeeping.
        "slow_until": 0.0,
        "abort_count": 0,
        "durable_step": 0,
        "durable_samples": config.start_samples,
    }
    step_times: List[float] = []
    evals: List[EvalRecord] = []
    faults: List[FaultRecord] = []
    checkpoints: List[CheckpointRecord] = []
    timeline = Timeline() if config.faults is not None else None

    # The evaluation pool is a capacity-1 resource: checkpoints queue and
    # score serially, so a slow eval pass visibly backs up the queue.
    eval_server = Resource(sim, capacity=1, name="eval-pool")

    # The fault driver fires this event to interrupt the trainer; a fresh
    # event replaces it after every abort so successive failures each get
    # their own race.  Faults that fire while the trainer is inside a
    # recovery window (nobody waiting) are absorbed.
    fail_state = {"event": Event(sim)}

    def eval_proc(step: int, samples: float):
        triggered = sim.now
        yield eval_server.acquire()
        yield eval_pass
        eval_server.release()
        lddt = model.lddt_at(samples, config.global_batch, rng)
        evals.append(EvalRecord(step=step, triggered_at=triggered,
                                completed_at=sim.now, lddt=lddt))
        state["end_time"] = max(state["end_time"], sim.now)
        if run_logger is not None:
            run_logger.evaluation(step, lddt=lddt,
                                  queue_delay_s=sim.now - triggered - eval_pass)
        if lddt >= config.target_lddt and state["converged_at"] is None:
            state["converged_at"] = sim.now
            state["final_step"] = step

    def on_fault(event: FaultEvent) -> None:
        if run_logger is not None:
            run_logger.fault(kind=event.kind, rank=event.rank,
                             ranks=list(event.ranks),
                             detection_s=event.detection_s,
                             duration_s=event.duration_s)
        if event.kind == SLOW:
            state["slow_until"] = max(state["slow_until"],
                                      sim.now + event.duration_s)
            faults.append(FaultRecord(
                time_s=sim.now, kind=event.kind, rank=event.rank,
                ranks=event.ranks, downtime_s=0.0))
            if timeline is not None:
                timeline.record("fault", "slow_window", sim.now,
                                sim.now + event.duration_s)
            return
        # Aborting fault: hand it to whatever step/write race is pending.
        pending, fail_state["event"] = fail_state["event"], Event(sim)
        state["abort_count"] += 1
        if not pending.triggered:
            pending.succeed(event)

    def step_wall_seconds(i: int) -> float:
        base = config.step_seconds
        if sim.now < state["slow_until"] and config.faults is not None:
            base *= config.faults.slow_factor
        return base + float(delays[i % config.max_steps].max())

    def mark_durable(step: int, samples: float, record: CheckpointRecord
                     ) -> None:
        record.durable_at = sim.now
        state["durable_step"] = step
        state["durable_samples"] = samples
        if run_logger is not None:
            run_logger.checkpoint(step, durable=True,
                                  write_s=sim.now - record.triggered_at)

    def recover(event: FaultEvent):
        """Detection -> collective abort -> restart -> rollback -> replay."""
        t_fault = sim.now
        yield event.detection_s
        if timeline is not None:
            timeline.record("fault", "detect", t_fault, sim.now)
        t0 = sim.now
        yield config.faults.restart_s
        if timeline is not None:
            timeline.record("fault", "restart", t0, sim.now)
        lost = state["step"] - state["durable_step"]
        state["step"] = state["durable_step"]
        state["samples"] = state["durable_samples"]
        replay = config.faults.warmup_steps * config.step_seconds
        t0 = sim.now
        if replay > 0:
            yield replay
            if timeline is not None:
                timeline.record("fault", "replay", t0, sim.now)
        faults.append(FaultRecord(
            time_s=t_fault, kind=event.kind, rank=event.rank,
            ranks=event.ranks, detection_s=event.detection_s,
            downtime_s=sim.now - t_fault, lost_steps=lost,
            restored_step=state["durable_step"]))
        if run_logger is not None:
            run_logger.recovery(step=state["step"],
                                downtime_s=sim.now - t_fault,
                                lost_steps=lost, kind=event.kind)

    def write_checkpoint():
        """Pay the policy's stall; durability lands now or ``write_s`` later."""
        policy = config.checkpoint
        record = CheckpointRecord(step=state["step"], triggered_at=sim.now)
        checkpoints.append(record)
        step, samples = state["step"], state["samples"]
        t0 = sim.now
        if policy.blocking:
            if config.faults is not None:
                winner, value = yield any_of(
                    sim, timeout(sim, policy.write_s), fail_state["event"])
                if winner == 1:
                    # Torn write: the temp file never replaced the target
                    # (the atomic-save contract), so the previous
                    # checkpoint is still the durable one.
                    yield recover_gen(value)
                    return
            else:
                yield policy.write_s
            if timeline is not None:
                timeline.record("ckpt", "write", t0, sim.now)
            mark_durable(step, samples, record)
        else:
            if policy.snapshot_stall_s > 0:
                yield policy.snapshot_stall_s
                if timeline is not None:
                    timeline.record("ckpt", "snapshot", t0, sim.now)
            aborts_at_trigger = state["abort_count"]

            def land() -> None:
                if state["abort_count"] == aborts_at_trigger:
                    mark_durable(step, samples, record)

            sim.schedule(policy.write_s, land)

    def recover_gen(event: FaultEvent):
        # Wrapper so the trainer can ``yield from``-style join recovery.
        done = Event(sim)

        def _proc():
            yield from recover(event)
            done.succeed(None)

        sim.process(_proc(), name=f"recover-{event.kind}")
        return done

    def trainer():
        yield config.init_seconds
        if run_logger is not None:
            run_logger.run_start(n_sync_ranks=config.n_sync_ranks,
                                 global_batch=config.global_batch,
                                 target_lddt=config.target_lddt,
                                 async_eval=config.async_eval,
                                 faults=config.faults is not None)
        while (state["converged_at"] is None
               and state["step"] < config.max_steps):
            i = state["step"]
            step_wall = step_wall_seconds(i)
            if config.faults is not None:
                winner, value = yield any_of(
                    sim, timeout(sim, step_wall), fail_state["event"])
                if winner == 1:
                    # The in-flight step is lost with the job.
                    yield recover_gen(value)
                    continue
            else:
                yield step_wall
            state["step"] += 1
            state["samples"] += config.global_batch
            step_times.append(step_wall)
            if run_logger is not None:
                run_logger.step(state["step"], wall_s=step_wall,
                                samples=state["samples"])
            if (config.checkpoint is not None
                    and state["step"] % config.checkpoint.every_steps == 0):
                yield from write_checkpoint()
            if state["step"] % config.eval.eval_every_steps == 0:
                sim.process(eval_proc(state["step"], state["samples"]),
                            name=f"eval-{state['step']}")
                if not config.async_eval:
                    # Synchronous: training waits for the eval pass it
                    # issued (the pass itself, not the queue behind it).
                    yield eval_pass
        state["done"] = True
        state["end_time"] = max(state["end_time"], sim.now)

    if config.faults is not None:
        injector = FaultInjector(config.faults, config.n_sync_ranks,
                                 gpus_per_node=config.gpus_per_node)
        injector.attach(sim, on_fault, stop=lambda: state["done"])

    if run_logger is not None:
        saved_clock, run_logger.clock = run_logger.clock, lambda: sim.now
    try:
        sim.process(trainer(), name="trainer")
        sim.run()
        converged = state["converged_at"] is not None
        # With a fault driver attached, stale race timers can advance
        # ``sim.now`` past the last meaningful event; ``end_time`` tracks
        # the real finish.
        total = (state["converged_at"] if converged
                 else max(state["end_time"], 0.0))
        if run_logger is not None:
            run_logger.run_stop(
                status="success" if converged else "aborted",
                steps=state["final_step"] if converged else state["step"],
                total_seconds=float(total), n_faults=len(faults),
                downtime_s=sum(f.downtime_s for f in faults))
    finally:
        if run_logger is not None:
            run_logger.clock = saved_clock
    return ClusterRunResult(
        total_seconds=float(total),
        steps=state["final_step"] if converged else state["step"],
        converged=converged,
        step_times=step_times,
        evals=evals,
        faults=faults,
        checkpoints=checkpoints,
        timeline=timeline,
    )
