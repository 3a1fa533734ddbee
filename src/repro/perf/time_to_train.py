"""Time-to-train composition: Figures 9, 10, 11 and the headline numbers.

* MLPerf HPC v3.0 OpenFold benchmark (Figure 10): resume from checkpoint,
  train global-batch-256 to avg_lddt_ca 0.8 on 2080 H100s (2048 training +
  32 evaluation).  Paper: 7.51 minutes with async evaluation (~2 min of
  which is initialization/compilation), ~11 minutes without it; 6x faster
  than the reference.
* From-scratch pretraining (Figure 11): 5000 steps at bs128 on 1056 GPUs,
  then bs256 on 2080 GPUs (Triton MHA disabled for convergence), 50-60k
  steps total to 0.9 — under 10 hours, vs ~7 days for the baseline.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..hardware.gpu import get_gpu
from ..observability.runlog import RunLogger
from ..sim.faults import (CheckpointPolicy, CheckpointSweep, FaultConfig,
                          FaultTimeEstimate, checkpoint_write_seconds,
                          expected_run_seconds, optimal_checkpoint_interval,
                          young_daly_interval_s)
from ..train.convergence import (PRETRAIN_PHASES, ConvergenceModel,
                                 CurvePoint, TrainingPhase, simulate_curve)
from ..train.evaluation import EvalConfig, EvalOverhead, evaluation_overhead
from ..workloads import DEFAULT_WORKLOAD, Workload, get_workload
from .scaling import Scenario, estimate_step_time

#: Paper: "~2 minutes initialization and compilation overhead".
INIT_SECONDS_SCALEFOLD = 120.0
#: The eager reference still pays job launch + data pipeline warmup.
INIT_SECONDS_REFERENCE = 60.0
#: Synchronous evaluation pays a per-pass setup (SWA weight materialization,
#: eval loader spin-up) on the training nodes.
SYNC_EVAL_SETUP_SECONDS = 60.0


@dataclass
class TttPhase:
    name: str
    steps: float
    step_seconds: float
    batch_size: int
    train_gpus: int

    @property
    def train_seconds(self) -> float:
        return self.steps * self.step_seconds


@dataclass
class TttResult:
    label: str
    init_seconds: float
    phases: List[TttPhase]
    eval_overheads: List[EvalOverhead]
    curve: List[CurvePoint] = field(default_factory=list)

    @property
    def train_seconds(self) -> float:
        return sum(p.train_seconds for p in self.phases)

    @property
    def eval_blocked_seconds(self) -> float:
        return sum(e.train_blocked_seconds for e in self.eval_overheads)

    @property
    def total_seconds(self) -> float:
        return self.init_seconds + self.train_seconds + self.eval_blocked_seconds

    @property
    def total_minutes(self) -> float:
        return self.total_seconds / 60.0

    @property
    def total_hours(self) -> float:
        return self.total_seconds / 3600.0

    def breakdown(self) -> Dict[str, float]:
        return {
            "init_s": self.init_seconds,
            "train_s": self.train_seconds,
            "eval_blocked_s": self.eval_blocked_seconds,
            "total_s": self.total_seconds,
            "eval_fraction": (self.eval_blocked_seconds
                              / max(self.total_seconds, 1e-9)),
        }


def mlperf_time_to_train(scalefold: bool = True, async_eval: bool = True,
                         n_gpus: int = 2080,
                         gpu: str = "H100",
                         eval_config: Optional[EvalConfig] = None,
                         convergence: Optional[ConvergenceModel] = None,
                         step_seconds_override: Optional[float] = None,
                         workload: str = DEFAULT_WORKLOAD,
                         run_logger: Optional[RunLogger] = None
                         ) -> TttResult:
    """The MLPerf-style benchmark run (Figure 10 for ``alphafold``).

    ``scalefold=False`` models the MLPerf reference submission: eager fp32
    on batch-size GPUs (DP-only), synchronous evaluation.  Other workloads
    supply their own batch size, quality target, resume point and
    convergence curve via the registry, so the same composition prices a
    transformer benchmark run.  With ``run_logger``, the run's MLPerf
    events (``init_start`` ... ``run_stop``, one ``eval_accuracy`` per
    curve point) are written at simulated times; render them with
    :func:`repro.observability.runlog.mllog_line`.
    """
    wl = get_workload(workload)
    model = convergence or wl.convergence()
    eval_cfg = eval_config or EvalConfig()
    batch = wl.mlperf_batch_size
    if scalefold:
        eval_gpus = eval_cfg.n_eval_gpus if async_eval else 0
        train_gpus = n_gpus - eval_gpus
        dap_n = max(train_gpus // batch, 1)
        scenario = Scenario.scalefold(dap_n=dap_n, dp_degree=batch, gpu=gpu,
                                      workload=wl.name)
        init = INIT_SECONDS_SCALEFOLD
        label = f"ScaleFold-{n_gpus}x{gpu}" + ("-async" if async_eval else "-sync")
    else:
        train_gpus = batch
        scenario = Scenario(dp_degree=batch, gpu=gpu, workload=wl.name)
        init = INIT_SECONDS_REFERENCE
        async_eval = False
        label = f"Reference-{train_gpus}x{gpu}"
    if wl.name != DEFAULT_WORKLOAD:
        label = f"{wl.name}-{label}"

    step_s = (step_seconds_override if step_seconds_override is not None
              else estimate_step_time(scenario).total_s)
    steps = model.steps_to_reach(wl.mlperf_target, batch,
                                 start_samples=wl.mlperf_start_samples)
    overhead = evaluation_overhead(eval_cfg, int(steps), step_s, train_gpus,
                                   async_eval)
    if not async_eval:
        overhead = dataclasses.replace(
            overhead,
            train_blocked_seconds=overhead.train_blocked_seconds
            + SYNC_EVAL_SETUP_SECONDS * overhead.n_evals)
    phase = TttPhase("mlperf", steps, step_s, batch, train_gpus)
    curve = simulate_curve(model,
                           [TrainingPhase(batch, None, wl.mlperf_target)],
                           eval_interval=eval_cfg.eval_every_steps,
                           start_samples=wl.mlperf_start_samples)
    result = TttResult(label=label, init_seconds=init, phases=[phase],
                       eval_overheads=[overhead], curve=curve)
    if run_logger is not None:
        _log_mlperf_run(run_logger, result, wl)
    return result


def _log_mlperf_run(log: RunLogger, result: TttResult, wl: Workload
                    ) -> None:
    """Write ``result`` to ``log`` as an MLPerf run, at simulated seconds.

    The log's clock is rebound to the simulated run while the events are
    written and restored afterwards, even if writing fails.
    """
    now = 0.0
    saved, log.clock = log.clock, lambda: now
    try:
        log.event("submission_benchmark",
                  "openfold" if wl.name == DEFAULT_WORKLOAD else wl.name)
        log.event("global_batch_size", result.phases[0].batch_size)
        log.event("init_start")
        now = result.init_seconds
        log.event("init_stop")
        log.event("run_start")
        for point, (hours, lddt) in zip(result.curve,
                                        curve_with_walltime(result)):
            # The curve evaluates on a fixed cadence, so its last point
            # can fall after the closed-form finish.
            now = min(hours * 3600.0, result.total_seconds)
            log.event("eval_accuracy", lddt, step=point.step,
                      samples=point.samples)
        now = result.total_seconds
        log.event("run_stop")
        reached = result.curve[-1].lddt >= wl.mlperf_target
        log.event("status", "success" if reached else "aborted")
    finally:
        log.clock = saved


def pretraining_time_to_train(scalefold: bool = True,
                              gpu: Optional[str] = None,
                              convergence: Optional[ConvergenceModel] = None,
                              eval_config: Optional[EvalConfig] = None
                              ) -> TttResult:
    """From-scratch initial training (Figure 11).

    The batch sizes, the phase-1 step count and the 0.9 target come from
    :data:`repro.train.convergence.PRETRAIN_PHASES`, the one copy of the
    §4.2 plan.

    ScaleFold: phase 1 = bs128, 5000 steps on 1056 H100s (1024 train as
    DP-128 x DAP-8 + 32 eval); phase 2 = bs256 on 2080 H100s (DP-256 x
    DAP-8, Triton MHA disabled per §4.2) until avg_lddt_ca 0.9.

    Baseline: eager fp32 OpenFold, DP-only (128 then 256 A100s), sync eval —
    the ~7-day regime the paper compares against.
    """
    model = convergence or ConvergenceModel()
    eval_cfg = eval_config or EvalConfig()
    first, second = PRETRAIN_PHASES

    if scalefold:
        gpu = gpu or "H100"
        phase1 = Scenario.scalefold(dp_degree=first.batch_size, gpu=gpu)
        scenarios = (phase1, dataclasses.replace(
            phase1, dp_degree=second.batch_size,
            policy=phase1.policy.replace(fused_mha=False)))
        init = INIT_SECONDS_SCALEFOLD
        async_eval = True
        label = f"ScaleFold-pretrain-{gpu}"
    else:
        gpu = gpu or "A100"
        scenarios = tuple(Scenario(dp_degree=p.batch_size, gpu=gpu)
                          for p in PRETRAIN_PHASES)
        init = INIT_SECONDS_REFERENCE
        async_eval = False
        label = f"Baseline-pretrain-{gpu}"

    steps1 = float(first.max_steps)
    steps2 = model.steps_to_reach(second.target_lddt, second.batch_size,
                                  start_samples=steps1 * first.batch_size)
    phases: List[TttPhase] = []
    overheads: List[EvalOverhead] = []
    for i, (phase, steps, scenario) in enumerate(
            zip(PRETRAIN_PHASES, (steps1, steps2), scenarios), start=1):
        step_s = estimate_step_time(scenario).total_s
        phases.append(TttPhase(f"phase{i}-bs{phase.batch_size}", steps,
                               step_s, phase.batch_size, scenario.world_size))
        overheads.append(evaluation_overhead(eval_cfg, int(steps), step_s,
                                             scenario.world_size, async_eval))
    if not async_eval:
        for i, ov in enumerate(overheads):
            overheads[i] = dataclasses.replace(
                ov, train_blocked_seconds=ov.train_blocked_seconds
                + SYNC_EVAL_SETUP_SECONDS * ov.n_evals)

    curve = simulate_curve(model, PRETRAIN_PHASES,
                           eval_interval=eval_cfg.eval_every_steps)
    return TttResult(label=label, init_seconds=init, phases=phases,
                     eval_overheads=overheads, curve=curve)


@dataclass
class FaultAwareTtt:
    """A :class:`TttResult` re-priced under a failure process.

    Each training phase is pushed through Daly's expected-time model
    (:func:`repro.sim.faults.expected_run_seconds`) with the phase's own
    synchronization width; initialization and eval-blocked time are kept
    as-is (they are short relative to the inter-failure time, and a failure
    during them is covered by the per-phase restart accounting).
    """

    base: TttResult
    faults: FaultConfig
    checkpoint: CheckpointPolicy
    n_ranks: int
    phase_estimates: List[FaultTimeEstimate]
    sweep: Optional[CheckpointSweep] = None

    @property
    def expected_train_seconds(self) -> float:
        return sum(e.expected_s for e in self.phase_estimates)

    @property
    def expected_total_seconds(self) -> float:
        return (self.base.init_seconds + self.expected_train_seconds
                + self.base.eval_blocked_seconds)

    @property
    def expected_failures(self) -> float:
        return sum(e.expected_failures for e in self.phase_estimates)

    @property
    def failure_overhead_seconds(self) -> float:
        """Expected wall seconds added by failures + checkpointing."""
        return self.expected_total_seconds - self.base.total_seconds

    @property
    def optimal_every_steps(self) -> Optional[int]:
        return self.sweep.best_every_steps if self.sweep else None

    @property
    def young_daly_steps(self) -> float:
        """Closed-form reference interval in *steps* (may be inf)."""
        step_s = self.base.phases[0].step_seconds if self.base.phases else 1.0
        yd_s = young_daly_interval_s(self.faults, self.checkpoint,
                                     self.n_ranks)
        return yd_s / step_s if step_s > 0 else yd_s

    def as_dict(self) -> Dict[str, object]:
        return {
            "label": self.base.label,
            "n_ranks": self.n_ranks,
            "checkpoint_every_steps": self.checkpoint.every_steps,
            "checkpoint_blocking": self.checkpoint.blocking,
            "checkpoint_write_s": self.checkpoint.write_s,
            "fault_free_total_s": self.base.total_seconds,
            "expected_total_s": self.expected_total_seconds,
            "expected_failures": self.expected_failures,
            "failure_overhead_s": self.failure_overhead_seconds,
            "abort_rate_per_s": (self.phase_estimates[0].abort_rate
                                 if self.phase_estimates else 0.0),
            "phases": [{
                "name": phase.name,
                "work_s": est.work_s,
                "expected_s": est.expected_s,
                "expected_failures": est.expected_failures,
                "checkpoint_overhead_s": est.checkpoint_overhead_s,
                "recovery_s": est.recovery_s,
                "slow_stretch": est.slow_stretch,
            } for phase, est in zip(self.base.phases, self.phase_estimates)],
            "sweep": self.sweep.as_dict() if self.sweep else None,
        }


def failure_aware_time_to_train(base: TttResult, faults: FaultConfig,
                                checkpoint: Optional[CheckpointPolicy] = None,
                                n_ranks: Optional[int] = None,
                                gpus_per_node: int = 8,
                                sweep: bool = True) -> FaultAwareTtt:
    """Expected time-to-train under failures + checkpoint/restart.

    ``n_ranks`` defaults to each phase's own ``train_gpus`` (the width of
    the synchronous collective a single failure aborts); pass an explicit
    value to price all phases at one width.  ``sweep=True`` additionally
    sweeps the checkpoint interval over the whole run (a shared cadence
    across phases, evaluated at the longest phase's width) and records the
    Young/Daly optimum alongside the grid optimum.
    """
    policy = checkpoint or CheckpointPolicy()
    estimates = [
        expected_run_seconds(
            work_s=phase.train_seconds, step_s=phase.step_seconds,
            n_ranks=n_ranks if n_ranks is not None else phase.train_gpus,
            config=faults, policy=policy, gpus_per_node=gpus_per_node)
        for phase in base.phases
    ]
    interval_sweep = None
    if sweep and base.phases:
        dominant = max(base.phases, key=lambda p: p.train_seconds)
        interval_sweep = optimal_checkpoint_interval(
            work_s=dominant.train_seconds, step_s=dominant.step_seconds,
            n_ranks=n_ranks if n_ranks is not None else dominant.train_gpus,
            config=faults, policy=policy, gpus_per_node=gpus_per_node)
    return FaultAwareTtt(
        base=base, faults=faults, checkpoint=policy,
        n_ranks=(n_ranks if n_ranks is not None
                 else (base.phases[0].train_gpus if base.phases else 0)),
        phase_estimates=estimates, sweep=interval_sweep)


@dataclass
class ScenarioTtt:
    """Closed-form time-to-train pricing for one arbitrary scenario.

    This is the optimizer's objective: one simulated step time, pushed
    through the workload's convergence curve (global batch = ``dp_degree``
    replicas), the Young/Daly checkpoint interval and Daly's expected-time
    model, then priced in GPU-hours and dollars.  Every field is a pure
    deterministic function of (scenario, target, faults), so reports built
    from it are byte-reproducible.
    """

    scenario_label: str
    workload: str
    batch_size: int
    world_size: int
    step_seconds: float
    steps: float                    # inf when the batch cannot converge
    feasible: bool
    init_seconds: float
    train_seconds: float            # fault-free steps x step_seconds
    checkpoint_every_steps: int
    checkpoint_write_s: float
    expected_total_seconds: float   # init + Daly expected train time
    gpu_hours: float
    dollar_cost: float

    @property
    def expected_total_hours(self) -> float:
        return self.expected_total_seconds / 3600.0

    def as_dict(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name)
                for f in dataclasses.fields(self)}


def scenario_time_to_train(scenario: Scenario,
                           target: Optional[float] = None,
                           start_samples: Optional[float] = None,
                           faults: Optional[FaultConfig] = None,
                           init_seconds: float = INIT_SECONDS_SCALEFOLD,
                           step_seconds_override: Optional[float] = None,
                           gpus_per_node: int = 8) -> ScenarioTtt:
    """Price one scenario end to end: simulate -> converge -> checkpoint.

    The global batch size is the scenario's ``dp_degree`` (one sample per
    data-parallel replica per step, the codebase's convention throughout);
    ``target``/``start_samples`` default to the workload's MLPerf-style
    quality target and resume point.  Batches over the workload's
    convergence cap yield ``steps = inf`` — the estimate stays finite in
    ``step_seconds`` but infeasible in time-to-train, which is exactly how
    the optimizer learns the cap without hard-coding it.
    """
    wl = get_workload(scenario.workload)
    model = wl.convergence()
    batch = scenario.dp_degree
    quality = target if target is not None else wl.mlperf_target
    start = (start_samples if start_samples is not None
             else wl.mlperf_start_samples)
    step_s = (step_seconds_override if step_seconds_override is not None
              else estimate_step_time(scenario).total_s)
    steps = model.steps_to_reach(quality, batch, start_samples=start)
    feasible = math.isfinite(steps)

    fault_cfg = faults if faults is not None else FaultConfig()
    write_s = checkpoint_write_seconds(wl.checkpoint_params)
    probe = CheckpointPolicy(every_steps=1, write_s=write_s, blocking=True)
    if not feasible:
        return ScenarioTtt(
            scenario_label=scenario.label(), workload=wl.name,
            batch_size=batch, world_size=scenario.world_size,
            step_seconds=step_s, steps=math.inf, feasible=False,
            init_seconds=init_seconds, train_seconds=math.inf,
            checkpoint_every_steps=0, checkpoint_write_s=write_s,
            expected_total_seconds=math.inf, gpu_hours=math.inf,
            dollar_cost=math.inf)

    train_s = steps * step_s
    # Young/Daly interval, rounded to whole steps: inf (no failures) means
    # checkpoint once per run; a sub-step optimum clamps to every step.
    yd_s = young_daly_interval_s(fault_cfg, probe, scenario.world_size,
                                 gpus_per_node)
    if math.isinf(yd_s):
        every = max(int(steps), 1)
    else:
        every = min(max(int(round(yd_s / step_s)), 1), max(int(steps), 1))
    policy = dataclasses.replace(probe, every_steps=every)
    est = expected_run_seconds(train_s, step_s, scenario.world_size,
                               fault_cfg, policy,
                               gpus_per_node=gpus_per_node)
    total = init_seconds + est.expected_s
    gpu_hours = total / 3600.0 * scenario.world_size
    dollars = gpu_hours * get_gpu(scenario.gpu).cost_per_hour_usd
    return ScenarioTtt(
        scenario_label=scenario.label(), workload=wl.name,
        batch_size=batch, world_size=scenario.world_size,
        step_seconds=step_s, steps=steps, feasible=True,
        init_seconds=init_seconds, train_seconds=train_s,
        checkpoint_every_steps=every, checkpoint_write_s=write_s,
        expected_total_seconds=total, gpu_hours=gpu_hours,
        dollar_cost=dollars)


def curve_with_walltime(result: TttResult) -> List[Tuple[float, float]]:
    """(hours, lddt) pairs for Figure 11's x-axis."""
    out: List[Tuple[float, float]] = []
    if not result.phases:
        return out
    phase_bounds: List[Tuple[float, float, int]] = []
    acc_steps = 0.0
    for p in result.phases:
        phase_bounds.append((acc_steps, p.step_seconds, p.batch_size))
        acc_steps += p.steps
    eval_drag = (result.eval_blocked_seconds
                 / max(sum(p.steps for p in result.phases), 1.0))
    for point in result.curve:
        seconds = result.init_seconds
        remaining = float(point.step)
        for (start, step_s, _bs), phase in zip(phase_bounds, result.phases):
            in_phase = min(max(remaining - start, 0.0), phase.steps)
            seconds += in_phase * step_s
        seconds += point.step * eval_drag
        out.append((seconds / 3600.0, point.lddt))
    return out
