"""Command-line entry point: ``python -m repro <experiment-id>``.

Besides the experiment runner, a ``trace`` subcommand fronts the
observability stack and ``lint`` fronts the static analysis suite::

    python -m repro trace export -o step.json   # chrome://tracing JSON
    python -m repro trace top                   # nsys-style top kernels
    python -m repro trace flame                 # per-scope time rollup
    python -m repro trace cache                 # cache hit/miss report
    python -m repro bench                       # simulation benchmarks
    python -m repro optimize --quick            # scenario knob-space search
    python -m repro lint                        # graph+trace+sched analysis
    python -m repro lint trace --format json    # one analyzer, CI-parseable
    python -m repro faults                      # failure-aware time-to-train
    python -m repro faults --mtbf-hours 8760    # ...at 1-year/rank MTBF
    python -m repro serve --quick               # DES serving-fleet report
    python -m repro serve --mode broker         # real threaded broker smoke
    python -m repro calibrate --quick           # fit GpuSpec from timings
    python -m repro calibrate --source synthetic:H100   # deterministic fit
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional

from .core.experiments import EXPERIMENTS, run_experiment
from .core.optimizations import format_table


def _workload_choices() -> List[str]:
    from .workloads import list_workloads

    return list_workloads()


def _checked(convert, accept, requirement: str):
    """An argparse type: ``convert(text)``, exiting 2 unless ``accept``."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}")
        if not accept(value):
            raise argparse.ArgumentTypeError(
                f"must be {requirement}, got {text!r}")
        return value
    return parse


# NaN fails every comparison, so none of these accepts it.
_positive_float = _checked(float, lambda v: v > 0.0,
                           "a positive number (inf allowed)")
_positive_finite_float = _checked(float, lambda v: 0.0 < v < math.inf,
                                  "a positive finite number")
_non_negative_float = _checked(float, lambda v: 0.0 <= v < math.inf,
                               "a finite number >= 0")
_positive_int = _checked(int, lambda v: v > 0, "a positive integer")
_non_negative_int = _checked(int, lambda v: v >= 0, "a non-negative integer")


def _build_profile_trace(config_name: str, scalefold: bool,
                         workload: str = "alphafold"):
    from .model.config import KernelPolicy
    from .perf.trace_builder import build_step_trace
    from .workloads import get_workload

    wl = get_workload(workload)
    policy = (KernelPolicy.scalefold() if scalefold
              else KernelPolicy.reference())
    cfg = wl.preset(config_name, policy)
    return build_step_trace(policy=policy, cfg=cfg, workload=wl)


def cache_report(clear: bool = False) -> int:
    """Print disk-store and in-memory cache statistics."""
    from .framework.caching import cache_registry
    from .framework.trace_io import default_store

    store = default_store()
    if clear:
        removed = store.clear()
        print(f"removed {removed} disk cache entries")
    s = store.stats()
    state = "enabled" if s["enabled"] else "disabled"
    print(f"disk store ({state}): {s['root']}")
    print(f"  entries={s['entries']} bytes={s['bytes']:,} "
          f"traces={s['trace_hits']}h/{s['trace_misses']}m "
          f"arrays={s['array_hits']}h/{s['array_misses']}m "
          f"writes={s['writes']}")
    print("in-memory caches:")
    for name, st in sorted(cache_registry().items()):
        print(f"  {name:<16} size={st.size}/{st.capacity} "
              f"hits={st.hits} misses={st.misses} "
              f"evictions={st.evictions} hit_rate={st.hit_rate:.0%}")
    return 0


def trace_command(argv: List[str]) -> int:
    """``repro trace {export,top,flame,cache}`` — observability subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Export and analyze simulated kernel traces.")
    parser.add_argument("action", choices=("export", "top", "flame", "cache"))
    parser.add_argument("--workload", default="alphafold",
                        choices=_workload_choices(),
                        help="registered workload to trace "
                             "(default: alphafold)")
    parser.add_argument("--config", default="small",
                        choices=("tiny", "small", "full"),
                        help="model size preset (default: small)")
    parser.add_argument("--gpu", default="A100", help="GPU spec name")
    parser.add_argument("--scalefold", action="store_true",
                        help="use the fused ScaleFold kernel policy "
                             "(default: eager reference)")
    parser.add_argument("--output", "-o", default="trace.json",
                        help="[export] output path for chrome-trace JSON")
    parser.add_argument("--dap", type=_positive_int, default=1,
                        help="[export] DAP group size; >1 adds one "
                             "timeline track per simulated rank")
    parser.add_argument("--dp", type=_positive_int, default=1,
                        help="[export] data-parallel degree for the "
                             "multi-rank timeline")
    parser.add_argument("-k", type=int, default=15,
                        help="[top] number of kernels to show")
    parser.add_argument("--depth", type=int, default=3,
                        help="[flame] max tree depth to print")
    parser.add_argument("--min-pct", type=float, default=0.5,
                        help="[flame] prune frames below this %% of step")
    parser.add_argument("--folded", action="store_true",
                        help="[flame] emit folded stacks for flamegraph.pl")
    parser.add_argument("--clear", action="store_true",
                        help="[cache] delete every on-disk cache entry")
    args = parser.parse_args(argv)

    if args.action == "cache":
        return cache_report(clear=args.clear)

    from .hardware.gpu import get_gpu
    from .perf.profiler import scope_flame, top_kernels

    step = _build_profile_trace(args.config, args.scalefold, args.workload)
    gpu = get_gpu(args.gpu)

    if args.action == "export":
        from .observability import kernel_trace_to_chrome, timeline_to_chrome

        builder = kernel_trace_to_chrome(step.trace, gpu)
        if args.dap > 1 or args.dp > 1:
            from .perf.scaling import Scenario, estimate_step_time

            scenario = Scenario(policy=step.policy, gpu=args.gpu,
                                dap_n=args.dap, dp_degree=args.dp,
                                imbalance_enabled=False,
                                workload=args.workload,
                                preset=args.config)
            estimate = estimate_step_time(scenario, engine="event")
            timeline_to_chrome(estimate.timeline, into=builder)
        builder.write(args.output)
        print(f"wrote {len(builder)} events to {args.output} "
              f"(open in chrome://tracing or https://ui.perfetto.dev)")
        return 0

    if args.action == "top":
        rows = top_kernels(step, gpu, k=args.k)
        print(f"{'Kernel':<28}{'Time (ms)':>12}{'Calls':>10}"
              f"{'% step':>9}{'Mean (us)':>12}")
        for r in rows:
            print(f"{r.name:<28.28}{r.seconds * 1e3:>12.3f}{r.calls:>10,}"
                  f"{r.pct_of_step:>9.2f}{r.mean_us:>12.2f}")
        return 0

    flame = scope_flame(step, gpu)
    if args.folded:
        print("\n".join(flame.folded()))
    else:
        print(flame.format(max_depth=args.depth, min_pct=args.min_pct))
    return 0


def lint_command(argv: List[str]) -> int:
    """``repro lint [graph|trace|sched ...]`` — static analysis suite.

    Exit code 1 when any *new* (non-baselined) finding at or above
    ``--fail-on`` severity is produced; 0 otherwise.
    """
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Static + dynamic analysis over the reproduction: "
                    "autograd graph shape/dtype checks, kernel-trace fusion "
                    "and launch-overhead lint, DES schedule deadlock "
                    "detection, a real-thread race/deadlock detector (conc) "
                    "and a determinism AST hazard lint (ast).")
    parser.add_argument("analyzers", nargs="*", metavar="analyzer",
                        help="subset of {graph,trace,sched,conc,ast} "
                             "(default: all)")
    parser.add_argument("--workload", default="alphafold",
                        choices=_workload_choices(),
                        help="registered workload to lint "
                             "(default: alphafold)")
    parser.add_argument("--config", default="small",
                        choices=("tiny", "small", "full"),
                        help="model size preset (default: small)")
    parser.add_argument("--scalefold", action="store_true",
                        help="lint the fused ScaleFold kernel policy "
                             "(default: eager reference)")
    parser.add_argument("--gpu", default="A100", help="GPU spec name")
    parser.add_argument("--format", default="text", choices=("text", "json"),
                        help="report format (default: text)")
    parser.add_argument("--output", "-o", default=None,
                        help="also write the JSON report to this path")
    parser.add_argument("--baseline", default=None, metavar="PATH",
                        help="baseline file of waived findings "
                             "(default: LINT_BASELINE.json if present)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore any baseline file")
    parser.add_argument("--write-baseline", action="store_true",
                        help="write all current findings to the baseline "
                             "file and exit 0")
    parser.add_argument("--fail-on", default="warning",
                        choices=("info", "warning", "error"),
                        help="minimum new-finding severity that fails the "
                             "run (default: warning)")
    parser.add_argument("--show-waived", action="store_true",
                        help="[text] include baselined findings in output")
    parser.add_argument("--corpus", action="store_true",
                        help="[conc] also run the known-bug corpus of "
                             "re-broken shutdown paths; its findings are "
                             "expected (the detector's regression oracle)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    args = parser.parse_args(argv)

    from .analysis import (ANALYZERS, Baseline, Severity,
                           format_rule_catalogue, run_lint,
                           write_findings_json)
    from .analysis.baseline import DEFAULT_BASELINE_NAME

    if args.list_rules:
        print(format_rule_catalogue())
        return 0

    analyzers = tuple(args.analyzers) or ANALYZERS
    unknown = set(analyzers) - set(ANALYZERS)
    if unknown:
        parser.error(f"unknown analyzer(s): {', '.join(sorted(unknown))} "
                     f"(choose from {', '.join(ANALYZERS)})")

    baseline_path = args.baseline or DEFAULT_BASELINE_NAME
    baseline = None
    if not args.no_baseline and not args.write_baseline:
        baseline = Baseline.load_or_empty(baseline_path)

    report = run_lint(analyzers=analyzers, config_name=args.config,
                      scalefold=args.scalefold, gpu_name=args.gpu,
                      baseline=baseline, workload=args.workload,
                      conc_corpus=args.corpus)

    if args.write_baseline:
        Baseline.from_findings(
            report.findings,
            justification="baselined by --write-baseline; triage pending",
        ).save(baseline_path)
        print(f"wrote {len(report.findings)} finding(s) to {baseline_path}")
        return 0

    if args.output:
        write_findings_json(args.output, report)
    if args.format == "json":
        import json as _json
        print(_json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.format_text(show_waived=args.show_waived))
    return report.exit_code(fail_on=Severity.parse(args.fail_on))


def bench_command(argv: List[str]) -> int:
    """``repro bench`` — time the simulation pipeline, write a JSON report.

    Exits nonzero if the fast and event engines disagree on any simulated
    number (the bit-identity contract the fast path is built on).
    """
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Benchmark the simulation pipeline (trace build, "
                    "step simulation engines, 64-rank estimate, ladder "
                    "sweep) and write BENCH_simulation.json.")
    parser.add_argument("--gpu", default="H100", help="GPU spec name")
    parser.add_argument("--workload", default="all",
                        choices=_workload_choices() + ["all"],
                        help="workload(s) for the cross-workload table "
                             "(default: all registered)")
    parser.add_argument("--quick", action="store_true",
                        help="reduced sweep for CI (fewer ladder rungs)")
    parser.add_argument("--skip-ladder", action="store_true",
                        help="skip the optimization-ladder sweep stage")
    parser.add_argument("--output", "-o", default="BENCH_simulation.json",
                        help="report path (default: BENCH_simulation.json)")
    args = parser.parse_args(argv)

    from .perf.bench import format_bench, run_bench, write_bench

    workloads = None if args.workload == "all" else [args.workload]
    report = run_bench(gpu=args.gpu, quick=args.quick,
                       skip_ladder=args.skip_ladder, workloads=workloads)
    write_bench(args.output, report)
    print(format_bench(report))
    print(f"wrote {args.output}")
    if not report["golden_match"]:
        print("FAIL: fast and event engines diverged", file=sys.stderr)
        return 1
    if not report["cache_gates"]["ok"]:
        print("FAIL: cache hit-rate gates below threshold", file=sys.stderr)
        return 1
    return 0


def optimize_command(argv: List[str]) -> int:
    """``repro optimize`` — search the scenario knob space on the fast path.

    Runs coordinate descent with seeded restarts over the joint knob space
    (precision, fusion, DAP, GPU, batch, CUDA graphs, GC, DDP bucket),
    prices every point through the workload's convergence model plus
    Young/Daly checkpointing, and reports the best configuration and the
    time-vs-dollars Pareto frontier.  The search rides the incremental
    re-simulation path; unless ``--no-verify`` is given, every visited
    scenario is re-simulated cold and must match bit for bit.

    The ``-o`` report contains no wall timings and is byte-identical
    across runs for a fixed seed; ``--bench-out`` additionally writes
    BENCH_optimize.json with the timed delta-speedup gate.  Exits nonzero
    when any gate fails.
    """
    parser = argparse.ArgumentParser(
        prog="repro optimize",
        description="Optimize training scenarios over the simulator's "
                    "incremental fast path: coordinate descent + seeded "
                    "restarts, convergence-aware time-to-train objective, "
                    "Pareto frontier over dollars.")
    parser.add_argument("--workload", default="all",
                        choices=_workload_choices() + ["all"],
                        help="workload(s) to optimize (default: all)")
    parser.add_argument("--quick", action="store_true",
                        help="reduced space and restarts for CI")
    parser.add_argument("--seed", type=int, default=0,
                        help="restart-sampling seed (default: 0)")
    parser.add_argument("--restarts", type=_non_negative_int, default=2,
                        help="seeded random restarts beyond the origin "
                             "start (default: 2; quick caps at 1)")
    parser.add_argument("--no-verify", action="store_true",
                        help="skip the incremental-vs-full bit-identity "
                             "check over every visited scenario")
    parser.add_argument("--gpus", default=None, metavar="NAMES",
                        help="comma-separated GPU knob candidates, or "
                             "'portfolio' for every registered spec "
                             "(default: A100,H100)")
    parser.add_argument("--output", "-o", default=None, metavar="PATH",
                        help="write the deterministic search report JSON "
                             "(no timings; byte-stable per seed)")
    parser.add_argument("--bench-out", default=None, metavar="PATH",
                        help="write BENCH_optimize.json (timed gates)")
    args = parser.parse_args(argv)

    import json as _json

    from .optimize import (build_report, optimize_workload,
                           run_optimize_bench, verify_incremental)
    from .workloads import list_workloads

    gpus = None
    if args.gpus == "portfolio":
        from .hardware.gpu import list_gpus

        gpus = tuple(list_gpus())
    elif args.gpus:
        gpus = tuple(n.strip() for n in args.gpus.split(",") if n.strip())

    names = list_workloads() if args.workload == "all" else [args.workload]
    results = []
    verify: dict = {}
    gates_ok = True
    for name in names:
        result = optimize_workload(name, quick=args.quick, seed=args.seed,
                                   n_restarts=args.restarts, gpus=gpus)
        results.append(result)
        best = result.best
        ttt = best.ttt
        print(f"[{name}] best after {result.n_calls} evaluations "
              f"({result.n_unique} unique, rounds "
              f"{result.rounds_per_start}):")
        print(f"  {best.ttt.scenario_label}")
        print(f"  point: {best.point}")
        print(f"  expected {ttt.expected_total_hours:.3f} h on "
              f"{ttt.world_size} GPUs = {ttt.gpu_hours:.0f} GPU-h = "
              f"${ttt.dollar_cost:,.0f} "
              f"(checkpoint every {ttt.checkpoint_every_steps} steps)")
        print(f"  Pareto frontier ({len(result.frontier.overall)} points):")
        for record in result.frontier.overall:
            r = record.ttt
            print(f"    {r.expected_total_hours:>7.3f} h  "
                  f"${r.dollar_cost:>10,.0f}  {r.scenario_label}")
        if not args.no_verify:
            checked = verify_incremental(result)
            verify[name] = checked
            state = ("ok" if checked["match"]
                     else f"MISMATCH {checked['mismatches']}")
            print(f"  incremental==full on {checked['n_checked']} visited "
                  f"scenarios: {state}")
            gates_ok = gates_ok and checked["match"]

    if args.output:
        with open(args.output, "w") as handle:
            _json.dump(build_report(results, args.quick, args.seed),
                       handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")

    if args.bench_out:
        bench = run_optimize_bench(results, args.quick, args.seed,
                                   verify=verify or None)
        with open(args.bench_out, "w") as handle:
            _json.dump(bench, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.bench_out}")
        for name, sp in bench["delta_speedup"].items():
            note = ("" if sp["gated"]
                    else ", informational: cold estimate not trace-bound")
            print(f"  [{name}] cold full {sp['cold_full_s']:.3f}s, "
                  f"single-knob deltas >= {sp['min_speedup']:.1f}x faster "
                  f"(target {sp['target']:.0f}x{note})")
        gates_ok = gates_ok and bench["gates"]["ok"]

    if not gates_ok:
        print("FAIL: optimize gates did not pass", file=sys.stderr)
        return 1
    return 0


def faults_command(argv: List[str]) -> int:
    """``repro faults`` — expected time-to-train under failures.

    Answers "what is the expected MLPerf time-to-train at N ranks with a
    per-rank MTBF of X hours and a checkpoint every K steps", sweeps the
    checkpoint interval for its optimum (Young/Daly), and cross-validates
    the closed-form answer against the fault-injecting discrete-event
    cluster simulation.  All outputs are deterministic for a fixed seed.
    """
    parser = argparse.ArgumentParser(
        prog="repro faults",
        description="Failure-aware time-to-train: MTBF-driven fault "
                    "injection, checkpoint-restart modeling and the "
                    "optimal-checkpoint-interval sweep.")
    parser.add_argument("--workload", default="alphafold",
                        choices=_workload_choices(),
                        help="registered workload to model "
                             "(default: alphafold)")
    parser.add_argument("--ranks", type=int, nargs="+", default=[256, 2080],
                        help="total GPU counts to evaluate "
                             "(default: 256 2080)")
    parser.add_argument("--mtbf-hours", type=_positive_float, default=26280.0,
                        help="per-rank mean time between faults in hours "
                             "(default: 26280 = 3 years; 'inf' disables)")
    parser.add_argument("--switch-mtbf-hours", type=_positive_float,
                        default=float("inf"),
                        help="per-switch MTBF for correlated node outages "
                             "(default: inf = disabled)")
    parser.add_argument("--checkpoint-every", type=int, default=250,
                        help="checkpoint interval in steps (default: 250)")
    parser.add_argument("--checkpoint-write-s", type=_non_negative_float,
                        default=None,
                        help="checkpoint write seconds (default: derived "
                             "from the workload's parameter count)")
    parser.add_argument("--async-checkpoint", action="store_true",
                        help="model asynchronous checkpointing (brief "
                             "snapshot stall, delayed durability)")
    parser.add_argument("--snapshot-stall-s", type=float, default=0.05,
                        help="[async] snapshot stall seconds (default 0.05)")
    parser.add_argument("--restart-s", type=_non_negative_float,
                        default=180.0,
                        help="requeue+relaunch+init seconds after an abort")
    parser.add_argument("--seed", type=int, default=0,
                        help="fault-injection seed (default: 0)")
    parser.add_argument("--gpu", default="H100", help="GPU spec name")
    parser.add_argument("--step-seconds", type=_positive_float, default=None,
                        help="override the modeled step time (skips the "
                             "kernel-level step estimate)")
    parser.add_argument("--no-sweep", action="store_true",
                        help="skip the checkpoint-interval sweep")
    parser.add_argument("--no-sim", action="store_true",
                        help="skip the DES cross-validation run")
    parser.add_argument("--sim-max-steps", type=int, default=None,
                        help="step cap for the DES validation "
                             "(default: 2000, or 600 with --quick)")
    parser.add_argument("--quick", action="store_true",
                        help="reduced settings for CI smoke runs")
    parser.add_argument("--runlog", default=None, metavar="PATH",
                        help="write the DES runs' structured JSONL log")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write a chrome-trace JSON of the DES runs' "
                             "faults, checkpoints and recovery windows")
    parser.add_argument("--output", "-o", default=None, metavar="PATH",
                        help="write the full result JSON (deterministic)")
    args = parser.parse_args(argv)

    from .observability.chrome_trace import (ChromeTrace, faults_to_chrome,
                                             timeline_to_chrome)
    from .observability.runlog import RunLogger
    from .perf.time_to_train import (failure_aware_time_to_train,
                                     mlperf_time_to_train)
    from .sim.cluster import ClusterSimConfig, run_cluster_simulation
    from .sim.faults import (CheckpointPolicy, FaultConfig,
                             checkpoint_write_seconds)
    from .workloads import get_workload

    workload = get_workload(args.workload)
    fault_config = FaultConfig(
        mtbf_rank_hours=args.mtbf_hours,
        switch_mtbf_hours=args.switch_mtbf_hours,
        restart_s=args.restart_s,
        seed=args.seed)
    write_s = (args.checkpoint_write_s if args.checkpoint_write_s is not None
               else checkpoint_write_seconds(workload.checkpoint_params))
    policy = CheckpointPolicy(
        every_steps=args.checkpoint_every, write_s=write_s,
        blocking=not args.async_checkpoint,
        snapshot_stall_s=args.snapshot_stall_s if args.async_checkpoint
        else 0.0)
    sim_max_steps = (args.sim_max_steps if args.sim_max_steps is not None
                     else (600 if args.quick else 2000))

    run_logger = RunLogger(args.runlog) if args.runlog else None
    trace_builder = ChromeTrace() if args.trace else None
    configs = []
    rows = []
    for n_ranks in args.ranks:
        base = mlperf_time_to_train(
            scalefold=True, async_eval=True, n_gpus=n_ranks, gpu=args.gpu,
            step_seconds_override=args.step_seconds,
            workload=args.workload)
        fault_aware = failure_aware_time_to_train(
            base, fault_config, policy, sweep=not args.no_sweep)
        entry = {"n_ranks": n_ranks, "model": fault_aware.as_dict(),
                 "sim": None}

        if not args.no_sim:
            phase = base.phases[0]
            sim_result = run_cluster_simulation(ClusterSimConfig(
                step_seconds=phase.step_seconds,
                n_sync_ranks=phase.train_gpus,
                n_train_gpus=phase.train_gpus,
                start_samples=workload.mlperf_start_samples,
                max_steps=sim_max_steps,
                seed=args.seed,
                faults=fault_config,
                checkpoint=policy), run_logger=run_logger)
            aborts = [f for f in sim_result.faults if f.downtime_s > 0]
            entry["sim"] = {
                "total_seconds": sim_result.total_seconds,
                "steps": sim_result.steps,
                "converged": sim_result.converged,
                "n_faults": len(sim_result.faults),
                "n_aborts": len(aborts),
                "lost_steps": sim_result.lost_steps,
                "downtime_seconds": sim_result.downtime_seconds,
                "n_checkpoints": len(sim_result.checkpoints),
                "n_durable": sum(1 for c in sim_result.checkpoints
                                 if c.durable),
            }
            if trace_builder is not None:
                pid = n_ranks
                if sim_result.timeline is not None:
                    timeline_to_chrome(sim_result.timeline, pid_base=pid,
                                       label=f"faults-{n_ranks}r",
                                       into=trace_builder)
                faults_to_chrome(sim_result.faults, sim_result.checkpoints,
                                 pid=pid, label=f"faults-{n_ranks}r",
                                 into=trace_builder)

        configs.append(entry)
        model = entry["model"]
        sweep = model["sweep"]
        rows.append((
            n_ranks,
            model["fault_free_total_s"] / 60.0,
            model["expected_total_s"] / 60.0,
            model["expected_failures"],
            sweep["best_every_steps"] if sweep else args.checkpoint_every,
            (sweep["young_daly_steps"] if sweep else None),
        ))

    header = (f"{'Ranks':>6} {'Fault-free':>12} {'Expected':>12} "
              f"{'E[fail]':>9} {'Best k':>8} {'Young/Daly k':>13}")
    print(f"workload: {workload.name} | MTBF/rank: {args.mtbf_hours} h "
          f"| switch MTBF: "
          f"{args.switch_mtbf_hours} h | checkpoint every "
          f"{args.checkpoint_every} steps "
          f"({'async' if args.async_checkpoint else 'blocking'}, "
          f"write {write_s:.3f}s) | seed {args.seed}")
    print(header)
    for n_ranks, free_min, exp_min, fails, best_k, yd_k in rows:
        yd = f"{yd_k:>13.0f}" if yd_k is not None else f"{'-':>13}"
        print(f"{n_ranks:>6} {free_min:>10.2f} m {exp_min:>10.2f} m "
              f"{fails:>9.3f} {best_k:>8}{yd}")

    if run_logger is not None:
        run_logger.close()
        print(f"wrote run log to {args.runlog}")
    if trace_builder is not None:
        trace_builder.write(args.trace)
        print(f"wrote {len(trace_builder)} trace events to {args.trace}")
    if args.output:
        import json as _json
        payload = {
            "workload": workload.name,
            "mtbf_rank_hours": args.mtbf_hours,
            "switch_mtbf_hours": (None if math.isinf(args.switch_mtbf_hours)
                                  else args.switch_mtbf_hours),
            "checkpoint_every_steps": args.checkpoint_every,
            "checkpoint_write_s": write_s,
            "checkpoint_blocking": not args.async_checkpoint,
            "restart_s": args.restart_s,
            "seed": args.seed,
            "gpu": args.gpu,
            "configs": configs,
        }
        with open(args.output, "w") as handle:
            _json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")
    return 0


def serve_command(argv: List[str]) -> int:
    """``repro serve`` — the inference-serving layer.

    ``--mode fleet`` (default) runs the DES fleet model: N frontends and M
    GPU workers serving a seeded traffic mix of every requested workload,
    priced from the calibrated per-kernel cost arrays; the JSON report
    (p50/p99 latency, goodput, queue depth, per-worker utilization) is
    bit-deterministic for a given seed.  ``--mode broker`` runs the real
    threaded broker: admission, length-bucketed batching, a CPU prep pool
    and GPU execution workers pushing actual tiny-preset batches through
    the actual model.  ``--mode both`` runs both.
    """
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Simulate (and actually run) the inference-serving "
                    "pipeline: broker, batching, fleet capacity.")
    parser.add_argument("--mode", choices=("fleet", "broker", "both"),
                        default="fleet")
    parser.add_argument("--workloads", nargs="+", default=None,
                        choices=_workload_choices(), metavar="WL",
                        help="traffic mix (default: every registered "
                             "workload)")
    parser.add_argument("--preset", default="tiny",
                        choices=("tiny", "small", "full"),
                        help="model size preset (default: tiny)")
    parser.add_argument("--gpu", default="H100", help="GPU spec name")
    parser.add_argument("--pattern", default="poisson",
                        choices=("poisson", "bursty", "diurnal"),
                        help="[fleet] arrival process (default: poisson)")
    parser.add_argument("--rate", type=_positive_finite_float, default=1.0,
                        help="[fleet] mean arrival rate, requests/s")
    parser.add_argument("--duration", type=_positive_finite_float,
                        default=120.0,
                        help="[fleet] arrival window, simulated seconds")
    parser.add_argument("--frontends", type=int, default=2)
    parser.add_argument("--prep-workers", type=int, default=4,
                        help="CPU feature-preparation pool size")
    parser.add_argument("--gpu-workers", type=int, default=4)
    parser.add_argument("--max-batch", type=int, default=4)
    parser.add_argument("--max-wait-s", type=float, default=0.2,
                        help="batching max-wait flush timer")
    parser.add_argument("--queue-limit", type=int, default=256,
                        help="admission bound on in-flight requests")
    parser.add_argument("--mtbf-hours", type=_positive_float,
                        default=float("inf"),
                        help="[fleet] per-worker MTBF; finite values "
                             "enable fault injection (default: inf = off)")
    parser.add_argument("--restart-s", type=_non_negative_float, default=30.0,
                        help="[fleet] worker restart seconds after an abort")
    parser.add_argument("--requests", type=int, default=4,
                        help="[broker] concurrent requests to serve")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="reduced settings for CI smoke runs")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="[fleet] write per-request chrome-trace JSON")
    parser.add_argument("--output", "-o", default=None, metavar="PATH",
                        help="write the report JSON (deterministic fields "
                             "only; bit-identical for a given seed)")
    args = parser.parse_args(argv)

    import json as _json

    from .serve import (ArrivalConfig, BrokerConfig, FleetConfig, run_fleet,
                        run_broker_smoke)
    from .sim.faults import FaultConfig
    from .workloads import list_workloads

    workloads = tuple(args.workloads or list_workloads())
    duration = 30.0 if args.quick and args.duration == 120.0 \
        else args.duration
    payload: dict = {}

    if args.mode in ("fleet", "both"):
        faults = None
        if math.isfinite(args.mtbf_hours):
            faults = FaultConfig(mtbf_rank_hours=args.mtbf_hours,
                                 restart_s=args.restart_s, seed=args.seed)
        result = run_fleet(
            FleetConfig(
                workloads=workloads, preset=args.preset, gpu=args.gpu,
                n_frontends=args.frontends,
                n_prep_workers=args.prep_workers,
                n_gpu_workers=args.gpu_workers, max_batch=args.max_batch,
                max_wait_s=args.max_wait_s, queue_limit=args.queue_limit,
                duration_s=duration, seed=args.seed, faults=faults),
            ArrivalConfig(pattern=args.pattern, rate_rps=args.rate))
        report = result.report()
        payload["fleet"] = report

        fleet = report["fleet"]
        print(f"fleet: {fleet['completed']}/{fleet['requests']} completed "
              f"({fleet['rejected']} rejected) over "
              f"{fleet['makespan_s']:.1f}s | goodput "
              f"{fleet['goodput_rps']:.3f} rps | mean queue depth "
              f"{fleet['mean_queue_depth']:.1f}"
              + (f" | aborted attempts {fleet['aborted_attempts']}"
                 if faults else ""))
        print(f"{'Workload':<14} {'req':>5} {'done':>5} {'p50':>9} "
              f"{'p99':>9} {'SLO':>8} {'in-SLO':>7} {'goodput':>9}")
        for name in workloads:
            row = report["workloads"][name]
            lat = row["latency_s"]
            print(f"{name:<14} {row['requests']:>5} {row['completed']:>5} "
                  f"{lat['p50']:>8.2f}s {lat['p99']:>8.2f}s "
                  f"{row['slo_s']:>7.1f}s {row['within_slo']:>7} "
                  f"{row['goodput_rps']:>7.3f}/s")

        if args.trace:
            from .observability.chrome_trace import fleet_to_chrome

            builder = fleet_to_chrome(result)
            builder.write(args.trace)
            print(f"wrote {len(builder)} trace events to {args.trace}")

    if args.mode in ("broker", "both"):
        broker_workloads = (workloads if args.mode == "broker"
                            else workloads[:1])
        payload["broker"] = {}
        for name in broker_workloads:
            smoke = run_broker_smoke(
                name, n_requests=args.requests,
                config=BrokerConfig(workload=name, preset=args.preset))
            det, timing = smoke["deterministic"], smoke["timing"]
            payload["broker"][name] = det
            print(f"broker[{name}]: served {det['completed']}"
                  f"/{det['n_requests']} real requests "
                  f"(max in flight {det['max_inflight']}) in "
                  f"{timing['wall_s']:.2f}s wall")

    if args.output:
        with open(args.output, "w") as handle:
            _json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")
    return 0


def calibrate_command(argv: List[str]) -> int:
    """``repro calibrate`` — fit a GpuSpec from timings, gate the result."""
    parser = argparse.ArgumentParser(
        prog="repro calibrate",
        description="Measure (or synthesize/import) kernel timings, fit "
                    "GpuSpec + roofline parameters with confidence "
                    "intervals, and gate the fitted spec on cross-engine "
                    "bit-consistency.")
    parser.add_argument("--quick", action="store_true",
                        help="reduced sample grid (CI mode)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for inputs / synthetic noise")
    parser.add_argument("--source", default="measured",
                        help="'measured' (time this machine's numpy "
                             "substrate) or 'synthetic[:SPEC]' "
                             "(deterministic model-predicted timings)")
    parser.add_argument("--base", default="A100",
                        help="catalog spec supplying unfitted fields")
    parser.add_argument("--register", default=None,
                        help="registry key for the fitted spec "
                             "(default: CAL-<base>)")
    parser.add_argument("--samples", default=None,
                        help="refit a saved samples artifact instead of "
                             "measuring")
    parser.add_argument("--samples-out", default=None,
                        help="write the sample artifact for later refits")
    parser.add_argument("--import-trace", default=None,
                        help="merge a chrome-trace JSON into the fit set")
    parser.add_argument("--import-runlog", default=None,
                        help="merge an MLPerf-style runlog JSONL")
    parser.add_argument("--no-roundtrip", action="store_true",
                        help="skip the export->import->refit check")
    parser.add_argument("--output", "-o", default=None,
                        help="write the full JSON report")
    parser.add_argument("--bench-out", default=None,
                        help="write the BENCH_calibrate.json gate summary")
    args = parser.parse_args(argv)

    from .calibrate import bench_gates, run_calibrate, write_report

    report = run_calibrate(
        quick=args.quick, seed=args.seed, source=args.source,
        base=args.base, register_as=args.register,
        samples_in=args.samples, samples_out=args.samples_out,
        import_trace=args.import_trace,
        import_runlog_path=args.import_runlog,
        roundtrip=not args.no_roundtrip)

    fit = report["fit"]
    print(f"calibrated {report['registered_as']} "
          f"(base {report['base']}, source {report['source']}, "
          f"{sum(report['sample_counts'].values())} samples)")
    print(f"{'parameter':<26}{'value':>14}{'95% CI':>26}{'n':>5}")
    for param in fit["params"]:
        ci = f"[{param['ci95_lo']:.6g}, {param['ci95_hi']:.6g}]"
        flag = " (bounded)" if param["bounded"] else ""
        print(f"{param['name']:<26}{param['value']:>14.6g}{ci:>26}"
              f"{param['n_samples']:>5}{flag}")
    for stage, res in fit["residuals"].items():
        print(f"residual[{stage}]: rms_rel={res['rms_rel_err']:.4f} "
              f"max_rel={res['max_rel_err']:.4f} r2={res['r2']:.4f}")
    if fit.get("skipped_kinds"):
        print(f"skipped stages (no samples): "
              f"{', '.join(fit['skipped_kinds'])}")
    for check, ok in report["gate"]["checks"].items():
        print(f"gate {check}: {'ok' if ok else 'FAIL'}")
    if "roundtrip" in report:
        print(f"trace roundtrip: "
              f"{'ok' if report['roundtrip']['ok'] else 'FAIL'}")
    print(f"golden_match: {report['golden_match']}")

    if args.output:
        write_report(report, args.output)
        print(f"report written to {args.output}")
    if args.bench_out:
        import json as _json

        with open(args.bench_out, "w") as handle:
            _json.dump(bench_gates(report), handle, indent=2,
                       sort_keys=True)
            handle.write("\n")
        print(f"gate summary written to {args.bench_out}")
    return 0 if report["golden_match"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    from .hardware.gpu import UnknownGpuError

    commands = {"trace": trace_command, "bench": bench_command,
                "lint": lint_command, "optimize": optimize_command,
                "faults": faults_command, "serve": serve_command,
                "calibrate": calibrate_command}
    if argv and argv[0] in commands:
        try:
            return commands[argv[0]](argv[1:])
        except UnknownGpuError as exc:
            # Every --gpu path funnels through get_gpu; surface the
            # friendly listing instead of a traceback.
            print(f"error: {exc}", file=sys.stderr)
            return 2
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ScaleFold reproduction: regenerate the paper's tables "
                    "and figures from the simulation.")
    parser.add_argument("experiment", nargs="?",
                        help=f"one of: {', '.join(sorted(EXPERIMENTS))}, "
                             "'all', 'report', or 'optimizations'")
    parser.add_argument("--output", "-o", default=None,
                        help="write 'report' output to a file")
    args = parser.parse_args(argv)

    if args.experiment in (None, "list"):
        print("available experiments:")
        for key in sorted(EXPERIMENTS):
            print(f"  {key}")
        print("  all")
        print("  report")
        print("  optimizations")
        return 0
    if args.experiment == "optimizations":
        print(format_table())
        return 0
    if args.experiment == "report":
        from .core.report import generate_report, write_report

        if args.output:
            write_report(args.output)
            print(f"report written to {args.output}")
        else:
            print(generate_report())
        return 0
    if args.experiment != "all" and args.experiment not in EXPERIMENTS:
        print(f"error: unknown experiment {args.experiment!r}; choose from "
              f"{', '.join(sorted(EXPERIMENTS))}, all, report, or "
              "optimizations", file=sys.stderr)
        return 2
    ids = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for experiment_id in ids:
        result = run_experiment(experiment_id)
        print(result.format())
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
