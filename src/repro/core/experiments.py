"""Experiment registry: one callable per reproduced table/figure.

Each experiment returns an :class:`ExperimentResult` whose ``rows`` are the
same series the paper plots/tabulates.  The benchmark suite under
``benchmarks/`` wraps these; ``python -m repro <id>`` runs one from the CLI.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from ..datapipe.prep_time import sorted_prep_times, tail_statistics
from ..datapipe.samples import SyntheticProteinDataset
from ..datapipe.sim_pipeline import simulate_pipeline
from ..hardware.gpu import get_gpu
from ..hardware.roofline import CostModel
from ..model.config import AlphaFoldConfig, KernelPolicy
from ..perf.profiler import (key_operation_analysis, module_time_shares,
                             table1_breakdown)
from ..perf.scaling import (LADDER_LABELS, N_MEASURED_STEPS, N_WARMUP_STEPS,
                            Scenario, barrier_breakdown, estimate_step_time,
                            optimization_ladder)
from ..perf.step_time import simulate_step
from ..perf.time_to_train import (curve_with_walltime, mlperf_time_to_train,
                                  pretraining_time_to_train)
from ..perf.trace_builder import build_step_trace


@dataclass
class ExperimentResult:
    experiment_id: str
    title: str
    rows: List[Dict[str, object]]
    notes: str = ""

    def format(self) -> str:
        if not self.rows:
            return f"== {self.experiment_id}: {self.title} ==\n(no rows)"
        keys = list(self.rows[0].keys())
        widths = {k: max(len(str(k)),
                         *(len(_fmt(r.get(k))) for r in self.rows)) + 2
                  for k in keys}
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append("".join(str(k).ljust(widths[k]) for k in keys))
        for r in self.rows:
            lines.append("".join(_fmt(r.get(k)).ljust(widths[k]) for k in keys))
        if self.notes:
            lines.append(self.notes)
        return "\n".join(lines)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.3f}"
    return str(v)


# ----------------------------------------------------------------------
# Table 1
# ----------------------------------------------------------------------
def run_table1(gpu: str = "A100") -> ExperimentResult:
    """Kernel breakdown of one training step (paper Table 1)."""
    paper = {
        "CPU Overhead": (9.10, None),
        "Math-bounded": (24.06, 18147),
        "Memory-bounded": (65.03, 97749),
        "Memory-operation": (1.82, 34991),
    }
    step = build_step_trace(KernelPolicy.reference(), n_recycle=1)
    table = table1_breakdown(step, get_gpu(gpu))
    rows = []
    for r in table.rows:
        p_pct, p_calls = paper[r.kernel_type]
        rows.append({
            "kernel_type": r.kernel_type,
            "runtime_pct": r.runtime_pct,
            "calls": r.calls if r.calls is not None else "-",
            "paper_pct": p_pct,
            "paper_calls": p_calls if p_calls is not None else "-",
        })
    return ExperimentResult(
        "table1", "Kernel breakdown of the AlphaFold training step", rows,
        notes=f"step time on {gpu}: {table.total_seconds:.2f}s "
              f"(paper reference: 6.76s A100 / 4.07s H100)")


def run_key_operations(gpu: str = "A100") -> ExperimentResult:
    """§2.2 'Suboptimal Key-Operation Performance' analysis."""
    paper = {
        "MHA": (34.0, 26.0), "LayerNorm": (14.0, 10.0),
        "WeightUpdate": (6.0, 10.0), "SWA": (6.0, 5.0), "GradClip": (3.0, 1.0),
    }
    ref = build_step_trace(KernelPolicy.reference(), n_recycle=1)
    fused_policy = KernelPolicy.scalefold(checkpointing=True).replace(
        dtype=ref.policy.dtype)
    fused = build_step_trace(fused_policy, n_recycle=1)
    rows = []
    for s in key_operation_analysis(ref, fused, get_gpu(gpu)):
        p_share, p_ach = paper[s.name]
        rows.append({
            "operation": s.name,
            "step_share_pct": s.step_share_pct,
            "achieved_pct_of_peak": s.achieved_pct_of_theoretical,
            "calls": s.calls,
            "paper_share_pct": p_share,
            "paper_achieved_pct": p_ach,
        })
    return ExperimentResult("key_ops",
                            "Key-operation shares and % of theoretical", rows)


# ----------------------------------------------------------------------
# Figure 3 + §3.1 baseline DAP scaling
# ----------------------------------------------------------------------
def run_fig3(gpu: str = "A100") -> ExperimentResult:
    """Barriers to DAP scalability (paper Figure 3)."""
    rows = []
    base = estimate_step_time(Scenario(policy=KernelPolicy.reference(),
                                       gpu=gpu, dap_n=1))
    for n in (2, 4, 8):
        bb = barrier_breakdown(Scenario(policy=KernelPolicy.reference(),
                                        gpu=gpu, dap_n=n),
                               base_estimate=base)
        row = {"dap_n": n, "actual_s": bb.actual_s, "ideal_s": bb.ideal_s,
               "gap_s": bb.gap_s}
        row.update({f"{k}_s": v * bb.gap_s for k, v in
                    {k: s for k, s in bb.shares().items()}.items()})
        rows.append(row)
    return ExperimentResult(
        "fig3", "Scalability-barrier breakdown per DAP degree", rows,
        notes="paper: DAP-2 dominated by CPU overhead + serial modules; "
              "DAP-4/8 by imbalanced communication")


def run_dap_baseline(gpu: str = "A100") -> ExperimentResult:
    """Pre-optimization DAP speedups (§3.1: 1.42x / 1.57x / no gain)."""
    paper = {1: 1.0, 2: 1.42, 4: 1.57, 8: 1.57}
    rows = []
    base = None
    for n in (1, 2, 4, 8):
        est = estimate_step_time(Scenario(policy=KernelPolicy.reference(),
                                          gpu=gpu, dap_n=n))
        if base is None:
            base = est.total_s
        rows.append({"dap_n": n, "step_s": est.total_s,
                     "speedup": base / est.total_s,
                     "paper_speedup": paper[n]})
    return ExperimentResult("dap_baseline",
                            "DAP speedup before ScaleFold optimizations", rows)


# ----------------------------------------------------------------------
# Figure 4 / Figure 5
# ----------------------------------------------------------------------
def run_fig4(n_samples: int = 2048) -> ExperimentResult:
    """Sorted batch preparation times (paper Figure 4)."""
    dataset = SyntheticProteinDataset(AlphaFoldConfig.full(), size=n_samples)
    times = sorted_prep_times(dataset, n=n_samples)
    stats = tail_statistics(times, step_time_s=1.8)
    rows = [{"percentile": p, "prep_seconds": float(np.percentile(times, p))}
            for p in (1, 10, 25, 50, 75, 90, 95, 99, 99.9, 100)]
    return ExperimentResult(
        "fig4", "Sorted batch preparation time", rows,
        notes=f"dynamic range {stats['dynamic_range']:.0f}x; "
              f"{100 * float(np.mean(times > 3 * np.median(times))):.1f}% of "
              f"batches are >3x the median (paper: ~10% are slow outliers)")


def run_fig5(step_time_s: float = 2.0) -> ExperimentResult:
    """Blocking vs non-blocking pipeline (paper Figure 5)."""
    # The paper's illustrative scenario: batch b is slow, c is ready first.
    prep = [2.0, 7.0, 3.0, 2.0, 2.0, 2.0]
    rows = []
    for blocking in (True, False):
        res = simulate_pipeline(prep, n_workers=2, step_time_s=step_time_s,
                                blocking=blocking, warmup_s=2.0)
        rows.append({
            "pipeline": "blocking (PyTorch)" if blocking else "non-blocking (ScaleFold)",
            "total_s": res.total_time_s,
            "stall_s": res.total_stall_s,
            "delivery_order": "".join(chr(ord('a') + i) for i in res.delivery_order),
        })
    return ExperimentResult(
        "fig5", "Slow-batch handling: blocking vs non-blocking pipeline",
        rows, notes="paper Fig 5: non-blocking yields batch c before slow "
                    "batch b, eliminating the idle rank")


# ----------------------------------------------------------------------
# Figure 7 / Figure 8
# ----------------------------------------------------------------------
def run_fig7() -> ExperimentResult:
    """Step time across DAP degrees vs OpenFold/FastFold (paper Figure 7)."""
    rows = [
        {"system": "OpenFold (public)", "gpu": "A100", "dap_n": 1,
         "step_s": 6.19, "source": "FastFold paper"},
        {"system": "FastFold", "gpu": "A100", "dap_n": 2,
         "step_s": 2.49, "source": "FastFold paper"},
    ]
    sf = KernelPolicy.scalefold(checkpointing=True)
    est = estimate_step_time(Scenario(policy=sf, gpu="A100", dap_n=2,
                                      cuda_graphs=True, gc_disabled=True,
                                      torch_compile=True,
                                      nonblocking_pipeline=True))
    rows.append({"system": "ScaleFold (sim)", "gpu": "A100", "dap_n": 2,
                 "step_s": est.total_s, "source": "this repro (paper: 1.88)"})
    paper_h100 = {1: 1.80, 2: 1.12, 4: 0.75, 8: 0.65}
    for n in (1, 2, 4, 8):
        policy = KernelPolicy.scalefold(checkpointing=n < 8)
        est = estimate_step_time(Scenario(policy=policy, gpu="H100", dap_n=n,
                                          cuda_graphs=n > 1, gc_disabled=True,
                                          torch_compile=True,
                                          nonblocking_pipeline=True))
        rows.append({"system": "ScaleFold (sim)", "gpu": "H100", "dap_n": n,
                     "step_s": est.total_s,
                     "source": f"this repro (paper: {paper_h100[n]})"})
    return ExperimentResult("fig7", "Step time vs DAP degree", rows)


PAPER_LADDER_SPEEDUPS = {
    "reference": 1.0, "+gemm_batching": 1.03, "+nonblocking_dataloader": 1.04,
    "+bf16": 1.24, "+triton_mha": 1.12, "+triton_layernorm": 1.13,
    "+fused_adam_swa": 1.17, "+dap8_cudagraph_nockpt": 1.79,
    "+gc_disabled": 1.13, "+torch_compile": 1.17,
}


def run_fig8(gpu: str = "H100") -> ExperimentResult:
    """Step-by-step optimization ladder (paper Figure 8)."""
    rows = []
    prev = None
    first = None
    paper_cum = 1.0
    # Every rung over the same (policy, DAP) trace shares one set of cached
    # cost arrays.
    for label, scenario in zip(LADDER_LABELS, optimization_ladder(gpu=gpu)):
        est = estimate_step_time(scenario)
        if first is None:
            first = est.total_s
            prev = est.total_s
        marginal = prev / est.total_s
        paper_cum *= PAPER_LADDER_SPEEDUPS[label]
        rows.append({
            "stage": label,
            "step_s": est.total_s,
            "marginal_speedup": marginal,
            "cumulative_speedup": first / est.total_s,
            "paper_marginal": PAPER_LADDER_SPEEDUPS[label],
            "paper_cumulative": paper_cum,
        })
        prev = est.total_s
    return ExperimentResult(
        "fig8", f"Optimization ladder on {gpu}", rows,
        notes="paper total: ~6.2x on H100")


# ----------------------------------------------------------------------
# Figures 9-11
# ----------------------------------------------------------------------
def run_fig9() -> ExperimentResult:
    """Time-to-train breakdown; eval share growth and async eval (Fig 9)."""
    rows = []
    # Eval share at three optimization eras (sync eval, shrinking steps).
    for label, step_override in (("early (step~2.4s)", 2.4),
                                 ("mid (step~1.0s)", 1.0),
                                 ("final sync (step~0.5s)", None)):
        r = mlperf_time_to_train(scalefold=True, async_eval=False,
                                 step_seconds_override=step_override)
        b = r.breakdown()
        rows.append({"config": label, "total_min": r.total_minutes,
                     "train_min": b["train_s"] / 60,
                     "eval_min": b["eval_blocked_s"] / 60,
                     "init_min": b["init_s"] / 60,
                     "eval_fraction": b["eval_fraction"]})
    r = mlperf_time_to_train(scalefold=True, async_eval=True)
    b = r.breakdown()
    rows.append({"config": "final async eval", "total_min": r.total_minutes,
                 "train_min": b["train_s"] / 60,
                 "eval_min": b["eval_blocked_s"] / 60,
                 "init_min": b["init_s"] / 60,
                 "eval_fraction": b["eval_fraction"]})
    return ExperimentResult(
        "fig9", "Time-to-train breakdown (eval share 22%->43%, then async)",
        rows, notes="paper: eval grows from 22% to 43% of TTT as steps "
                    "shrink; async eval removes it (7.51 vs ~11 min)")


def run_fig10() -> ExperimentResult:
    """MLPerf HPC time-to-train (paper Figure 10)."""
    rows = []
    ref = mlperf_time_to_train(scalefold=False)
    sf_async = mlperf_time_to_train(scalefold=True, async_eval=True)
    sf_sync = mlperf_time_to_train(scalefold=True, async_eval=False)
    rows.append({"system": "MLPerf reference (256 GPUs)",
                 "ttt_min": ref.total_minutes, "paper_min": "~45 (6x slower)"})
    rows.append({"system": "ScaleFold sync eval (2048 GPUs)",
                 "ttt_min": sf_sync.total_minutes, "paper_min": "~11"})
    rows.append({"system": "ScaleFold async eval (2080 GPUs)",
                 "ttt_min": sf_async.total_minutes, "paper_min": "7.51"})
    speedup = ref.total_minutes / sf_async.total_minutes
    return ExperimentResult("fig10", "MLPerf HPC OpenFold time-to-train",
                            rows, notes=f"speedup vs reference: "
                                        f"{speedup:.1f}x (paper: 6x)")


def run_fig11() -> ExperimentResult:
    """From-scratch pretraining (paper Figure 11)."""
    sf = pretraining_time_to_train(scalefold=True)
    base = pretraining_time_to_train(scalefold=False)
    rows = [
        {"system": sf.label, "hours": sf.total_hours,
         "phase1_steps": sf.phases[0].steps, "phase2_steps": sf.phases[1].steps,
         "paper": "<10 hours"},
        {"system": base.label, "hours": base.total_hours,
         "phase1_steps": base.phases[0].steps,
         "phase2_steps": base.phases[1].steps,
         "paper": "~7 days (168h)"},
    ]
    curve = curve_with_walltime(sf)
    milestones = {}
    for target in (0.8, 0.85, 0.9):
        for hours, lddt in curve:
            if lddt >= target:
                milestones[target] = hours
                break
    notes = ("lDDT milestones (hours): "
             + ", ".join(f"{k}: {v:.2f}" for k, v in milestones.items())
             + f"; total steps {sf.phases[0].steps + sf.phases[1].steps:.0f} "
               "(paper: 50000-60000)")
    return ExperimentResult("fig11", "AlphaFold pretraining from scratch",
                            rows, notes=notes)


# ----------------------------------------------------------------------
# Timing-engine introspection
# ----------------------------------------------------------------------
def run_timeline() -> ExperimentResult:
    """Interval attribution of the simulated step (the event engine).

    The additive breakdown the other experiments report partitions the
    rank-0 timeline of the multi-rank simulation; this experiment runs the
    event engine, the only one that records that timeline, and shows the
    raw attribution, including the DDP all-reduce time that overlaps
    backward compute and therefore never appears in the step total.
    """
    scenarios = [
        ("reference A100 DAP-1",
         Scenario(policy=KernelPolicy.reference(), gpu="A100", dap_n=1)),
        ("scalefold H100 DAP-8",
         Scenario(policy=KernelPolicy.scalefold(checkpointing=False),
                  gpu="H100", dap_n=8, cuda_graphs=True, gc_disabled=True,
                  torch_compile=True, nonblocking_pipeline=True)),
    ]
    n_steps = N_WARMUP_STEPS + N_MEASURED_STEPS
    rows = []
    for label, scenario in scenarios:
        est = estimate_step_time(scenario, engine="event")
        tags = est.timeline.by_tag(rank=0)
        ddp_raw = tags.get("ddp_comm", 0.0) / n_steps
        rows.append({
            "scenario": label,
            "compute_s": est.compute_s,
            "dap_comm_s": est.dap_comm_s,
            "ddp_raw_s": ddp_raw,
            "ddp_exposed_s": est.ddp_exposed_s,
            "ddp_hidden_s": max(ddp_raw - est.ddp_exposed_s, 0.0),
            "imbalance_s": est.imbalance_s,
            "total_s": est.total_s,
        })
    return ExperimentResult(
        "timeline", "Step-interval attribution from the DES timeline", rows,
        notes="ddp_hidden_s is all-reduce time overlapped under backward "
              "compute: visible in the timeline, absent from the step total")


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
EXPERIMENTS: Dict[str, Callable[[], ExperimentResult]] = {
    "table1": run_table1,
    "key_ops": run_key_operations,
    "fig3": run_fig3,
    "dap_baseline": run_dap_baseline,
    "fig4": run_fig4,
    "fig5": run_fig5,
    "fig7": run_fig7,
    "fig8": run_fig8,
    "fig9": run_fig9,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "timeline": run_timeline,
}


def run_experiment(experiment_id: str) -> ExperimentResult:
    try:
        fn = EXPERIMENTS[experiment_id]
    except KeyError:
        raise ValueError(f"unknown experiment {experiment_id!r}; "
                         f"choose from {sorted(EXPERIMENTS)}") from None
    return fn()
