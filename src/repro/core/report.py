"""Full reproduction report: every experiment, memory analysis, and the
closed-form-vs-DES cross-check, rendered as markdown.

``python -m repro report`` writes it to stdout (or a file); CI-style runs
can archive it next to EXPERIMENTS.md.
"""

from __future__ import annotations

import io
from typing import List, Optional

from ..model.config import KernelPolicy
from ..perf.memory import estimate_memory
from ..perf.time_to_train import mlperf_time_to_train
from ..sim.cluster import ClusterSimConfig, run_cluster_simulation
from ..train.convergence import MLPERF_CHECKPOINT_SAMPLES
from .experiments import EXPERIMENTS, ExperimentResult, run_experiment

#: Render order (the paper's narrative order).
REPORT_ORDER = ("table1", "key_ops", "dap_baseline", "fig3", "fig4", "fig5",
                "fig7", "fig8", "fig9", "fig10", "fig11")


def _result_to_markdown(result: ExperimentResult) -> str:
    out = [f"## {result.experiment_id}: {result.title}", ""]
    if result.rows:
        keys = list(result.rows[0].keys())
        out.append("| " + " | ".join(str(k) for k in keys) + " |")
        out.append("|" + "|".join(["---"] * len(keys)) + "|")
        for row in result.rows:
            cells = []
            for k in keys:
                v = row.get(k)
                cells.append(f"{v:.3f}" if isinstance(v, float) else str(v))
            out.append("| " + " | ".join(cells) + " |")
    if result.notes:
        out.append("")
        out.append(f"> {result.notes}")
    out.append("")
    return "\n".join(out)


def memory_section() -> str:
    """The checkpointing/DAP-8 memory table (§2.2 / §4.1)."""
    out = ["## memory: activation pressure vs DAP degree", "",
           "| config | DAP | total GiB | fits 80GB? |", "|---|---|---|---|"]
    for label, policy in (
        ("reference fp32 + ckpt", KernelPolicy.reference()),
        ("reference fp32, no ckpt",
         KernelPolicy.reference().replace(activation_checkpointing=False)),
        ("scalefold bf16 + ckpt", KernelPolicy.scalefold(checkpointing=True)),
        ("scalefold bf16, no ckpt",
         KernelPolicy.scalefold(checkpointing=False)),
    ):
        for dap in (1, 8):
            est = estimate_memory(policy=policy, dap_n=dap)
            out.append(f"| {label} | {dap} | {est.total_gib:.1f} | "
                       f"{'yes' if est.fits(80.0) else 'NO'} |")
    out.append("")
    out.append("> §4.1: DAP shrinks activations enough to disable gradient "
               "checkpointing (the no-ckpt row fits only at DAP-8).")
    out.append("")
    return "\n".join(out)


def cross_validation_section() -> str:
    """Closed-form TTT vs the event-driven cluster simulation."""
    closed = mlperf_time_to_train(scalefold=True, async_eval=True)
    des = run_cluster_simulation(ClusterSimConfig(
        step_seconds=closed.phases[0].step_seconds,
        start_samples=MLPERF_CHECKPOINT_SAMPLES, async_eval=True))
    ratio = des.total_minutes / closed.total_minutes
    return "\n".join([
        "## cross-check: closed-form TTT vs event-driven cluster DES", "",
        f"* closed-form MLPerf TTT: {closed.total_minutes:.2f} min",
        f"* discrete-event cluster simulation: {des.total_minutes:.2f} min "
        f"({des.steps} steps, mean step {des.mean_step_seconds:.3f}s)",
        f"* ratio: {ratio:.2f} (the DES adds sampled imbalance and the "
        "async-eval tail latency)",
        "",
    ])


def generate_report(experiment_ids: Optional[List[str]] = None,
                    include_memory: bool = True,
                    include_cross_check: bool = True) -> str:
    """Render the full markdown report (runs every experiment)."""
    ids = list(experiment_ids) if experiment_ids else [
        i for i in REPORT_ORDER if i in EXPERIMENTS]
    buf = io.StringIO()
    buf.write("# ScaleFold reproduction report\n\n")
    buf.write("Generated by `python -m repro report`. Paper reference "
              "values are embedded in each table.\n\n")
    for experiment_id in ids:
        buf.write(_result_to_markdown(run_experiment(experiment_id)))
        buf.write("\n")
    if include_memory:
        buf.write(memory_section())
        buf.write("\n")
    if include_cross_check:
        buf.write(cross_validation_section())
    return buf.getvalue()


def write_report(path: str, **kwargs) -> str:
    text = generate_report(**kwargs)
    with open(path, "w") as handle:
        handle.write(text)
    return text
