"""Lint orchestration: drive the analyzers against the real model,
apply the baseline, format reports, compute the CI exit code.

This is the engine behind ``repro lint``.  Each analyzer gets a
``lint_*`` entry point that builds its artifact from the actual
reproduction (meta-mode autograd graph, cached step trace, audited DES
runs) so the suite fires on the model we simulate, not on toy fixtures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .baseline import Baseline
from .findings import Finding, Severity, max_severity, sort_findings
from .graph import capture_graph, check_graph
from .rules import RuleConfig, all_rules
from .sched import ScheduleRecorder, analyze_schedule
from .tracelint import lint_trace

ANALYZERS = ("graph", "trace", "sched", "conc", "ast")


# ----------------------------------------------------------------------
# Analyzer drivers
# ----------------------------------------------------------------------
def _lint_policy(scalefold: bool):
    from ..model.config import KernelPolicy

    return (KernelPolicy.scalefold(checkpointing=True) if scalefold
            else KernelPolicy.reference())


def _workload_rule_config(workload,
                          rule_config: Optional[RuleConfig]) -> Optional[RuleConfig]:
    """Layer the workload's lint params (e.g. the TL004 kernel budget)
    under any user-provided rule config; explicit user params win."""
    import dataclasses

    defaults = dict(workload.trace_lint_params)
    if not defaults:
        return rule_config
    if rule_config is None:
        return RuleConfig(params=defaults)
    merged = dict(defaults)
    merged.update(rule_config.params)
    return dataclasses.replace(rule_config, params=merged)


def lint_graph_for(config_name: str = "small", scalefold: bool = False,
                   rule_config: Optional[RuleConfig] = None,
                   check_backward: bool = True,
                   workload: str = "alphafold") -> List[Finding]:
    """Build the workload's autograd graph in meta mode and check it.

    No kernels run and no trace is recorded — the graph is walked
    symbolically, which is the point: this catches contract violations that
    meta *execution* is self-consistently blind to.
    """
    from ..framework import dtypes, tracer
    from ..framework.module import meta_build
    from ..workloads import get_workload

    wl = get_workload(workload)
    policy = _lint_policy(scalefold)
    cfg = wl.preset(config_name, policy)
    with meta_build():
        model, loss_fn = wl.build(cfg)
    if policy.dtype is not dtypes.float32:
        model.to_dtype(policy.dtype)
    batch = wl.meta_batch(cfg, dtype=policy.dtype)
    # An active trace is needed for nodes to capture their module scope, so
    # findings point at "evoformer/blocks.0/..." rather than "<top>".
    with capture_graph() as capture, tracer.trace():
        loss = wl.call(model, loss_fn, batch, n_recycle=1)
    return check_graph([loss], config=rule_config, capture=capture,
                       check_backward=check_backward)


def lint_trace_for(config_name: str = "small", scalefold: bool = False,
                   gpu_name: str = "A100",
                   rule_config: Optional[RuleConfig] = None,
                   workload: str = "alphafold") -> List[Finding]:
    """Lint the (cached) step trace of the given workload/config/policy."""
    from ..hardware.gpu import get_gpu
    from ..perf.trace_builder import build_step_trace
    from ..workloads import get_workload

    wl = get_workload(workload)
    policy = _lint_policy(scalefold)
    cfg = wl.preset(config_name, policy)
    step = build_step_trace(policy=policy, cfg=cfg, workload=wl)
    return lint_trace(step.trace, get_gpu(gpu_name),
                      config=_workload_rule_config(wl, rule_config))


def lint_sched_for(config_name: str = "small", scalefold: bool = False,
                   gpu_name: str = "A100",
                   rule_config: Optional[RuleConfig] = None,
                   workload: str = "alphafold") -> List[Finding]:
    """Audit the two real DES workloads and analyze their schedules:

    1. the multi-rank distributed-step simulation (DAP barrier, per-rank
       NIC resources, DDP bucket processes) of the given config;
    2. the cluster-level training-run simulation (serial eval pool).
    """
    from ..perf.scaling import Scenario, estimate_step_time
    from ..perf.trace_builder import build_step_trace
    from ..sim.cluster import ClusterSimConfig, run_cluster_simulation
    from ..train.evaluation import EvalConfig
    from ..workloads import get_workload

    wl = get_workload(workload)
    policy = _lint_policy(scalefold)
    cfg = wl.preset(config_name, policy)
    step = build_step_trace(policy=policy, cfg=cfg, workload=wl)

    recorder = ScheduleRecorder()
    with recorder.recording():
        # The event engine runs the rank-level DES (the closed form has no
        # barrier or NIC resource to audit), and never reads the memo.
        scenario = Scenario(policy=policy, gpu=gpu_name, dap_n=2, dp_degree=2,
                            imbalance_enabled=False, workload=wl.name)
        estimate_step_time(scenario, trace=step, engine="event")
        run_cluster_simulation(ClusterSimConfig(
            step_seconds=0.5, n_sync_ranks=4, max_steps=12,
            eval=EvalConfig(eval_every_steps=5), target_lddt=2.0))
    return analyze_schedule(recorder.events, config=rule_config)


def lint_conc_for(rule_config: Optional[RuleConfig] = None,
                  corpus: bool = False) -> List[Finding]:
    """Run the dynamic concurrency detector over the real threaded paths.

    Instruments ``threading`` and drives the serve broker, both loaders,
    cache churn, concurrent disk-store writes and an ``estimate_many``
    fan-out; ``corpus=True`` adds the known-bug corpus whose findings are
    expected (the detector's regression oracle).
    """
    from .concurrency import run_conc_scenarios

    return run_conc_scenarios(config=rule_config, include_corpus=corpus)


def lint_ast_for(rule_config: Optional[RuleConfig] = None) -> List[Finding]:
    """Run the determinism/concurrency AST hazard lint over src/repro."""
    from .astlint import lint_source_tree

    return lint_source_tree(config=rule_config)


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
@dataclass
class LintReport:
    """One lint run: findings plus baseline bookkeeping."""

    findings: List[Finding]               # all, sorted; waived are marked
    analyzers: List[str]
    stale_baseline: List[str] = field(default_factory=list)

    @property
    def new_findings(self) -> List[Finding]:
        return [f for f in self.findings if not f.waived]

    @property
    def waived_findings(self) -> List[Finding]:
        return [f for f in self.findings if f.waived]

    def exit_code(self, fail_on: Severity = Severity.WARNING) -> int:
        worst = max_severity(self.new_findings)
        return 1 if worst is not None and worst >= fail_on else 0

    def to_dict(self) -> Dict[str, object]:
        counts: Dict[str, int] = {}
        for f in self.new_findings:
            counts[str(f.severity)] = counts.get(str(f.severity), 0) + 1
        return {
            "analyzers": list(self.analyzers),
            "findings": [f.to_dict() for f in self.findings],
            "new_counts": counts,
            "n_new": len(self.new_findings),
            "n_waived": len(self.waived_findings),
            "stale_baseline": list(self.stale_baseline),
        }

    def format_text(self, show_waived: bool = False) -> str:
        lines: List[str] = []
        for f in self.findings:
            if f.waived and not show_waived:
                continue
            lines.append(f.format())
        new, waived = self.new_findings, self.waived_findings
        lines.append(
            f"{len(new)} new finding(s), {len(waived)} waived by baseline"
            + (f", {len(self.stale_baseline)} stale baseline entr(ies)"
               if self.stale_baseline else ""))
        return "\n".join(lines)


def run_lint(analyzers: Sequence[str] = ANALYZERS,
             config_name: str = "small", scalefold: bool = False,
             gpu_name: str = "A100",
             rule_config: Optional[RuleConfig] = None,
             baseline: Optional[Baseline] = None,
             workload: str = "alphafold",
             conc_corpus: bool = False) -> LintReport:
    """Run the requested analyzers and apply the baseline."""
    unknown = set(analyzers) - set(ANALYZERS)
    if unknown:
        raise ValueError(f"unknown analyzer(s) {sorted(unknown)}; "
                         f"choose from {list(ANALYZERS)}")
    findings: List[Finding] = []
    if "graph" in analyzers:
        findings += lint_graph_for(config_name, scalefold,
                                   rule_config=rule_config, workload=workload)
    if "trace" in analyzers:
        findings += lint_trace_for(config_name, scalefold, gpu_name,
                                   rule_config=rule_config, workload=workload)
    if "sched" in analyzers:
        findings += lint_sched_for(config_name, scalefold, gpu_name,
                                   rule_config=rule_config, workload=workload)
    if "conc" in analyzers:
        findings += lint_conc_for(rule_config=rule_config, corpus=conc_corpus)
    if "ast" in analyzers:
        findings += lint_ast_for(rule_config=rule_config)
    stale: List[str] = []
    if baseline is not None and len(baseline):
        baseline.apply(findings)
        if set(analyzers) == set(ANALYZERS):
            # A partial run can't see other analyzers' findings, so staleness
            # is only meaningful when everything ran.
            stale = baseline.stale_fingerprints(findings)
    return LintReport(findings=sort_findings(findings),
                      analyzers=list(analyzers), stale_baseline=stale)


def format_rule_catalogue() -> str:
    """``repro lint --list-rules`` output."""
    lines = [f"{'Rule':<7}{'Analyzer':<10}{'Default':<9}Title"]
    for r in all_rules():
        lines.append(f"{r.rule_id:<7}{r.analyzer:<10}{str(r.severity):<9}"
                     f"{r.title}")
    return "\n".join(lines)


def write_findings_json(path: str, report: LintReport) -> None:
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
