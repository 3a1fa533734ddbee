"""Trace lint: rules over kernel-launch streams, keyed to Table 1.

The paper's diagnosis methodology — profile the kernel stream, find the
unfused memory-bound chains, the launch-overhead-dominated tiny kernels and
the dispatch-bound sections — turned into repeatable checks over a
:class:`~repro.framework.tracer.Trace`:

* ``TL001`` fusable-chain — a run of adjacent unfused memory-bound
  elementwise kernels in one module scope (the MHA/LayerNorm fragmentation
  ScaleFold's Triton kernels eliminate, §3.3.1).
* ``TL002`` launch-bound-kernel — kernels whose modeled device time is below
  the CPU dispatch cost (:meth:`GpuSpec.dispatch_seconds`): the GPU finishes
  before the CPU can issue the next launch, so the stream is CPU-bound
  (Table 1's 9.1% CPU overhead / Figure 3's first barrier).
* ``TL003`` redundant-recompute — the same kernel signature repeated many
  times inside one scope+phase (identical shape/flops/bytes), a recompute
  or missed-CSE smell.
* ``TL004`` kernel-budget — per-scope launch-count budgets so Table 1's
  ~150k ops/step cannot silently regress.

Findings aggregate across repeated block instances (``blocks.0`` ...
``blocks.47`` normalize to ``blocks.*``) so one defect is one finding.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from ..framework.tracer import KernelCategory, KernelRecord, Trace
from ..hardware.gpu import GpuSpec
from ..hardware.roofline import CostModel
from ..perf.vector_cost import trace_cost_arrays
from .findings import Finding, Severity
from .rules import RuleConfig, register_rule

register_rule("TL001", "trace", Severity.WARNING, "fusable-chain",
              "Adjacent unfused memory-bound elementwise kernels in one "
              "scope; a fused kernel would make one launch and one pass "
              "over HBM.")
register_rule("TL002", "trace", Severity.WARNING, "launch-bound-kernel",
              "Kernel device time is below the CPU dispatch cost per "
              "launch; the stream is launch-overhead-dominated.")
register_rule("TL003", "trace", Severity.INFO, "redundant-recompute",
              "Identical kernel signature repeated inside one scope+phase; "
              "possible recomputation or missed CSE.")
register_rule("TL004", "trace", Severity.ERROR, "kernel-budget",
              "Kernel-launch count exceeds the configured budget for a "
              "scope prefix.")

#: Minimum run length of unfused memory-bound kernels to call a chain.
DEFAULT_CHAIN_LENGTH = 6
#: Minimum same-signature repeats within one scope+phase for TL003.
DEFAULT_RECOMPUTE_REPEATS = 8
#: Minimum launches of one launch-bound kernel name for TL002 to fire.
DEFAULT_TINY_MIN_COUNT = 64
#: Default whole-trace launch budget: Table 1 measures ~150k ops/step for
#: the unfused reference; leave headroom, catch order-of-magnitude creep.
DEFAULT_TOTAL_BUDGET = 200_000

#: Kernels that end a fusable chain even though they are memory-bound:
#: reductions over large axes and RNG already run as single fat kernels.
_CHAIN_BREAKERS = {"rng_mask", "gather", "scatter_add", "one_hot"}


def normalize_scope(scope: str) -> str:
    """Collapse repeated-block indices: ``blocks.0/msa`` -> ``blocks.*/msa``."""
    return re.sub(r"\.\d+", ".*", scope) if scope else "<top>"


def _chain_member(r: KernelRecord) -> bool:
    return (r.category is KernelCategory.MEMORY and not r.fused
            and r.name not in _CHAIN_BREAKERS)


def _find_chains(trace: Trace, min_len: int
                 ) -> Dict[Tuple[str, str, str], Dict[str, float]]:
    """Maximal runs of chain-member records, aggregated by normalized
    (scope, phase, op-signature)."""
    chains: Dict[Tuple[str, str, str], Dict[str, float]] = {}
    run: List[KernelRecord] = []
    run_key: Optional[Tuple[str, str]] = None

    def flush() -> None:
        nonlocal run, run_key
        if run_key is not None and len(run) >= min_len:
            signature = "+".join(r.name for r in run)
            scope, phase = run_key
            key = (normalize_scope(scope), phase, signature)
            agg = chains.setdefault(key, {"count": 0, "bytes": 0.0,
                                          "kernels": len(run)})
            agg["count"] += 1
            agg["bytes"] += sum(r.bytes for r in run)
        run, run_key = [], None

    for r in trace.records:
        key = (r.scope, r.phase)
        if _chain_member(r):
            if run_key is not None and key != run_key:
                flush()
            run_key = key
            run.append(r)
        else:
            flush()
    flush()
    return chains


def _format_bytes(n: float) -> str:
    for unit, scale in (("GB", 1e9), ("MB", 1e6), ("KB", 1e3)):
        if n >= scale:
            return f"{n / scale:.2f} {unit}"
    return f"{n:.0f} B"


def _lint_chains(trace: Trace, cfg: RuleConfig,
                 emit: List[Finding]) -> None:
    min_len = int(cfg.param("chain_min_length", DEFAULT_CHAIN_LENGTH))
    for (scope, phase, signature), agg in sorted(
            _find_chains(trace, min_len).items()):
        short = (signature if len(signature) <= 80
                 else signature[:77] + "...")
        f = cfg.finding(
            "TL001", scope,
            f"{agg['kernels']}-kernel unfused memory-bound chain [{short}] "
            f"in phase {phase} ({agg['count']} occurrence(s), "
            f"{_format_bytes(agg['bytes'])} total traffic)",
            key=f"{phase}:{signature[:120]}",
            fix_hint="route through a fused kernel (repro.kernels) or wrap "
                     "in a single traced composite op")
        if f is not None:
            emit.append(f)


def _launch_bound_kernels(trace: Trace, gpu: GpuSpec
                          ) -> Dict[str, Tuple[float, int]]:
    """``(device seconds, launches)`` per name of the kernels whose device
    time is below the eager dispatch cost, among those a simulated step
    runs (:func:`repro.perf.vector_cost.trace_cost_arrays`)."""
    costs = trace_cost_arrays(trace.records, CostModel(gpu, autotune=False))
    records = trace.records
    return costs.label_seconds(
        [records[i].name for i in costs.structure.exec_idx.tolist()],
        mask=costs.seconds < gpu.dispatch_seconds(graphed=False))


def _lint_tiny_kernels(trace: Trace, gpu: GpuSpec, cfg: RuleConfig,
                       emit: List[Finding]) -> None:
    min_count = int(cfg.param("tiny_min_count", DEFAULT_TINY_MIN_COUNT))
    dispatch = gpu.dispatch_seconds(graphed=False)
    for name, (seconds, count) in sorted(
            _launch_bound_kernels(trace, gpu).items()):
        if count < min_count:
            continue
        mean_us = seconds / count * 1e6
        f = cfg.finding(
            "TL002", f"kernel:{name}",
            f"{count} launches of {name!r} run below the "
            f"{dispatch * 1e6:.1f} us dispatch cost (mean device time "
            f"{mean_us:.2f} us): the stream is CPU-launch-bound here",
            key=name,
            fix_hint="fuse into a neighbour, batch the launches, or capture "
                     "the region in a CUDA graph")
        if f is not None:
            emit.append(f)


def _lint_recompute(trace: Trace, cfg: RuleConfig,
                    emit: List[Finding]) -> None:
    min_repeats = int(cfg.param("recompute_min_repeats",
                                DEFAULT_RECOMPUTE_REPEATS))
    sigs: Dict[Tuple, int] = {}
    for r in trace.records:
        sig = (r.scope, r.phase, r.name, r.shape, r.dtype, r.flops, r.bytes)
        sigs[sig] = sigs.get(sig, 0) + 1
    merged: Dict[Tuple[str, str, str], Tuple[int, Tuple]] = {}
    for sig, count in sigs.items():
        if count < min_repeats:
            continue
        scope, phase, name = normalize_scope(sig[0]), sig[1], sig[2]
        key = (scope, phase, name)
        if key not in merged or count > merged[key][0]:
            merged[key] = (count, sig)
    for (scope, phase, name), (count, sig) in sorted(merged.items()):
        f = cfg.finding(
            "TL003", scope,
            f"{name} {sig[3]} repeated {count}x with identical "
            f"flops/bytes in phase {phase}; recompute or missed CSE?",
            key=f"{phase}:{name}:{sig[3]}")
        if f is not None:
            emit.append(f)


def _lint_budget(trace: Trace, cfg: RuleConfig,
                 emit: List[Finding]) -> None:
    budgets: Dict[str, int] = dict(
        cfg.param("scope_budgets", {}))  # type: ignore[arg-type]
    budgets.setdefault("", int(cfg.param("total_budget",
                                         DEFAULT_TOTAL_BUDGET)))
    counts: Dict[str, int] = dict.fromkeys(budgets, 0)
    for r in trace.records:
        for prefix in budgets:
            if prefix == "" or r.scope == prefix \
                    or r.scope.startswith(prefix + "/"):
                counts[prefix] += 1
    for prefix, budget in sorted(budgets.items()):
        if counts[prefix] > budget:
            f = cfg.finding(
                "TL004", prefix or "<total>",
                f"{counts[prefix]:,} kernel launches exceed the budget of "
                f"{budget:,} for scope {prefix or '<total>'!r}",
                key=prefix,
                fix_hint="raise the budget deliberately (scope_budgets "
                         "param) or fuse/batch the new launches away")
            if f is not None:
                emit.append(f)


def lint_trace(trace: Trace, gpu: GpuSpec,
               config: Optional[RuleConfig] = None) -> List[Finding]:
    """Run every trace rule; returns unsorted findings."""
    cfg = config or RuleConfig()
    out: List[Finding] = []
    _lint_chains(trace, cfg, out)
    _lint_tiny_kernels(trace, gpu, cfg, out)
    _lint_recompute(trace, cfg, out)
    _lint_budget(trace, cfg, out)
    return out
