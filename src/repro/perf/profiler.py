"""Trace profiling: regenerate Table 1 and the §2.2 key-operation analysis."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..framework.tracer import KernelCategory, KernelRecord
from ..hardware.gpu import GpuSpec
from ..hardware.roofline import CostModel
from .fast_step import sequential_sum
from .step_time import simulate_step
from .trace_builder import StepTrace
from .vector_cost import (TraceCostArrays, cost_cache_material,
                          trace_cost_arrays)


def _pct(part: float, total: float) -> float:
    """``100 * part / total``, defined as 0% for an empty/zero-time total."""
    return 100.0 * part / total if total > 0 else 0.0


def _cost_arrays(step: StepTrace, gpu: GpuSpec) -> TraceCostArrays:
    """The step's cost arrays on ``gpu`` with autotune off, from the cost
    LRU and the store under the step's store material (costed afresh for
    a step built with ``use_cache=False``)."""
    material = (None if step.store_material is None
                else cost_cache_material(step.store_material, gpu, False))
    return trace_cost_arrays(step.trace.records,
                             CostModel(gpu, autotune=False),
                             store_material=material)


def _executed(step: StepTrace, costs: TraceCostArrays) -> List[KernelRecord]:
    """The records of the kernels the simulated step runs (no COMM or
    comm-hidden ones), aligned with ``costs``."""
    records = step.trace.records
    return [records[i] for i in costs.structure.exec_idx.tolist()]


@dataclass
class Table1Row:
    kernel_type: str
    runtime_pct: float
    calls: Optional[int]


@dataclass
class Table1:
    """The paper's Table 1: kernel breakdown of one training step."""

    rows: List[Table1Row]
    total_seconds: float

    def as_dict(self) -> Dict[str, Table1Row]:
        return {r.kernel_type: r for r in self.rows}

    def format(self) -> str:
        lines = [f"{'Kernel Type':<18}{'Runtime (%)':>12}{'#Calls':>10}"]
        for r in self.rows:
            calls = "-" if r.calls is None else f"{r.calls:,}"
            lines.append(f"{r.kernel_type:<18}{r.runtime_pct:>12.2f}{calls:>10}")
        return "\n".join(lines)


def table1_breakdown(step: StepTrace, gpu: GpuSpec) -> Table1:
    """Regenerate Table 1 from a step trace on a GPU.

    Paper reference (A100, eager reference model):
    CPU overhead 9.10% / -, math-bounded 24.06% / 18,147,
    memory-bounded 65.03% / 97,749, memory-operation 1.82% / 34,991.
    """
    breakdown = simulate_step(None, gpu, costs=_cost_arrays(step, gpu))
    total = breakdown.total_s
    rows = [Table1Row("CPU Overhead", _pct(breakdown.cpu_exposed_s, total),
                      None)]
    for cat, label in ((KernelCategory.MATH, "Math-bounded"),
                       (KernelCategory.MEMORY, "Memory-bounded"),
                       (KernelCategory.MEMORY_OP, "Memory-operation")):
        secs = breakdown.category_seconds.get(cat.value, 0.0)
        calls = breakdown.category_calls.get(cat.value, 0)
        rows.append(Table1Row(label, _pct(secs, total), calls))
    return Table1(rows=rows, total_seconds=total)


@dataclass
class KeyOperationStats:
    """§2.2's 'Suboptimal Key-Operation Performance' analysis."""

    name: str
    step_share_pct: float        # fraction of total step time
    calls: int
    achieved_pct_of_theoretical: float


def key_operation_analysis(reference: StepTrace, fused: StepTrace,
                           gpu: GpuSpec) -> List[KeyOperationStats]:
    """MHA / LN / weight-update / SWA / grad-clip shares and % of peak.

    "Theoretical" time for each pattern is the perfect-roofline time of the
    *fused* implementation's FLOP/byte footprint — a single pass over the
    minimal data, at 100% of peak — mirroring how the paper normalizes
    (MHA 26%, LN 10%, update 10%, SWA <5%, clip <1%).
    """
    cost_model = CostModel(gpu, autotune=False)
    costs = _cost_arrays(reference, gpu)
    step_total = simulate_step(None, gpu, costs=costs).total_s
    dtype = reference.policy.dtype.name
    executed = _executed(reference, costs)

    # The reference groups may overlap, so each one sums its own mask.
    groups = [
        ("MHA", lambda r: "attention" in r.scope, ("fused_mha",)),
        ("LayerNorm", lambda r: "layer_norm" in r.scope, ("fused_layernorm",)),
        ("WeightUpdate", lambda r: r.name.startswith("adam_"), ("fused_adam_swa",)),
        ("SWA", lambda r: r.name.startswith("swa_"), ("fused_adam_swa",)),
        ("GradClip", lambda r: r.name.startswith("clip_"), ("bucket_",)),
    ]
    out: List[KeyOperationStats] = []
    dispatch_s = gpu.dispatch_seconds()
    for name, matches, fused_prefixes in groups:
        mask = np.fromiter(map(matches, executed), dtype=bool, count=costs.m)
        ref_secs = sequential_sum(costs.seconds[mask])
        ref_calls = int(np.count_nonzero(mask))
        if name in ("WeightUpdate", "SWA", "GradClip"):
            # The per-tensor update phase runs after a host sync and is
            # launch-bound: wall time is CPU dispatch, not device time.
            ref_secs = max(ref_secs, ref_calls * dispatch_s)
        # Minimal footprint from all the fused trace's records of this
        # pattern: the comm-hidden ``bucket_*`` ones are GradClip's.
        flops = bytes_ = 0.0
        for r in fused.trace:
            if r.name.startswith(fused_prefixes):
                flops += r.flops
                bytes_ += r.bytes
        # SWA and WeightUpdate share one fused kernel; split the footprint
        # proportionally to their reference traffic.
        if name in ("WeightUpdate", "SWA"):
            flops *= 0.8 if name == "WeightUpdate" else 0.2
            bytes_ *= 0.8 if name == "WeightUpdate" else 0.2
        theoretical = cost_model.theoretical_seconds(flops, bytes_, dtype)
        achieved = _pct(theoretical, ref_secs)
        out.append(KeyOperationStats(
            name=name,
            step_share_pct=_pct(ref_secs, step_total),
            calls=ref_calls,
            achieved_pct_of_theoretical=achieved,
        ))
    return out


@dataclass
class KernelRow:
    """One row of the top-kernels table (nsys-style)."""

    name: str
    seconds: float
    calls: int
    pct_of_step: float
    mean_us: float


def top_kernels(step: StepTrace, gpu: GpuSpec,
                k: int = 15) -> List[KernelRow]:
    """The k most expensive kernel names (by total device time) among the
    kernels the simulated step runs."""
    costs = _cost_arrays(step, gpu)
    per_name = costs.label_seconds([r.name for r in _executed(step, costs)])
    total = sum(s for s, _ in per_name.values())
    rows = [KernelRow(name=name, seconds=s, calls=calls,
                      pct_of_step=_pct(s, total), mean_us=1e6 * s / calls)
            for name, (s, calls) in per_name.items()]
    rows.sort(key=lambda r: -r.seconds)
    return rows[:k]


def module_time_shares(step: StepTrace, gpu: GpuSpec,
                       depth: int = 2) -> Dict[str, float]:
    """Fraction of device time per top-level module (Evoformer ~72%...),
    grouped by the leading ``depth`` scope components."""
    costs = _cost_arrays(step, gpu)
    shares = {key: s for key, (s, _) in costs.label_seconds(
        ["/".join(r.scope.split("/")[:depth]) if r.scope else "(update)"
         for r in _executed(step, costs)]).items()}
    total = sum(shares.values())
    return {k: (v / total if total > 0 else 0.0)
            for k, v in sorted(shares.items(), key=lambda kv: -kv[1])}


# ----------------------------------------------------------------------
# Per-scope flame attribution
# ----------------------------------------------------------------------
@dataclass
class FlameNode:
    """One frame of the scope flame tree.

    ``self_seconds`` is time attributed directly to this frame (kernel
    leaves and the exposed-dispatch pseudo-frame); interior module frames
    hold their time in descendants, so ``total_seconds`` is the rollup.
    """

    name: str
    self_seconds: float = 0.0
    children: Dict[str, "FlameNode"] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return self.self_seconds + sum(c.total_seconds
                                       for c in self.children.values())

    def child(self, name: str) -> "FlameNode":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = FlameNode(name)
        return node

    def folded(self, prefix: str = "") -> List[str]:
        """Brendan-Gregg folded-stack lines (``a;b;c <microseconds>``),
        consumable by standard flamegraph tooling."""
        path = f"{prefix};{self.name}" if prefix else self.name
        lines: List[str] = []
        if self.self_seconds > 0:
            lines.append(f"{path} {self.self_seconds * 1e6:.3f}")
        for child in sorted(self.children.values(),
                            key=lambda c: -c.total_seconds):
            lines.extend(child.folded(path))
        return lines

    def format(self, max_depth: int = 4, min_pct: float = 0.5,
               _total: Optional[float] = None, _indent: int = 0) -> str:
        """Human-readable indented tree, pruned below ``min_pct`` of root."""
        total = self.total_seconds if _total is None else _total
        mine = self.total_seconds
        lines = [f"{'  ' * _indent}{self.name:<40.40}"
                 f"{mine * 1e3:>10.3f} ms{_pct(mine, total):>7.2f}%"]
        if _indent < max_depth:
            for child in sorted(self.children.values(),
                                key=lambda c: -c.total_seconds):
                if _pct(child.total_seconds, total) >= min_pct:
                    lines.append(child.format(max_depth, min_pct,
                                              _total=total,
                                              _indent=_indent + 1))
        return "\n".join(lines)


def scope_flame(step: StepTrace, gpu: GpuSpec) -> FlameNode:
    """Roll simulated step time up the module scope tree.

    Runs the same DES as :func:`table1_breakdown` and attributes each
    kernel's simulated execution span to ``root/<scope .../<kernel>``
    leaves, plus a ``(cpu exposed)`` frame for GPU starvation — so the
    root's ``total_seconds`` equals the simulated step time exactly.
    """
    root = FlameNode("step")
    busy = [0.0]

    def attribute(record, start: float, end: float) -> None:
        node = root
        for part in record.scope_parts:
            node = node.child(part)
        node.child(record.name).self_seconds += end - start
        busy[0] += end - start

    # Replayed kernel by kernel: a span width ``end - start`` is not in
    # general bit-equal to the kernel's seconds.
    breakdown = simulate_step(step.trace.records, gpu,
                              costs=_cost_arrays(step, gpu),
                              on_kernel=attribute)
    exposed = breakdown.total_s - busy[0]
    if exposed > 0:
        root.child("(cpu exposed)").self_seconds = exposed
    return root
