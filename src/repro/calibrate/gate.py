"""Fidelity gate: a calibrated spec must not degrade the simulator.

A fitted :class:`GpuSpec` is only usable if the whole simulation stack
stays self-consistent on it.  The catalog specs are covered by the
golden tests; this gate re-runs the same contracts on an *arbitrary*
(calibrated, non-catalog) spec:

* **fast vs event** — the closed-form vectorized engine and the
  discrete-event engine must produce bit-identical step breakdowns on
  an eager trace, a fused trace, and a DAP-partitioned trace with
  embedded collectives;
* **scalar vs vectorized costing** — every element of the
  :func:`compute_cost_arrays` seconds/limiter arrays must equal the
  scalar ``kernel_cost`` result for that record exactly (this is the
  path a calibrated spec's new roofline fields flow through);
* **end-to-end estimate** — the rank-level DES accepts the spec
  through the registry (``Scenario.gpu`` by name) and returns a
  finite, positive step estimate;
* **fit quality** — the calibration's residuals are under the
  per-source threshold (see :data:`repro.calibrate.fit.QUALITY_RMS_REL`).

All checks are recorded individually; the gate passes only if every
check does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..distributed.dap import partition_step
from ..framework.tracer import KernelCategory
from ..hardware.gpu import GpuSpec, get_gpu, register_gpu
from ..hardware.roofline import CostModel
from ..model.config import AlphaFoldConfig, KernelPolicy
from ..perf.bench import breakdowns_equal
from ..perf.scaling import Scenario, estimate_step_time
from ..perf.step_time import simulate_step
from ..perf.trace_builder import build_step_trace
from ..perf.vector_cost import compute_cost_arrays
from .fit import CalibrationFit


@dataclass
class GateResult:
    """Outcome of the fidelity gate: per-check booleans + details."""

    checks: Dict[str, bool] = field(default_factory=dict)
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return bool(self.checks) and all(self.checks.values())

    def as_dict(self) -> Dict[str, object]:
        return {"passed": self.passed,
                "checks": dict(sorted(self.checks.items())),
                "details": dict(sorted(self.details.items()))}


def _tiny_record_sets() -> Dict[str, list]:
    """Eager, fused, and DAP-partitioned tiny traces (golden-test idiom)."""
    ref_policy = KernelPolicy.reference()
    sf_policy = KernelPolicy.scalefold(checkpointing=False)
    ref = build_step_trace(ref_policy, cfg=AlphaFoldConfig.tiny(ref_policy))
    fused = build_step_trace(sf_policy, cfg=AlphaFoldConfig.tiny(sf_policy))
    dap = partition_step(fused, 2, AlphaFoldConfig.tiny(sf_policy),
                         emit_comm_records=True)
    return {"reference": list(ref.trace.records),
            "scalefold": list(fused.trace.records),
            "dap2": list(dap.records)}


def cross_engine_gate(spec: GpuSpec,
                      registered_name: Optional[str] = None) -> GateResult:
    """Run the consistency contracts on one (possibly calibrated) spec."""
    result = GateResult()
    cost = CostModel(spec, autotune=True)
    record_sets = _tiny_record_sets()

    for label, records in record_sets.items():
        event = simulate_step(records, spec, cost, engine="event")
        fast = simulate_step(records, spec, cost, engine="fast")
        result.checks[f"fast_event_match:{label}"] = \
            breakdowns_equal(event, fast)
        result.details[f"total_s:{label}"] = fast.total_s

    # Element-by-element scalar-vs-vectorized costing on the DAP trace
    # (it has every category, tunables, and comm-hidden records).
    records = record_sets["dap2"]
    arrays = compute_cost_arrays(records, cost)
    executable = [r for r in records
                  if r.category is not KernelCategory.COMM
                  and not (r.tags or {}).get("hidden_by_comm")]
    elementwise = len(executable) == len(arrays.seconds)
    mismatches = 0
    if elementwise:
        for i, record in enumerate(executable):
            kc = cost.kernel_cost(record)
            if (kc.seconds != float(arrays.seconds[i])):
                mismatches += 1
        elementwise = mismatches == 0
    result.checks["vector_scalar_match"] = elementwise
    result.details["vector_scalar_mismatches"] = mismatches
    result.details["n_executable"] = len(executable)

    # End-to-end: the registry path (Scenario by name) through the
    # two-level DES, on the tiny trace so the gate stays fast.
    if registered_name is not None:
        via_registry = get_gpu(registered_name)
        result.checks["registry_roundtrip"] = via_registry == spec
        scenario = Scenario(policy=KernelPolicy.scalefold(checkpointing=False),
                            gpu=registered_name, dap_n=2, dp_degree=2,
                            cuda_graphs=True, gc_disabled=True,
                            torch_compile=True, nonblocking_pipeline=True,
                            preset="tiny")
        estimate = estimate_step_time(scenario)
        step_s = estimate.total_s
        result.checks["estimate_finite"] = (step_s == step_s
                                            and 0.0 < step_s < float("inf"))
        result.details["estimate_step_s"] = step_s
    return result


def fidelity_gate(fit: CalibrationFit,
                  register_as: Optional[str] = None) -> GateResult:
    """Gate a calibration: fit quality + full cross-engine consistency.

    When ``register_as`` is given the fitted spec is installed in the
    GPU registry first (``replace=True`` — re-gating the same name must
    not fail), so the end-to-end estimate exercises the exact path
    ``repro optimize --gpu <name>`` would take.
    """
    name = None
    if register_as is not None:
        name = register_gpu(register_as, fit.spec, replace=True)
    result = cross_engine_gate(fit.spec, registered_name=name)
    result.checks["fit_quality"] = fit.quality_ok()
    result.details["rms_rel_err"] = fit.rms_rel_err
    result.details["fit_source"] = fit.source
    if name is not None:
        result.details["registered_as"] = name
    return result
