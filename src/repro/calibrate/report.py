"""``repro calibrate`` orchestration and the BENCH_calibrate.json gates.

One entry point, :func:`run_calibrate`, glues the pipeline together:

    samples (measure | synthetic | saved artifact | imported trace)
        -> fit_spec -> fidelity_gate -> deterministic JSON report

Determinism contract: the report is a pure function of the samples (and
seed/options), serialized with sorted keys — two runs over the same
samples are byte-identical, which CI checks with ``cmp``.  Measured
wall-clock runs freeze their samples to an artifact first, so even they
are byte-reproducible *given the artifact*.

:func:`bench_gates` distills a report into the small committed
``BENCH_calibrate.json``: the booleans CI asserts (fit quality,
cross-engine bit-match, importer round-trip) without the
machine-dependent timings.
"""

from __future__ import annotations

import json
from typing import Dict, IO, List, Optional, Union

from ..hardware.gpu import canonical_gpu_name, get_gpu
from ..observability.chrome_trace import kernel_trace_to_chrome
from .fit import fit_spec
from .gate import fidelity_gate
from .importers import import_chrome_trace, import_runlog
from .measure import (TimingSample, load_samples, measure_samples,
                      save_samples, synthetic_samples)

CALIBRATE_REPORT_VERSION = 1

#: Default registry key for the spec a calibration run produces.
DEFAULT_REGISTER_PREFIX = "CAL"


def _roundtrip_check(spec, registered_name: str) -> Dict[str, object]:
    """Export a tiny trace with the fitted spec, re-import it, refit.

    Closes the loop the ISSUE pins: a chrome trace produced by our own
    exporter must feed the same fit pipeline without loss.
    """
    from ..model.config import AlphaFoldConfig, KernelPolicy
    from ..perf.trace_builder import build_step_trace

    policy = KernelPolicy.scalefold(checkpointing=False)
    step = build_step_trace(policy, cfg=AlphaFoldConfig.tiny(policy))
    chrome = kernel_trace_to_chrome(step.trace, spec)
    imported = import_chrome_trace(chrome.to_dict())
    refit = fit_spec(imported.samples, base=registered_name,
                     name="roundtrip-refit", source="chrome-trace") \
        if imported.samples else None
    return {
        "ok": (bool(imported.samples) and imported.scopes_balanced
               and refit is not None and bool(refit.residuals)),
        "import": imported.as_dict(),
        "refit_rms_rel_err": refit.rms_rel_err if refit else None,
    }


def run_calibrate(quick: bool = True,
                  seed: int = 0,
                  source: str = "measured",
                  base: str = "A100",
                  register_as: Optional[str] = None,
                  samples_in: Optional[str] = None,
                  samples_out: Optional[str] = None,
                  import_trace: Optional[str] = None,
                  import_runlog_path: Optional[str] = None,
                  roundtrip: bool = True) -> Dict[str, object]:
    """Run one calibration end to end; returns the JSON-ready report.

    ``source`` is ``"measured"`` (time this machine's numpy substrate)
    or ``"synthetic:<SPEC>"`` (model-predicted + seeded noise for the
    named catalog spec — fully deterministic, what CI byte-compares).
    ``samples_in`` bypasses measurement entirely and refits a saved
    artifact.  ``import_trace`` / ``import_runlog_path`` merge external
    chrome-trace / runlog samples into the fit set.
    """
    samples: List[TimingSample]
    if samples_in is not None:
        samples = load_samples(samples_in)
        sample_source = "artifact"
    elif source.startswith("synthetic"):
        _, _, spec_name = source.partition(":")
        truth = get_gpu(spec_name or base)
        samples = synthetic_samples(truth, quick=quick, seed=seed)
        sample_source = "synthetic"
    elif source == "measured":
        samples = measure_samples(quick=quick, seed=seed)
        sample_source = "measured"
    else:
        raise ValueError(f"unknown calibration source {source!r} "
                         "(use 'measured' or 'synthetic[:SPEC]')")

    imports: Dict[str, object] = {}
    if import_trace is not None:
        chrome = import_chrome_trace(import_trace)
        imports["chrome_trace"] = chrome.as_dict()
        samples = samples + chrome.samples
    if import_runlog_path is not None:
        runlog = import_runlog(import_runlog_path)
        imports["runlog"] = runlog.as_dict()
        samples = samples + runlog.samples

    if samples_out is not None:
        save_samples(samples, samples_out, seed=seed, quick=quick,
                     source=sample_source)

    register_key = canonical_gpu_name(
        register_as or f"{DEFAULT_REGISTER_PREFIX}-{base}")
    fit = fit_spec(samples, base=base,
                   name=f"calibrated:{register_key}")
    gate = fidelity_gate(fit, register_as=register_key)

    report: Dict[str, object] = {
        "version": CALIBRATE_REPORT_VERSION,
        "quick": quick,
        "seed": seed,
        "source": sample_source,
        "base": base,
        "registered_as": register_key,
        "sample_counts": _sample_counts(samples),
        "imports": imports,
        "fit": fit.as_dict(),
        "gate": gate.as_dict(),
    }
    if roundtrip:
        report["roundtrip"] = _roundtrip_check(fit.spec, register_key)
    report["golden_match"] = bool(
        gate.passed and (not roundtrip or report["roundtrip"]["ok"]))
    return report


def _sample_counts(samples: List[TimingSample]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for sample in samples:
        counts[sample.kind] = counts.get(sample.kind, 0) + 1
    return dict(sorted(counts.items()))


def report_to_json(report: Dict[str, object]) -> str:
    """Canonical serialization: the byte-determinism contract surface."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def write_report(report: Dict[str, object],
                 target: Union[str, IO[str]]) -> None:
    text = report_to_json(report)
    if isinstance(target, str):
        with open(target, "w") as handle:
            handle.write(text)
    else:
        target.write(text)


def bench_gates(report: Dict[str, object]) -> Dict[str, object]:
    """The committed BENCH_calibrate.json payload: gates, not timings."""
    gate = report.get("gate", {})
    fit = report.get("fit", {})
    return {
        "version": CALIBRATE_REPORT_VERSION,
        "source": report.get("source"),
        "base": report.get("base"),
        "quick": report.get("quick"),
        "seed": report.get("seed"),
        "checks": gate.get("checks", {}),
        "fit_quality_ok": fit.get("quality_ok", False),
        "rms_rel_err": fit.get("rms_rel_err"),
        "n_fitted_params": len(fit.get("params", [])),
        "roundtrip_ok": report.get("roundtrip", {}).get("ok", None),
        "golden_match": report.get("golden_match", False),
    }
