"""External-trace importers: chrome-trace JSON and runlog JSONL -> samples.

Real profiles are the calibration data that matters most: a chrome trace
exported from an actual A100/H100 run (or by our own
:mod:`repro.observability.chrome_trace` exporter — the round-trip the
tests pin) carries per-kernel durations plus the flops/bytes args the
exporter embeds, which is exactly a :class:`TimingSample` stream.  An
MLPerf-style runlog (JSONL ``step`` events) carries per-step wall time,
which imports as ``step`` samples for scale checks rather than
parameter fits.

Both importers are defensive by construction: metadata events, scope
B/E nesting, instant markers, and flow events are *counted*, never
crashed on; zero- and negative-duration slices are skipped and
reported.  An empty trace imports as zero samples, not an error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, IO, Iterable, List, Optional, Tuple, Union

from ..framework.tracer import KernelCategory
from ..observability.runlog import read_run_log
from .measure import TimingSample

#: chrome-trace ``cat`` / args category values -> sample kinds.
_CATEGORY_KINDS = {
    KernelCategory.MATH.value: "math",
    KernelCategory.MEMORY.value: "memory",
    KernelCategory.MEMORY_OP.value: "memop",
    KernelCategory.COMM.value: "collective",
    "cpu-overhead": "dispatch",
}


@dataclass
class ChromeImport:
    """Parsed chrome trace: fit samples plus ingestion accounting."""

    samples: List[TimingSample] = field(default_factory=list)
    n_events: int = 0
    n_complete: int = 0
    n_instants: int = 0
    n_scope_begin: int = 0
    n_scope_end: int = 0
    n_flows: int = 0
    n_metadata: int = 0
    n_zero_duration: int = 0
    n_unmatched_end: int = 0
    n_other: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "n_samples": len(self.samples),
            "n_events": self.n_events,
            "n_complete": self.n_complete,
            "n_instants": self.n_instants,
            "n_scope_begin": self.n_scope_begin,
            "n_scope_end": self.n_scope_end,
            "n_flows": self.n_flows,
            "n_metadata": self.n_metadata,
            "n_zero_duration": self.n_zero_duration,
            "n_unmatched_end": self.n_unmatched_end,
            "n_other": self.n_other,
            "scopes_balanced": self.scopes_balanced,
        }

    @property
    def scopes_balanced(self) -> bool:
        return (self.n_scope_begin == self.n_scope_end
                and self.n_unmatched_end == 0)


def _as_float(value: object, default: float = 0.0) -> float:
    try:
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return default


def _load_events(source: Union[str, IO[str], Dict[str, object], list]
                 ) -> List[Dict[str, object]]:
    if isinstance(source, str):
        with open(source) as handle:
            payload = json.load(handle)
    elif hasattr(source, "read"):
        payload = json.load(source)  # type: ignore[arg-type]
    else:
        payload = source
    # Trace Event Format allows either the object form or a bare array.
    if isinstance(payload, dict):
        events = payload.get("traceEvents", [])
    else:
        events = payload
    if not isinstance(events, list):
        raise ValueError("chrome trace: traceEvents must be an array")
    return [e for e in events if isinstance(e, dict)]


def _sample_from_complete(event: Dict[str, object]
                          ) -> Tuple[Optional[TimingSample], bool]:
    """(sample, was_zero_duration) for one X event."""
    dur_us = _as_float(event.get("dur"), 0.0)
    if dur_us <= 0.0:
        return None, True
    args = event.get("args") or {}
    if not isinstance(args, dict):
        args = {}
    cat = str(args.get("category") or event.get("cat") or "")
    kind = _CATEGORY_KINDS.get(cat)
    if kind is None:
        # Scope slices re-emitted as X events, serving spans, unknown
        # producers: not kernel-shaped, not an error.
        return None, False
    return TimingSample(
        kind=kind,
        name=str(event.get("name", "kernel")),
        dtype=str(args.get("dtype", "fp32")),
        flops=_as_float(args.get("flops")),
        bytes=_as_float(args.get("bytes")),
        seconds=dur_us / 1e6,
        reps=1,
        source="chrome-trace",
    ), False


def import_chrome_trace(source: Union[str, IO[str], Dict[str, object], list]
                        ) -> ChromeImport:
    """Ingest Trace Event Format JSON into fit samples.

    Handles everything our exporter emits — complete (X) kernel slices
    with flops/bytes args, B/E scope nesting, instant (i) markers for
    collectives and comm-hidden records, flow (s/f) stitches, metadata
    (M) — and skips what it cannot use without crashing.
    """
    result = ChromeImport()
    open_scopes: Dict[Tuple[object, object], int] = {}
    for event in _load_events(source):
        result.n_events += 1
        ph = event.get("ph")
        if ph == "X":
            result.n_complete += 1
            sample, zero = _sample_from_complete(event)
            if zero:
                result.n_zero_duration += 1
            if sample is not None:
                result.samples.append(sample)
        elif ph == "i" or ph == "I":
            result.n_instants += 1
        elif ph == "B":
            result.n_scope_begin += 1
            key = (event.get("pid"), event.get("tid"))
            open_scopes[key] = open_scopes.get(key, 0) + 1
        elif ph == "E":
            result.n_scope_end += 1
            key = (event.get("pid"), event.get("tid"))
            depth = open_scopes.get(key, 0)
            if depth <= 0:
                result.n_unmatched_end += 1
            else:
                open_scopes[key] = depth - 1
        elif ph in ("s", "t", "f"):
            result.n_flows += 1
        elif ph == "M":
            result.n_metadata += 1
        else:
            result.n_other += 1
    return result


# ----------------------------------------------------------------------
# MLPerf-style runlog JSONL
# ----------------------------------------------------------------------
@dataclass
class RunlogImport:
    """Parsed runlog: per-step wall-time samples + accounting."""

    samples: List[TimingSample] = field(default_factory=list)
    n_events: int = 0
    n_steps: int = 0
    n_skipped: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {"n_samples": len(self.samples), "n_events": self.n_events,
                "n_steps": self.n_steps, "n_skipped": self.n_skipped}


def _iter_runlog(source: Union[str, IO[str], Iterable[Dict[str, object]]]
                 ) -> Iterable[Dict[str, object]]:
    if isinstance(source, str) or hasattr(source, "read"):
        return read_run_log(source)  # type: ignore[arg-type]
    return source


def import_runlog(source: Union[str, IO[str], Iterable[Dict[str, object]]]
                  ) -> RunlogImport:
    """Ingest ``repro.observability.runlog`` JSONL (``step`` events).

    Consecutive ``step`` events define per-step durations from their
    ``time_ms`` stamps; a step may also carry explicit ``step_s`` (or
    ``flops`` / ``bytes``) metadata, which takes precedence.  Non-step
    events (run/epoch boundaries, faults, checkpoints, evals) are
    counted and skipped.
    """
    result = RunlogImport()
    prev_ms: Optional[float] = None
    for entry in _iter_runlog(source):
        if not isinstance(entry, dict):
            result.n_skipped += 1
            continue
        result.n_events += 1
        if entry.get("key") != "step":
            # Epoch boundaries reset the inter-step clock so the first
            # step of an epoch doesn't absorb the eval/ckpt gap.
            if entry.get("key") in ("epoch_start", "run_start", "eval",
                                    "checkpoint", "recovery"):
                prev_ms = None
            continue
        result.n_steps += 1
        meta = entry.get("metadata") or {}
        if not isinstance(meta, dict):
            meta = {}
        time_ms = _as_float(entry.get("time_ms"), float("nan"))
        explicit = _as_float(meta.get("step_s"), 0.0)
        if explicit > 0.0:
            seconds = explicit
        elif prev_ms is not None and time_ms == time_ms \
                and time_ms > prev_ms:
            seconds = (time_ms - prev_ms) / 1e3
        else:
            prev_ms = time_ms
            result.n_skipped += 1
            continue
        prev_ms = time_ms
        result.samples.append(TimingSample(
            kind="step",
            name=f"step{entry.get('value')}",
            dtype=str(meta.get("dtype", "fp32")),
            flops=_as_float(meta.get("flops")),
            bytes=_as_float(meta.get("bytes")),
            seconds=seconds,
            reps=1,
            source="runlog",
        ))
    return result
