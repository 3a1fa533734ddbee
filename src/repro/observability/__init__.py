"""Observability: standard, inspectable artifacts out of the simulation.

ScaleFold's methodology starts from profiler artifacts — Table 1's kernel
breakdown and the §2.2 timeline analysis came from nsys traces and MLPerf
compliance logs.  This package turns the reproduction's internal state into
the same kind of artifacts:

* :mod:`repro.observability.chrome_trace` — Chrome-trace (``chrome://tracing``
  / Perfetto) JSON export of kernel :class:`~repro.framework.tracer.Trace`
  objects (one slice per kernel, tracks per phase, nested slices from the
  module scope tree) and of DES :class:`~repro.sim.des.Timeline` interval
  logs (one track per rank, collectives and data stalls as flow events);
* :mod:`repro.observability.runlog` — an MLPerf-``mllog``-style structured
  event logger (JSON lines with run/epoch/step/eval events, renderable as
  ``:::MLLOG`` lines) wired into the numeric trainer, the cluster simulator
  and the MLPerf time-to-train model.

The per-scope flame rollup lives next to the other trace analyses in
:func:`repro.perf.profiler.scope_flame`; the ``repro trace`` CLI subcommand
fronts all three.
"""

from .chrome_trace import (ChromeTrace, fleet_to_chrome,
                           kernel_trace_to_chrome, timeline_to_chrome,
                           write_chrome_trace)
from .runlog import (RunLogger, mllog_line, parse_mllog_line,
                     read_run_log)

__all__ = [
    "ChromeTrace",
    "fleet_to_chrome",
    "kernel_trace_to_chrome",
    "timeline_to_chrome",
    "write_chrome_trace",
    "RunLogger",
    "mllog_line",
    "parse_mllog_line",
    "read_run_log",
]
