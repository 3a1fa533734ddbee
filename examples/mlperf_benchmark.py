#!/usr/bin/env python
"""Run the simulated MLPerf HPC v3.0 OpenFold benchmark (Figure 10).

Three submissions: the reference (256 GPUs, eager fp32, sync eval),
ScaleFold without async evaluation, and the full ScaleFold configuration on
2080 H100s — with MLLOG output for the last one.

Run: python examples/mlperf_benchmark.py
"""

try:
    import repro  # noqa: F401
except ModuleNotFoundError:  # standalone run from a source checkout
    import pathlib
    import sys
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.observability.runlog import RunLogger, mllog_line
from repro.perf.time_to_train import mlperf_time_to_train


def main() -> None:
    runs = [
        ("MLPerf reference (256 H100, eager fp32, sync eval)",
         dict(scalefold=False, n_gpus=256)),
        ("ScaleFold, sync eval (2048 H100)",
         dict(scalefold=True, async_eval=False, n_gpus=2048)),
        ("ScaleFold, async eval (2080 H100)  [paper: 7.51 min]",
         dict(scalefold=True, async_eval=True, n_gpus=2080)),
    ]
    results = []
    print("MLPerf HPC v3.0 OpenFold benchmark (simulated)")
    print("=" * 72)
    for label, kwargs in runs:
        log = RunLogger()
        result = mlperf_time_to_train(run_logger=log, **kwargs)
        results.append(result)
        phase = result.phases[0]
        print(f"  {label}")
        print(f"    time-to-train {result.total_minutes:6.2f} min  "
              f"({phase.steps:.0f} steps x {phase.step_seconds:.3f}s, "
              f"final lDDT {result.curve[-1].lddt:.4f}, "
              f"{log.find('status')[0]['value']})")
    speedup = results[0].total_minutes / results[-1].total_minutes
    print(f"\n  ScaleFold vs reference: {speedup:.1f}x  (paper: 6x)")

    print("\nMLLOG output of the winning run (first/last lines):")
    lines = [mllog_line(entry) for entry in log.entries]
    print("\n".join(lines[:4] + ["..."] + lines[-3:]))


if __name__ == "__main__":
    main()
