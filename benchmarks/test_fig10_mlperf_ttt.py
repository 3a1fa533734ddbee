"""Figure 10 + headline: MLPerf HPC OpenFold time-to-train.

Paper: ScaleFold finished in 7.51 minutes on 2080 H100s (~2 min of it
initialization), ~11 minutes without async evaluation, 6x faster than the
reference; prior art only scaled to 512 GPUs, ScaleFold to 2080.
"""

from conftest import run_once

from repro.core.experiments import run_fig10
from repro.observability.runlog import RunLogger, mllog_line
from repro.perf.time_to_train import mlperf_time_to_train


class TestFig10:
    def test_regenerate(self, benchmark):
        result = run_once(benchmark, run_fig10)
        print("\n" + result.format())
        rows = {r["system"]: r["ttt_min"] for r in result.rows}
        ref = rows["MLPerf reference (256 GPUs)"]
        sync = rows["ScaleFold sync eval (2048 GPUs)"]
        async_ = rows["ScaleFold async eval (2080 GPUs)"]

        assert async_ < sync < ref
        assert 5.0 < async_ < 10.0        # paper: 7.51 min
        assert 8.0 < sync < 14.0          # paper: ~11 min
        assert 4.5 < ref / async_ < 9.5   # paper: 6x


class TestMlperfHarness:
    def test_full_benchmark_run_with_logging(self, benchmark):
        log = RunLogger(clock=lambda: 0.0)
        result = run_once(
            benchmark,
            lambda: mlperf_time_to_train(scalefold=True, async_eval=True,
                                         run_logger=log))
        evals = log.find("eval_accuracy")
        print(f"\nMLPerf run: {result.total_minutes:.2f} min, "
              f"{result.phases[0].steps:.0f} steps, final lDDT "
              f"{evals[-1]['value']:.4f}")
        for entry in log.entries[:3]:
            print(mllog_line(entry))
        assert log.find("status")[0]["value"] == "success"
        assert 4.0 < result.total_minutes < 11.0
        assert {e["key"] for e in log.entries} >= {
            "run_start", "run_stop", "eval_accuracy", "status"}
