"""The MLPerf HPC OpenFold run: ``:::MLLOG`` rendering of run-log entries
and the benchmark events ``mlperf_time_to_train`` writes."""

import io
import json

import pytest

from repro.observability.runlog import (MLLOG_PREFIX, RunLogger, mllog_line,
                                        parse_mllog_line)
from repro.perf.time_to_train import mlperf_time_to_train


def _payload(entry):
    return json.loads(mllog_line(entry)[len(MLLOG_PREFIX):])


class TestMllogLines:
    def test_event_roundtrip(self):
        logger = RunLogger(clock=lambda: 0.0)
        entry = logger.event("global_batch_size", 256, note="x")
        line = mllog_line(entry)
        assert line.startswith(MLLOG_PREFIX)
        assert parse_mllog_line(line) == entry

    def test_line_is_valid_json_payload(self):
        logger = RunLogger(clock=lambda: 1.5)
        payload = _payload(logger.event("run_start", world=8))
        assert payload == {"namespace": "", "event_type": "INTERVAL_START",
                           "key": "run_start", "value": None,
                           "time_ms": 1500.0, "metadata": {"world": 8}}

    def test_event_types(self):
        logger = RunLogger(clock=lambda: 0.0)
        types = [_payload(logger.event(key))["event_type"]
                 for key in ("init_start", "init_stop", "eval_accuracy")]
        assert types == ["INTERVAL_START", "INTERVAL_END", "POINT_IN_TIME"]

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_mllog_line("not a log line")


class TestBenchmark:
    @pytest.fixture(scope="class")
    def logged_run(self):
        log = RunLogger(clock=lambda: -1.0)
        result = mlperf_time_to_train(scalefold=True, async_eval=True,
                                      run_logger=log)
        return result, log

    def test_converges(self, logged_run):
        _, log = logged_run
        assert log.find("status")[0]["value"] == "success"
        assert log.find("eval_accuracy")[-1]["value"] >= 0.8

    def test_time_near_paper(self, logged_run):
        """Paper: 7.51 minutes (we accept 4-11)."""
        result, _ = logged_run
        assert 4.0 < result.total_minutes < 11.0

    def test_mllog_keys_present(self, logged_run):
        _, log = logged_run
        keys = {e["key"] for e in log.entries}
        for required in ("submission_benchmark", "global_batch_size",
                         "init_start", "init_stop", "run_start", "run_stop",
                         "eval_accuracy", "status"):
            assert required in keys, required

    def test_one_eval_per_curve_point(self, logged_run):
        result, log = logged_run
        evals = log.find("eval_accuracy")
        assert [e["value"] for e in evals] == [p.lddt for p in result.curve]
        assert [e["metadata"]["step"] for e in evals] == \
            [p.step for p in result.curve]

    def test_eval_accuracy_monotone_trend(self, logged_run):
        _, log = logged_run
        accs = [e["value"] for e in log.find("eval_accuracy")]
        assert accs[-1] == max(accs) or accs[-1] >= 0.8

    def test_every_entry_roundtrips_through_mllog(self, logged_run):
        _, log = logged_run
        for entry in log.entries:
            assert parse_mllog_line(mllog_line(entry)) == entry

    def test_log_times_follow_the_simulated_run(self, logged_run):
        result, log = logged_run
        times = [e["time_ms"] for e in log.entries]
        assert times == sorted(times)
        assert log.find("init_stop")[0]["time_ms"] == \
            result.init_seconds * 1000.0
        assert log.find("run_stop")[0]["time_ms"] == \
            result.total_seconds * 1000.0
        # The caller's clock is back once the run is logged.
        assert log.clock() == -1.0

    def test_clock_restored_when_logging_fails(self):
        closed = io.StringIO()
        closed.close()
        log = RunLogger(closed, clock=lambda: -1.0)
        with pytest.raises(ValueError):
            mlperf_time_to_train(step_seconds_override=0.5, run_logger=log)
        assert log.clock() == -1.0

    def test_sync_eval_slower(self, logged_run):
        result, _ = logged_run
        sync = mlperf_time_to_train(scalefold=True, async_eval=False)
        assert sync.total_minutes > result.total_minutes

    def test_reference_much_slower(self, logged_run):
        result, _ = logged_run
        ref = mlperf_time_to_train(scalefold=False)
        assert ref.total_minutes > 3 * result.total_minutes
