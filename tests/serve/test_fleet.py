"""DES fleet model: determinism, SLO accounting, faults, trace export."""

import json
import math

import pytest

from repro.serve.fleet import (COMPLETED, REJECTED, ArrivalConfig,
                               FleetConfig, run_fleet)
from repro.sim.faults import FaultConfig


def quick_config(**overrides):
    defaults = dict(duration_s=30.0, seed=11)
    defaults.update(overrides)
    return FleetConfig(**defaults)


@pytest.fixture(scope="module")
def base_result():
    return run_fleet(quick_config(), ArrivalConfig(rate_rps=1.5))


class TestDeterminism:
    def test_report_is_bit_identical_across_runs(self, base_result):
        again = run_fleet(quick_config(), ArrivalConfig(rate_rps=1.5))
        assert json.dumps(base_result.report(), sort_keys=True) == \
            json.dumps(again.report(), sort_keys=True)

    def test_seed_changes_the_sample_path(self, base_result):
        other = run_fleet(quick_config(seed=12), ArrivalConfig(rate_rps=1.5))
        assert json.dumps(base_result.report(), sort_keys=True) != \
            json.dumps(other.report(), sort_keys=True)


class TestReport:
    def test_every_request_reaches_a_terminal_state(self, base_result):
        report = base_result.report()
        fleet = report["fleet"]
        assert fleet["requests"] > 0
        assert fleet["completed"] + fleet["rejected"] == fleet["requests"]
        for req in base_result.requests:
            assert req.status in (COMPLETED, REJECTED)

    def test_both_workloads_report_percentiles_and_goodput(self, base_result):
        report = base_result.report()
        for name in ("alphafold", "transformer"):
            row = report["workloads"][name]
            assert row["completed"] > 0
            lat = row["latency_s"]
            assert 0 < lat["p50"] <= lat["p90"] <= lat["p99"] <= lat["max"]
            assert row["slo_s"] > 0
            assert row["goodput_rps"] >= 0
        fleet = report["fleet"]
        assert fleet["goodput_rps"] <= fleet["throughput_rps"]

    def test_latency_decomposition_is_causal(self, base_result):
        for req in base_result.requests:
            if req.status != COMPLETED:
                continue
            assert req.t_arrival <= req.t_prep_start
            assert req.t_prepped == pytest.approx(
                req.t_prep_start + req.prep_s)
            assert req.t_prepped <= req.t_batched <= req.t_done
            assert req.latency_s >= req.prep_s

    def test_batches_respect_max_batch_and_bucketing(self, base_result):
        config = base_result.config
        for batch in base_result.batches:
            assert 1 <= len(batch.request_ids) <= config.max_batch
            workloads = {base_result.requests[rid].workload
                         for rid in batch.request_ids}
            assert workloads == {batch.workload}
        completed = [r for r in base_result.requests
                     if r.status == COMPLETED]
        assert all(r.batch_id >= 0 for r in completed)

    def test_report_is_json_safe(self, base_result):
        payload = json.loads(json.dumps(base_result.report()))
        assert payload["config"]["seed"] == 11


class TestAdmissionControl:
    def test_tight_queue_limit_sheds_load(self):
        result = run_fleet(quick_config(queue_limit=2, n_gpu_workers=1),
                           ArrivalConfig(rate_rps=3.0))
        report = result.report()["fleet"]
        assert report["rejected"] > 0
        assert report["completed"] + report["rejected"] == report["requests"]
        # Shed requests terminate at arrival with no batch.
        for req in result.requests:
            if req.status == REJECTED:
                assert req.batch_id == -1
                assert req.t_done == req.t_arrival


class TestArrivals:
    @pytest.mark.parametrize("pattern", ["poisson", "bursty", "diurnal"])
    def test_patterns_generate_and_complete(self, pattern):
        result = run_fleet(quick_config(),
                           ArrivalConfig(pattern=pattern, rate_rps=1.0))
        fleet = result.report()["fleet"]
        assert fleet["requests"] > 0
        assert fleet["completed"] + fleet["rejected"] == fleet["requests"]
        assert result.report()["config"]["arrival_pattern"] == pattern

    def test_intensity_shapes(self):
        bursty = ArrivalConfig(pattern="bursty", rate_rps=2.0,
                               burst_factor=4.0, burst_every_s=60.0,
                               burst_s=10.0)
        assert bursty.intensity(5.0) == pytest.approx(8.0)
        assert bursty.intensity(30.0) == pytest.approx(2.0)
        diurnal = ArrivalConfig(pattern="diurnal", rate_rps=2.0,
                                diurnal_amplitude=0.5,
                                diurnal_period_s=100.0)
        assert diurnal.intensity(25.0) == pytest.approx(3.0)
        assert diurnal.intensity(75.0) == pytest.approx(1.0)
        assert diurnal.peak_rate() == pytest.approx(3.0)

    def test_invalid_pattern_rejected(self):
        with pytest.raises(ValueError):
            ArrivalConfig(pattern="tidal")


class TestFaults:
    @pytest.fixture(scope="class")
    def faulty(self):
        return run_fleet(
            quick_config(faults=FaultConfig(mtbf_rank_hours=0.01,
                                            restart_s=5.0, seed=2)),
            ArrivalConfig(rate_rps=1.5))

    def test_aborted_batches_are_retried_to_completion(self, faulty):
        fleet = faulty.report()["fleet"]
        assert fleet["aborted_attempts"] > 0
        assert sum(fleet["faults"].values()) > 0
        # Faults delay requests; they never lose them.
        assert fleet["completed"] + fleet["rejected"] == fleet["requests"]
        retried = [b for b in faulty.batches if len(b.attempts) > 1]
        assert retried
        for batch in retried:
            assert batch.attempts[-1].outcome == "ok"
            for attempt in batch.attempts[:-1]:
                assert attempt.outcome != "ok"

    def test_fault_free_config_reports_no_faults(self, base_result):
        fleet = base_result.report()["fleet"]
        assert fleet["aborted_attempts"] == 0
        assert fleet["faults"] == {}

    def test_inf_mtbf_matches_no_faults(self):
        no_faults = run_fleet(quick_config(), ArrivalConfig())
        inf_faults = run_fleet(
            quick_config(faults=FaultConfig(mtbf_rank_hours=math.inf,
                                            switch_mtbf_hours=math.inf)),
            ArrivalConfig())
        a, b = no_faults.report(), inf_faults.report()
        a["config"]["faults"] = b["config"]["faults"] = None
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestChromeTrace:
    def test_exported_trace_is_valid_and_connected(self, base_result):
        from repro.observability.chrome_trace import fleet_to_chrome

        builder = fleet_to_chrome(base_result)
        payload = json.loads(builder.dumps())
        events = payload["traceEvents"]
        assert events
        assert all(e["ph"] in "XiMsf" for e in events)
        completes = [e for e in events if e["ph"] == "X"]
        assert all(e["dur"] >= 0 for e in completes)
        # Every admitted request's frontend span links to a batch attempt.
        starts = {e["id"] for e in events if e["ph"] == "s"
                  and str(e["id"]).startswith("req:")}
        finishes = {e["id"] for e in events if e["ph"] == "f"
                    and str(e["id"]).startswith("req:")}
        assert starts and starts == finishes

    def test_faulty_trace_includes_fault_markers(self):
        from repro.observability.chrome_trace import fleet_to_chrome

        result = run_fleet(
            quick_config(faults=FaultConfig(mtbf_rank_hours=0.01,
                                            restart_s=5.0, seed=2)),
            ArrivalConfig(rate_rps=1.5))
        events = fleet_to_chrome(result).events
        assert any(e["ph"] == "i" and str(e["name"]).startswith("fault:")
                   for e in events)


class TestServeCli:
    @pytest.mark.parametrize("argv, message", [
        (["--rate", "0"], "must be a positive finite number"),
        (["--rate", "inf"], "must be a positive finite number"),
        (["--rate", "nan"], "must be a positive finite number"),
        (["--duration", "-5"], "must be a positive finite number"),
        (["--duration", "inf"], "must be a positive finite number"),
        (["--restart-s", "-1"], "must be a finite number >= 0"),
    ])
    def test_invalid_arguments_exit_2(self, argv, message, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit) as exc:
            main(["serve", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {argv[0]}: {message}" in err
        assert "Traceback" not in err
