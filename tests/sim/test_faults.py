"""Fault injection, checkpoint-restart math, and failure-aware TTT."""

import json
import math

import numpy as np
import pytest

from repro.perf.time_to_train import (failure_aware_time_to_train,
                                      mlperf_time_to_train)
from repro.sim.cluster import ClusterSimConfig, run_cluster_simulation
from repro.sim.des import audit
from repro.sim.faults import (ABORTING_KINDS, CheckpointPolicy, FaultConfig,
                              FaultInjector, SLOW, SWITCH,
                              checkpoint_write_seconds, expected_run_seconds,
                              optimal_checkpoint_interval,
                              young_daly_interval_s)
from repro.observability.runlog import RunLogger


def _aggressive(seed=0, **kw):
    kw.setdefault("mtbf_rank_hours", 2.0)
    return FaultConfig(seed=seed, **kw)


class TestFaultConfig:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            FaultConfig(p_crash=0.5, p_hang=0.5, p_slow=0.5)

    def test_mtbf_must_be_positive(self):
        with pytest.raises(ValueError):
            FaultConfig(mtbf_rank_hours=0.0)

    def test_abort_rate_scales_with_ranks(self):
        cfg = FaultConfig(mtbf_rank_hours=26280.0)
        assert cfg.abort_rate(2048) == pytest.approx(cfg.abort_rate(256) * 8)

    def test_inf_mtbf_disables(self):
        cfg = FaultConfig(mtbf_rank_hours=math.inf)
        assert cfg.abort_rate(2048) == 0.0
        assert cfg.slow_rate(2048) == 0.0
        assert cfg.mean_detection_s(2048) == 0.0

    def test_mean_detection_between_crash_and_hang(self):
        cfg = FaultConfig()
        d = cfg.mean_detection_s(256)
        assert cfg.crash_detection_s <= d <= cfg.hang_detection_s


class TestFaultInjector:
    def test_deterministic_for_seed(self):
        a = FaultInjector(_aggressive(seed=5), 64).events(50_000.0)
        b = FaultInjector(_aggressive(seed=5), 64).events(50_000.0)
        assert a == b
        assert len(a) > 0

    def test_seed_changes_sample_path(self):
        a = FaultInjector(_aggressive(seed=1), 64).events(50_000.0)
        b = FaultInjector(_aggressive(seed=2), 64).events(50_000.0)
        assert a != b

    def test_zero_rate_yields_nothing(self):
        cfg = FaultConfig(mtbf_rank_hours=math.inf)
        assert FaultInjector(cfg, 2048).events(1e9) == []

    def test_horizon_independence(self):
        injector = FaultInjector(_aggressive(seed=3), 64)
        short = injector.events(20_000.0)
        long = injector.events(80_000.0)
        assert long[:len(short)] == short
        assert len(long) > len(short)

    def test_events_time_ordered_and_well_formed(self):
        events = FaultInjector(_aggressive(seed=4), 64).events(100_000.0)
        times = [e.time_s for e in events]
        assert times == sorted(times)
        for e in events:
            assert e.kind in ABORTING_KINDS + (SLOW,)
            assert 0 <= e.rank < 64
            assert e.rank in e.ranks
            assert (e.duration_s > 0) == (e.kind == SLOW)
            assert e.aborts == (e.kind != SLOW)

    def test_switch_stream_independent_of_rank_stream(self):
        """Enabling switch outages must not perturb rank-fault history."""
        base = FaultInjector(_aggressive(seed=6), 64).events(100_000.0)
        with_switch = FaultInjector(
            _aggressive(seed=6, switch_mtbf_hours=5.0), 64).events(100_000.0)
        assert [e for e in base if e.kind != SWITCH] \
            == [e for e in with_switch if e.kind != SWITCH]
        assert any(e.kind == SWITCH for e in with_switch)

    def test_switch_takes_out_whole_node(self):
        events = FaultInjector(
            FaultConfig(mtbf_rank_hours=math.inf, switch_mtbf_hours=1.0),
            64, gpus_per_node=8).events(100_000.0)
        assert events and all(e.kind == SWITCH for e in events)
        for e in events:
            assert len(e.ranks) == 8
            assert e.ranks[0] % 8 == 0

    def test_attach_announces_through_audit_hook(self):
        from repro.sim.des import Simulator
        sim = Simulator()
        seen_hook = []
        seen_cb = []
        injector = FaultInjector(_aggressive(seed=7), 64)
        with audit(seen_hook.append):
            injector.attach(sim, seen_cb.append,
                            stop=lambda: sim.now > 30_000.0)
            sim.run(until=40_000.0)
        injected = [e for e in seen_hook if e["kind"] == "fault_inject"]
        assert len(injected) == len(seen_cb) > 0
        assert all(e["actor"] == "fault-injector" for e in injected)


class TestDalyModel:
    def test_zero_rate_free_checkpoints_is_exact_work(self):
        cfg = FaultConfig(mtbf_rank_hours=math.inf)
        policy = CheckpointPolicy(every_steps=100, write_s=0.0,
                                  blocking=False)
        est = expected_run_seconds(3600.0, 1.0, 2048, cfg, policy)
        assert est.expected_s == 3600.0
        assert est.expected_failures == 0.0

    def test_zero_rate_blocking_adds_exact_overhead(self):
        cfg = FaultConfig(mtbf_rank_hours=math.inf)
        policy = CheckpointPolicy(every_steps=100, write_s=2.0)
        est = expected_run_seconds(1000.0, 1.0, 2048, cfg, policy)
        assert est.expected_s == pytest.approx(1000.0 + 2.0 * 10)

    def test_failures_increase_expected_time(self):
        policy = CheckpointPolicy(every_steps=100, write_s=2.0)
        quiet = expected_run_seconds(
            36_000.0, 1.0, 2048, FaultConfig(mtbf_rank_hours=1e6), policy)
        noisy = expected_run_seconds(
            36_000.0, 1.0, 2048, FaultConfig(mtbf_rank_hours=1e3), policy)
        assert noisy.expected_s > quiet.expected_s > 36_000.0
        assert noisy.expected_failures > quiet.expected_failures

    def test_slow_nodes_stretch_work(self):
        no_slow = FaultConfig(mtbf_rank_hours=200.0, p_crash=0.75,
                              p_hang=0.25, p_slow=0.0)
        with_slow = FaultConfig(mtbf_rank_hours=200.0, p_crash=0.6,
                                p_hang=0.2, p_slow=0.2)
        policy = CheckpointPolicy(every_steps=100, write_s=0.5)
        a = expected_run_seconds(3600.0, 1.0, 256, no_slow, policy)
        b = expected_run_seconds(3600.0, 1.0, 256, with_slow, policy)
        assert a.slow_stretch == 1.0
        assert b.slow_stretch > 1.0

    def test_young_daly_limits(self):
        policy = CheckpointPolicy(every_steps=100, write_s=2.0)
        assert math.isinf(young_daly_interval_s(
            FaultConfig(mtbf_rank_hours=math.inf), policy, 256))
        free = CheckpointPolicy(every_steps=100, write_s=0.0, blocking=False)
        assert young_daly_interval_s(
            FaultConfig(mtbf_rank_hours=100.0), free, 256) == 0.0

    def test_checkpoint_write_seconds(self):
        with_opt = checkpoint_write_seconds(93_000_000)
        without = checkpoint_write_seconds(93_000_000, optimizer_state=False)
        assert with_opt == pytest.approx(without * 4)


class TestOptimalInterval:
    def test_higher_failure_rate_prefers_shorter_interval(self):
        policy = CheckpointPolicy(every_steps=250, write_s=2.0)
        rare = optimal_checkpoint_interval(
            36_000.0, 1.0, 2048, FaultConfig(mtbf_rank_hours=1e5), policy)
        frequent = optimal_checkpoint_interval(
            36_000.0, 1.0, 2048, FaultConfig(mtbf_rank_hours=1e3), policy)
        assert frequent.best_every_steps < rare.best_every_steps

    def test_best_is_grid_minimum(self):
        sweep = optimal_checkpoint_interval(
            36_000.0, 1.0, 2048, FaultConfig(mtbf_rank_hours=2e3),
            CheckpointPolicy(every_steps=250, write_s=2.0))
        best = min(sweep.points, key=lambda p: (p[1], p[0]))
        assert (sweep.best_every_steps, sweep.best_expected_s) == best
        assert sweep.young_daly_steps > 0

    def test_nonblocking_excludes_subwrite_intervals(self):
        sweep = optimal_checkpoint_interval(
            36_000.0, 1.0, 2048, FaultConfig(mtbf_rank_hours=1e3),
            CheckpointPolicy(every_steps=250, write_s=30.0, blocking=False))
        assert all(k * 1.0 >= 30.0 for k, _ in sweep.points)

    def test_as_dict_roundtrips_through_json(self):
        sweep = optimal_checkpoint_interval(
            3600.0, 1.0, 256, FaultConfig(mtbf_rank_hours=1e3),
            CheckpointPolicy(every_steps=100, write_s=2.0))
        assert json.loads(json.dumps(sweep.as_dict())) == sweep.as_dict()


class TestFailureAwareTtt:
    def test_zero_rate_reproduces_baseline_exactly(self):
        """The acceptance golden: failure rate 0 + free checkpoints must
        reproduce the existing time-to-train numbers bit-exactly."""
        for n_gpus in (256, 2080):
            base = mlperf_time_to_train(n_gpus=n_gpus,
                                        step_seconds_override=0.56)
            fa = failure_aware_time_to_train(
                base, FaultConfig(mtbf_rank_hours=math.inf),
                CheckpointPolicy(every_steps=250, write_s=0.0,
                                 blocking=False),
                sweep=False)
            assert fa.expected_total_seconds == base.total_seconds

    def test_nonzero_mtbf_reports_overhead_and_optimum(self):
        base = mlperf_time_to_train(n_gpus=2080, step_seconds_override=0.56)
        fa = failure_aware_time_to_train(
            base, FaultConfig(mtbf_rank_hours=8760.0),
            CheckpointPolicy(every_steps=250, write_s=2.0))
        assert fa.expected_total_seconds > base.total_seconds
        assert fa.expected_failures > 0
        assert fa.optimal_every_steps >= 1
        d = fa.as_dict()
        assert json.loads(json.dumps(d)) == d

    def test_wider_job_pays_more(self):
        cfg = FaultConfig(mtbf_rank_hours=8760.0)
        policy = CheckpointPolicy(every_steps=250, write_s=2.0)
        small = failure_aware_time_to_train(
            mlperf_time_to_train(n_gpus=256, step_seconds_override=0.56),
            cfg, policy, sweep=False)
        large = failure_aware_time_to_train(
            mlperf_time_to_train(n_gpus=2080, step_seconds_override=0.56),
            cfg, policy, sweep=False)
        assert large.failure_overhead_seconds > small.failure_overhead_seconds


def _sim_config(**kw):
    kw.setdefault("step_seconds", 2.0)
    kw.setdefault("n_sync_ranks", 64)
    kw.setdefault("max_steps", 600)
    kw.setdefault("init_seconds", 10.0)
    return ClusterSimConfig(**kw)


class TestClusterSimWithFaults:
    def test_inert_fault_config_matches_fault_free_exactly(self):
        """The race machinery itself must not change timing."""
        plain = run_cluster_simulation(_sim_config())
        inert = run_cluster_simulation(_sim_config(
            faults=FaultConfig(mtbf_rank_hours=math.inf)))
        assert inert.total_seconds == plain.total_seconds
        assert inert.steps == plain.steps
        assert inert.faults == []

    def test_bit_deterministic_across_runs(self):
        cfg = _sim_config(faults=_aggressive(seed=3),
                          checkpoint=CheckpointPolicy(every_steps=50,
                                                      write_s=2.0))
        a = run_cluster_simulation(cfg)
        b = run_cluster_simulation(cfg)
        assert a.total_seconds == b.total_seconds
        assert a.faults == b.faults
        assert [(c.step, c.triggered_at, c.durable_at)
                for c in a.checkpoints] \
            == [(c.step, c.triggered_at, c.durable_at)
                for c in b.checkpoints]

    def test_faults_slow_the_run_and_roll_back(self):
        plain = run_cluster_simulation(_sim_config())
        faulty = run_cluster_simulation(_sim_config(
            faults=_aggressive(seed=3),
            checkpoint=CheckpointPolicy(every_steps=50, write_s=2.0)))
        assert faulty.total_seconds > plain.total_seconds
        aborts = [f for f in faulty.faults if f.downtime_s > 0]
        assert aborts
        assert faulty.downtime_seconds == pytest.approx(
            sum(f.downtime_s for f in aborts))
        for f in aborts:
            assert f.restored_step % 50 == 0
            assert f.lost_steps >= 0

    def test_runlog_and_timeline_carry_failure_events(self):
        log = RunLogger()
        result = run_cluster_simulation(_sim_config(
            faults=_aggressive(seed=3),
            checkpoint=CheckpointPolicy(every_steps=50, write_s=2.0)),
            run_logger=log)
        keys = {e["key"] for e in log.entries}
        assert {"fault", "recovery", "checkpoint"} <= keys
        n_aborts = sum(1 for f in result.faults if f.downtime_s > 0)
        assert len(log.find("recovery")) == n_aborts
        tags = result.timeline.by_tag()
        assert tags.get("detect", 0) > 0
        assert tags.get("restart", 0) > 0
        assert tags.get("write", 0) > 0
        # Fault timestamps in the log are simulated milliseconds.
        fault_times = [e["time_ms"] / 1000.0 for e in log.find("fault")]
        assert fault_times == sorted(fault_times)
        assert fault_times[-1] <= result.total_seconds + 1e-6

    def test_checkpoint_cadence_without_faults(self):
        result = run_cluster_simulation(_sim_config(
            checkpoint=CheckpointPolicy(every_steps=100, write_s=2.0)))
        assert len(result.checkpoints) == 600 // 100
        assert all(c.durable for c in result.checkpoints)
        assert all(c.step % 100 == 0 for c in result.checkpoints)

    def test_async_checkpoints_have_durability_lag(self):
        result = run_cluster_simulation(_sim_config(
            checkpoint=CheckpointPolicy(every_steps=100, write_s=30.0,
                                        blocking=False,
                                        snapshot_stall_s=0.1)))
        for c in result.checkpoints:
            if c.durable:
                assert c.durable_at >= c.triggered_at + 30.0 - 1e-9


class TestFaultsCli:
    def _run(self, tmp_path, name, extra=()):
        from repro.cli import main
        out = tmp_path / name
        code = main(["faults", "--quick", "--step-seconds", "0.56",
                     "--mtbf-hours", "120", "--no-sim",
                     "-o", str(out), *extra])
        assert code == 0
        return json.loads(out.read_text())

    def test_reports_both_rank_configs(self, tmp_path):
        payload = self._run(tmp_path, "a.json")
        ranks = [c["n_ranks"] for c in payload["configs"]]
        assert ranks == [256, 2080]
        for entry in payload["configs"]:
            model = entry["model"]
            assert model["expected_total_s"] > model["fault_free_total_s"]
            assert model["sweep"]["best_every_steps"] >= 1

    def test_json_bit_deterministic(self, tmp_path):
        a = self._run(tmp_path, "a.json")
        b = self._run(tmp_path, "b.json")
        assert a == b

    @pytest.mark.parametrize("argv", [
        ["faults", "--mtbf-hours", "0"],
        ["faults", "--switch-mtbf-hours", "0"],
        ["faults", "--step-seconds", "0"],
        ["faults", "--mtbf-hours", "nan"],
        ["faults", "--mtbf-hours", "-1"],
        ["serve", "--mtbf-hours", "0"],
    ])
    def test_non_positive_arguments_exit_2(self, argv, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {argv[1]}: must be a positive number" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["faults", "--restart-s", "-1"],
        ["faults", "--restart-s", "nan"],
        ["faults", "--checkpoint-write-s", "nan"],
        ["faults", "--checkpoint-write-s", "-0.5"],
        ["faults", "--checkpoint-write-s", "inf"],
    ])
    def test_negative_or_non_finite_seconds_exit_2(self, argv, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {argv[1]}: must be a finite number >= 0" in err
        assert "Traceback" not in err

    def test_inf_is_a_valid_mtbf(self, tmp_path):
        payload = self._run(tmp_path, "inf.json",
                            ["--mtbf-hours", "inf", "--no-sweep"])
        assert payload["mtbf_rank_hours"] == float("inf")

    def test_sim_and_artifacts(self, tmp_path):
        from repro.cli import main
        out = tmp_path / "sweep.json"
        runlog = tmp_path / "run.jsonl"
        trace = tmp_path / "trace.json"
        code = main(["faults", "--quick", "--step-seconds", "0.56",
                     "--mtbf-hours", "60", "--ranks", "256",
                     "--sim-max-steps", "400",
                     "-o", str(out), "--runlog", str(runlog),
                     "--trace", str(trace)])
        assert code == 0
        payload = json.loads(out.read_text())
        sim = payload["configs"][0]["sim"]
        assert sim is not None and sim["steps"] > 0
        log_keys = {json.loads(line)["key"]
                    for line in runlog.read_text().splitlines()}
        assert "fault" in log_keys
        events = json.loads(trace.read_text())["traceEvents"]
        assert any(e["name"].startswith("fault:") for e in events)
