"""Time-to-train compositions: Figures 9, 10, 11 headline checks."""

from types import SimpleNamespace

import pytest

from repro.perf import time_to_train
from repro.perf.time_to_train import (curve_with_walltime,
                                      mlperf_time_to_train,
                                      pretraining_time_to_train)
from repro.train.convergence import PRETRAIN_PHASES


@pytest.fixture(scope="module")
def sf_async():
    return mlperf_time_to_train(scalefold=True, async_eval=True)


@pytest.fixture(scope="module")
def sf_sync():
    return mlperf_time_to_train(scalefold=True, async_eval=False)


@pytest.fixture(scope="module")
def reference():
    return mlperf_time_to_train(scalefold=False)


@pytest.fixture(scope="module")
def pretrain_sf():
    return pretraining_time_to_train(scalefold=True)


@pytest.fixture(scope="module")
def pretrain_base():
    return pretraining_time_to_train(scalefold=False)


class TestMlperfTtt:
    def test_scalefold_async_minutes_near_paper(self, sf_async):
        """Paper: 7.51 minutes on 2080 H100s (we accept 5-10)."""
        assert 5.0 < sf_async.total_minutes < 10.0

    def test_init_is_two_minutes(self, sf_async):
        """Paper: '~2 minutes initialization and compilation overhead'."""
        assert sf_async.init_seconds == pytest.approx(120.0)

    def test_sync_eval_slower(self, sf_async, sf_sync):
        """Paper: ~11 min without async evaluation vs 7.51 with."""
        assert sf_sync.total_minutes > sf_async.total_minutes + 2.0
        assert 8.0 < sf_sync.total_minutes < 14.0

    def test_six_x_speedup_vs_reference(self, sf_async, reference):
        """Paper: 'ScaleFold is 6X faster than the reference model'."""
        speedup = reference.total_minutes / sf_async.total_minutes
        assert 4.5 < speedup < 9.5

    def test_eval_fraction_without_async_near_43pct(self, sf_sync):
        """Figure 9: evaluation grew to 43% of TTT before async eval."""
        assert 0.30 < sf_sync.breakdown()["eval_fraction"] < 0.50

    def test_async_eval_fraction_zero(self, sf_async):
        assert sf_async.breakdown()["eval_fraction"] == 0.0

    def test_run_length_is_partial_convergence(self, sf_async):
        # A few hundred steps from the checkpoint to 0.8.
        assert 200 < sf_async.phases[0].steps < 1500

    def test_curve_ends_at_target(self, sf_async):
        assert sf_async.curve[-1].lddt >= 0.8


class TestPretrainingTtt:
    def test_under_ten_hours(self, pretrain_sf):
        """THE headline: 'reduce initial training time ... to 10 hours'."""
        assert pretrain_sf.total_hours < 10.0
        assert pretrain_sf.total_hours > 3.0  # not trivially fast either

    def test_phase_structure(self, pretrain_sf):
        p1, p2 = pretrain_sf.phases
        assert p1.batch_size == 128 and p1.steps == 5000
        assert p2.batch_size == 256
        assert 45_000 < p1.steps + p2.steps < 60_000  # paper: 50-60k

    def test_fused_mha_disabled_in_phase2(self, monkeypatch):
        """§4.2: 'disable Triton mha kernel to train the rest steps'; each
        phase runs DP at its PRETRAIN_PHASES batch size."""
        scenarios = []

        def fake_estimate(scenario):
            scenarios.append(scenario)
            return SimpleNamespace(total_s=1.0)

        monkeypatch.setattr(time_to_train, "estimate_step_time",
                            fake_estimate)
        pretraining_time_to_train(scalefold=True)
        assert [sc.policy.fused_mha for sc in scenarios] == [True, False]
        assert ([sc.dp_degree for sc in scenarios]
                == [phase.batch_size for phase in PRETRAIN_PHASES])

    def test_baseline_takes_days(self, pretrain_base):
        """Paper baseline: ~7 days (we accept 3-10 days)."""
        assert 3.0 < pretrain_base.total_hours / 24.0 < 10.0

    def test_speedup_order_of_magnitude(self, pretrain_sf, pretrain_base):
        speedup = pretrain_base.total_seconds / pretrain_sf.total_seconds
        assert speedup > 8  # paper: 7 days -> 10 hours is ~17x

    def test_walltime_curve(self, pretrain_sf):
        curve = curve_with_walltime(pretrain_sf)
        hours = [h for h, _ in curve]
        lddts = [l for _, l in curve]
        assert hours == sorted(hours)
        assert lddts[-1] >= 0.9
        # Eval noise can cross the 0.9 target a bit before the analytic
        # expectation, so the curve may end earlier than the phase budget.
        assert 0.55 * pretrain_sf.total_hours < hours[-1] \
            <= pretrain_sf.total_hours * 1.01

    def test_08_crossed_early(self, pretrain_sf):
        """Figure 11: 0.8 is crossed within the first hour(s) (phase 1)."""
        curve = curve_with_walltime(pretrain_sf)
        t_08 = next(h for h, l in curve if l >= 0.8)
        assert t_08 < 0.25 * pretrain_sf.total_hours
