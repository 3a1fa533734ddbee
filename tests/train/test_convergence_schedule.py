"""Convergence model (paper anchors), the §4.2 two-phase plan, LR schedule."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.train.convergence import (MAX_BATCH_SIZE,
                                     MLPERF_CHECKPOINT_SAMPLES,
                                     MLPERF_TARGET_LDDT, PRETRAIN_PHASES,
                                     ConvergenceModel, TrainingPhase,
                                     simulate_curve)
from repro.train.schedule import LrSchedule

MODEL = ConvergenceModel()


class TestPaperAnchors:
    def test_bs128_reaches_08_within_5000_steps(self):
        """§4.2: 'avg_lddt_ca must exceed 0.8 before first 5000 steps'."""
        steps = MODEL.steps_to_reach(0.8, 128)
        assert 3500 < steps <= 5000

    def test_total_steps_to_09_in_paper_window(self):
        """§4.2: 'requires 50000 ~ 60000 steps to reach 0.9'."""
        phase1_samples = 5000 * 128
        steps2 = MODEL.steps_to_reach(0.9, 256, start_samples=phase1_samples)
        assert 45_000 < steps2 + 5000 < 60_000

    def test_mlperf_checkpoint_quality(self):
        """Checkpoint starts just below the lowered 0.8 target."""
        lddt = MODEL.lddt_at(MLPERF_CHECKPOINT_SAMPLES)
        assert 0.75 < lddt < MLPERF_TARGET_LDDT

    def test_mlperf_run_length(self):
        steps = MODEL.steps_to_reach(MLPERF_TARGET_LDDT, 256,
                                     start_samples=MLPERF_CHECKPOINT_SAMPLES)
        assert 200 < steps < 1500

    def test_batch_cap_blocks_convergence(self):
        """§2.2: batch size cannot exceed 256 'otherwise it would fail to
        converge' — the hard DP limit motivating DAP."""
        assert math.isinf(MODEL.steps_to_reach(0.9, 512))
        assert math.isinf(MODEL.steps_to_reach(0.9, 1024))
        assert not math.isinf(MODEL.steps_to_reach(0.9, MAX_BATCH_SIZE))

    def test_overbatch_asymptote_degrades(self):
        assert MODEL.asymptote(512) < MODEL.asymptote(256)
        assert MODEL.asymptote(256) == MODEL.asymptote(128)


class TestCurveProperties:
    def test_monotone_without_noise(self):
        samples = np.linspace(0, 20e6, 100)
        values = [MODEL.lddt_at(s) for s in samples]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_bounded(self):
        for s in (0, 1e3, 1e6, 1e9):
            assert 0.0 <= MODEL.lddt_at(s) <= 1.0

    def test_start_value(self):
        assert MODEL.lddt_at(0) == pytest.approx(MODEL.lddt_start, abs=1e-6)

    @given(st.floats(0.3, 0.93))
    @settings(max_examples=40, deadline=None)
    def test_steps_to_reach_inverts_lddt_at(self, target):
        samples = MODEL.samples_to_reach(target)
        assert MODEL.lddt_at(samples) == pytest.approx(target, abs=1e-6)

    def test_noise_is_bounded(self):
        rng = np.random.default_rng(0)
        vals = [MODEL.lddt_at(1e6, rng=rng) for _ in range(200)]
        spread = max(vals) - min(vals)
        assert 0 < spread < 0.05


class TestSimulateCurve:
    def test_pretrain_schedule(self):
        points = simulate_curve(MODEL, PRETRAIN_PHASES, eval_interval=500,
                                seed=1)
        assert points[-1].lddt >= 0.9
        # phase switch happened at 5000 steps
        bs_at = {p.step: p.batch_size for p in points}
        assert bs_at[5000] == 128
        assert points[-1].batch_size == 256
        assert 45_000 < points[-1].step < 62_000

    def test_curve_steps_monotone(self):
        points = simulate_curve(MODEL, PRETRAIN_PHASES, eval_interval=1000)
        steps = [p.step for p in points]
        assert steps == sorted(steps)

    def test_max_total_steps_guard(self):
        phases = [TrainingPhase(batch_size=512, max_steps=None,
                                target_lddt=0.9)]  # never converges
        points = simulate_curve(MODEL, phases, eval_interval=1000,
                                max_total_steps=20_000)
        assert points[-1].step <= 20_000
        assert points[-1].lddt < 0.9

    def test_start_samples_offsets_curve(self):
        from_scratch = simulate_curve(
            MODEL, [TrainingPhase(256, None, 0.8)], eval_interval=250)
        from_ckpt = simulate_curve(
            MODEL, [TrainingPhase(256, None, 0.8)], eval_interval=250,
            start_samples=MLPERF_CHECKPOINT_SAMPLES)
        assert from_ckpt[-1].step < from_scratch[-1].step


class TestLrSchedule:
    SCHED = LrSchedule(base_lr=1e-3, warmup_steps=1000,
                       decay_after_steps=50_000, decay_factor=0.95)

    def test_warmup_ramps(self):
        assert self.SCHED.lr_at(0) == pytest.approx(1e-5)
        assert self.SCHED.lr_at(500) < self.SCHED.lr_at(999)
        assert self.SCHED.lr_at(1000) == pytest.approx(1e-3)

    def test_constant_plateau(self):
        assert self.SCHED.lr_at(10_000) == pytest.approx(1e-3)

    def test_decay(self):
        assert self.SCHED.lr_at(50_000) == pytest.approx(0.95e-3)
