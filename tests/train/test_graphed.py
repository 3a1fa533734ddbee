"""Graph-cache-aware training loop (§3.2's multi-graph cache, exercised)."""

import pytest

from repro.train.graphed import GraphedStepRunner


@pytest.fixture
def runner():
    r = GraphedStepRunner(max_recycle=2)
    # Avoid paper-scale trace building for every recycle count in tests:
    # inject realistic kernel counts directly.
    r._kernel_counts = {0: 80_000, 1: 115_000, 2: 150_000}
    return r


class TestCacheBehavior:
    def test_capture_once_per_recycle_count(self, runner):
        summary = runner.run(n_steps=50, seed=0)
        assert summary.captures <= runner.max_recycle + 1
        modes = [r.mode for r in summary.records]
        assert modes.count("capture") == summary.captures
        assert modes.count("replay") == 50 - summary.captures

    def test_replay_is_cheap(self, runner):
        summary = runner.run(n_steps=50, seed=0)
        captures = [r.host_seconds for r in summary.records
                    if r.mode == "capture"]
        replays = [r.host_seconds for r in summary.records
                   if r.mode == "replay"]
        assert min(captures) > 10 * max(replays)

    def test_steady_state_summary(self, runner):
        summary = runner.run(n_steps=50, seed=0)
        assert summary.steady_state_host_seconds < 0.1


class TestEagerComparison:
    def test_graphs_win_over_eager_with_cpu_peaks(self):
        kernel_counts = {0: 80_000, 1: 115_000, 2: 150_000}

        graphed = GraphedStepRunner(graphs_enabled=True, max_recycle=2)
        graphed._kernel_counts = dict(kernel_counts)
        eager = GraphedStepRunner(graphs_enabled=False, max_recycle=2)
        eager._kernel_counts = dict(kernel_counts)

        g = graphed.run(n_steps=100, seed=1)
        e = eager.run(n_steps=100, seed=1)
        assert g.total_host_seconds < 0.25 * e.total_host_seconds


class TestRealTraceIntegration:
    def test_kernels_for_builds_real_trace(self):
        """Without injected counts, the runner builds the real paper-scale
        trace for the requested recycling count."""
        runner = GraphedStepRunner(max_recycle=1)
        n0 = runner.kernels_for(0)
        n1 = runner.kernels_for(1)
        assert n1 > n0 > 10_000  # more recycling passes, more launches
