"""Parallel scenario sweeps must return exactly the serial results."""

import sys

import pytest

from repro.framework.trace_io import default_store
from repro.model.config import KernelPolicy
from repro.perf import scaling
from repro.perf.scaling import (Scenario, clear_estimate_cache,
                                clear_partition_cache, estimate_many,
                                estimate_step_time)
from repro.perf.vector_cost import clear_cost_cache


def _clear_derived_caches():
    clear_estimate_cache()
    clear_partition_cache()
    clear_cost_cache()


@pytest.fixture(scope="module")
def scenarios():
    policy = KernelPolicy.reference()
    return [
        Scenario(policy=policy, gpu="A100", dap_n=1, dp_degree=8),
        Scenario(policy=policy, gpu="A100", dap_n=2, dp_degree=4),
        Scenario(policy=policy, gpu="A100", dap_n=1, dp_degree=8,
                 imbalance_enabled=False),
    ]


class TestEstimateMany:
    def test_parallel_matches_serial_exactly(self, scenarios):
        clear_estimate_cache()
        parallel = estimate_many(scenarios, max_workers=3)
        clear_estimate_cache()    # force the serial pass to recompute
        serial = [estimate_step_time(s) for s in scenarios]
        assert len(parallel) == len(serial)
        for p, s in zip(parallel, serial):
            assert p.as_dict() == s.as_dict()

    def test_single_worker_falls_back_to_serial(self, scenarios):
        results = estimate_many(scenarios[:1], max_workers=1)
        assert len(results) == 1
        assert results[0].as_dict() == estimate_step_time(
            scenarios[0]).as_dict()

    def test_empty_sweep(self):
        assert estimate_many([]) == []

    def test_racing_cost_misses_on_one_cold_partition(self, monkeypatch):
        """Four workers, switching threads every 10 us, miss the cost
        arrays of one cold partition for four GPUs at once, so they race
        to build the partition and to record its structure; every result
        must still equal a cold serial estimate."""
        monkeypatch.setattr(default_store(), "enabled", False)
        policy = KernelPolicy.reference()
        sweep = [Scenario(policy=policy, gpu=gpu, dap_n=2, dp_degree=4)
                 for gpu in ("A100", "H100", "B200", "GH200")]
        _clear_derived_caches()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            parallel = estimate_many(sweep, max_workers=4)
        finally:
            sys.setswitchinterval(interval)
        parts = [scaling._DAP_CACHE.get(key) for key in scaling._DAP_CACHE]
        assert len(parts) == 1 and parts[0].structure is not None
        _clear_derived_caches()
        serial = [estimate_step_time(s) for s in sweep]
        for p, s in zip(parallel, serial):
            assert p.as_dict() == s.as_dict()

    def test_results_keep_input_order(self, scenarios):
        labels = [e.scenario_label for e in estimate_many(scenarios)]
        assert labels == [s.label() for s in scenarios]
