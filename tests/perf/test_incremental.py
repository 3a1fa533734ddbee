"""Delta-aware re-simulation: per-knob invalidation and bit-identity.

Every scenario knob declares the deepest simulation stage it reaches
(``repro.optimize.space.KNOB_STAGES``); these tests pin that contract to
the caches.  A single-knob change must (a) recompute *only* the segments
that knob touches — observed through the structure/cost build counters
and the registered cache statistics — and (b) produce a step estimate
bit-identical to a cold rebuild with every derived cache cleared.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.framework import dtypes
from repro.framework.caching import cache_registry
from repro.framework.trace_io import default_store
from repro.model.config import KernelPolicy
from repro.perf import scaling
from repro.perf.scaling import (Scenario, clear_estimate_cache,
                                clear_partition_cache, estimate_step_time)
from repro.perf.vector_cost import (build_counters, clear_cost_cache,
                                    reset_build_counters)


@pytest.fixture(autouse=True)
def _no_disk_arrays(monkeypatch):
    """Force every cache decision in-process: no on-disk array hits."""
    monkeypatch.setattr(default_store(), "enabled", False)


def _base() -> Scenario:
    return Scenario(policy=KernelPolicy.reference(), gpu="H100", dap_n=2,
                    dp_degree=8)


def _partition_entries():
    """Every cached DAP partition with the structure and shard mask it
    holds (``get`` of a cached key only counts a hit, never a miss)."""
    entries = {}
    for key in scaling._DAP_CACHE:
        part = scaling._DAP_CACHE.get(key)
        entries[key] = (part, part.structure, part.structure.shardable)
    return entries


def _kept(partitions) -> bool:
    """Whether the partition cache still holds exactly ``partitions``, each
    with the same mask and structure objects (nothing rebuilt)."""
    now = _partition_entries()
    return now.keys() == partitions.keys() and all(
        a is b for key in now for a, b in zip(now[key], partitions[key]))


def _delta_counters(base: Scenario, **changes):
    """Build counts + cache misses incurred by one knob delta, and the
    partition entries cached before it.

    Warms ``base`` from scratch (derived caches cleared first so earlier
    tests cannot pre-seed the segments under measurement), drops only the
    top-level estimate memo, then re-estimates with ``changes`` applied.
    """
    clear_estimate_cache()
    clear_partition_cache()
    clear_cost_cache()
    estimate_step_time(base)
    clear_estimate_cache()
    reset_build_counters()
    partitions = _partition_entries()
    before = {name: st.misses for name, st in cache_registry().items()}
    estimate_step_time(dataclasses.replace(base, **changes))
    after = {name: st.misses for name, st in cache_registry().items()}
    misses = {name: after[name] - before.get(name, 0) for name in after}
    return build_counters(), misses, partitions


RANK_DELTAS = [
    {"gc_disabled": True},
    {"cuda_graphs": True},
    {"ddp_bucket_mb": 50.0},
    {"dp_degree": 16},
]


class TestPerKnobInvalidation:
    @pytest.mark.parametrize("changes", RANK_DELTAS,
                             ids=lambda c: next(iter(c)))
    def test_rank_knobs_reuse_every_segment(self, changes):
        counters, misses, partitions = _delta_counters(_base(), **changes)
        assert counters["structure_builds"] == 0
        assert counters["cost_builds"] == 0
        assert misses.get("dap-partitions", 0) == 0
        assert _kept(partitions)  # same mask and structure
        assert misses.get("step-traces", 0) == 0

    def test_gpu_knob_rebuilds_only_the_cost_segment(self):
        counters, misses, partitions = _delta_counters(_base(), gpu="A100")
        assert counters["structure_builds"] == 0  # trace walk reused
        assert counters["cost_builds"] == 1       # seconds re-priced
        assert misses.get("dap-partitions", 0) == 0
        assert len(partitions) == 1
        assert all(part.records is not None
                   for part, _, _ in partitions.values())
        assert _kept(partitions)  # same mask and structure
        assert misses.get("step-traces", 0) == 0

    def test_dap_knob_rebuilds_partition_and_below(self):
        counters, misses, _ = _delta_counters(_base(), dap_n=4)
        assert misses.get("dap-partitions", 0) == 1
        assert counters["structure_builds"] == 1  # new record stream
        assert counters["cost_builds"] == 1
        assert misses.get("step-traces", 0) == 0  # trace itself reused

    def test_precision_knob_rebuilds_the_trace(self):
        base = _base()
        bf16 = dataclasses.replace(
            base, policy=base.policy.replace(dtype=dtypes.bfloat16))
        counters, misses, _ = _delta_counters(base, policy=bf16.policy)
        assert misses.get("step-traces", 0) >= 1
        assert counters["structure_builds"] >= 1
        assert counters["cost_builds"] >= 1


class TestDeltaBitIdentity:
    @pytest.mark.parametrize(
        "changes",
        RANK_DELTAS + [{"gpu": "A100"}, {"dap_n": 4}],
        ids=lambda c: next(iter(c)))
    def test_warm_delta_matches_cold_rebuild(self, changes):
        base = _base()
        changed = dataclasses.replace(base, **changes)
        estimate_step_time(base)
        warm = estimate_step_time(changed)

        clear_estimate_cache()
        clear_partition_cache()
        clear_cost_cache()
        cold = estimate_step_time(changed)
        assert warm == cold
