"""Property-based tests over the distributed cost models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed.collectives import (Collective, CommEvent,
                                           collective_time,
                                           hierarchical_all_reduce_time)
from repro.distributed.topology import ClusterTopology
from repro.hardware import H100
from repro.kernels.autotune import KernelConfig
from repro.model.config import AlphaFoldConfig

from .test_dap_ddp_straggler import exposed_ddp_s, flat_comm_events

TOPO = ClusterTopology(gpu=H100, n_gpus=4096)


class TestCollectiveProperties:
    @given(st.sampled_from(list(Collective)),
           st.floats(1e3, 1e10), st.integers(2, 128))
    @settings(max_examples=60, deadline=None)
    def test_positive_and_finite(self, collective, payload, group):
        t = collective_time(CommEvent(collective, payload, group), TOPO)
        assert np.isfinite(t) and t > 0

    @given(st.floats(1e4, 1e9), st.integers(2, 64))
    @settings(max_examples=40, deadline=None)
    def test_superadditive_in_payload(self, payload, group):
        """Two half-payloads never beat one full payload (latency term)."""
        full = collective_time(
            CommEvent(Collective.ALL_GATHER, payload, group), TOPO)
        half = collective_time(
            CommEvent(Collective.ALL_GATHER, payload / 2, group), TOPO)
        assert 2 * half >= full * 0.999

    @given(st.floats(1e5, 1e9))
    @settings(max_examples=30, deadline=None)
    def test_allreduce_two_passes(self, payload):
        ar = collective_time(CommEvent(Collective.ALL_REDUCE, payload, 8),
                             TOPO)
        rs = collective_time(
            CommEvent(Collective.REDUCE_SCATTER, payload, 8), TOPO)
        assert ar == pytest.approx(2 * rs, rel=1e-6)

    @given(st.floats(1e6, 1e9), st.integers(2, 2048))
    @settings(max_examples=40, deadline=None)
    def test_hierarchical_allreduce_bounded(self, payload, group):
        t = hierarchical_all_reduce_time(payload, TOPO, group)
        assert np.isfinite(t) and t >= 0
        if group > 1:
            assert t > 0


class TestDapCommProperties:
    @given(st.integers(2, 8), st.sampled_from([2, 4]))
    @settings(max_examples=20, deadline=None)
    def test_event_payloads_positive(self, n, itemsize):
        events = flat_comm_events(AlphaFoldConfig.full(), n, itemsize,
                                  checkpointing=False)
        assert all(e.payload_bytes > 0 for e in events)
        assert all(e.group_size == n for e in events)

    def test_bf16_halves_payloads(self):
        cfg = AlphaFoldConfig.full()
        fp32 = flat_comm_events(cfg, 4, 4, False)
        bf16 = flat_comm_events(cfg, 4, 2, False)
        assert sum(e.payload_bytes for e in bf16) == pytest.approx(
            sum(e.payload_bytes for e in fp32) / 2)


class TestDdpProperties:
    """The rank-level bucket schedule: what backward hides is simulated."""

    @given(st.floats(1e6, 1e9), st.integers(2, 2048),
           st.floats(0.0, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_exposed_never_exceeds_total(self, payload, degree, backward):
        exposed, raw = exposed_ddp_s(payload, degree, TOPO, backward)
        assert 0 <= exposed <= raw + 1e-12

    @given(st.floats(1e6, 1e9), st.integers(2, 256))
    @settings(max_examples=30, deadline=None)
    def test_more_backward_more_overlap(self, payload, degree):
        little, _ = exposed_ddp_s(payload, degree, TOPO, backward_s=0.01)
        lots, _ = exposed_ddp_s(payload, degree, TOPO, backward_s=100.0)
        assert lots <= little + 1e-12


class TestKernelConfigProperties:
    @given(st.integers(1, 100_000), st.integers(1, 4096),
           st.sampled_from([1, 2, 4, 8, 16, 32]),
           st.sampled_from([64, 128, 256, 512]))
    @settings(max_examples=60, deadline=None)
    def test_launch_parallelism_covers_work(self, rows, cols, rpc, bn):
        cfg = KernelConfig(rows_per_cta=rpc, block_n=bn)
        ctas = cfg.launch_parallelism(rows, cols)
        assert ctas >= 1
        # CTAs x per-CTA capacity covers the whole problem.
        assert ctas * rpc * bn >= rows * min(cols, bn) / max(cols // bn, 1) \
            or ctas >= (rows + rpc - 1) // rpc
