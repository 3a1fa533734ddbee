"""DAP trace partitioning, numeric DAP equivalence, DDP buckets, stragglers."""

import numpy as np
import pytest

from repro.distributed.collectives import Collective
from repro.distributed.dap import (dap_comm_bundles, is_shardable,
                                   partition_step)
from repro.distributed.ddp import bucket_schedule, gradient_buckets
from repro.distributed.numeric_dap import (DapEvoformerBlock, all_gather,
                                           all_reduce, all_to_all, shard)
from repro.distributed.straggler import ImbalanceInputs, StragglerModel
from repro.distributed.topology import ClusterTopology
from repro.framework import KernelCategory, Tensor, no_grad, randn, seed, trace
from repro.hardware import H100
from repro.hardware.cpu import CpuJitterConfig
from repro.model.config import AlphaFoldConfig, KernelPolicy
from repro.model.evoformer import EvoformerBlock
from repro.perf.scaling import (Scenario, _PlanOp, _run_distributed_step,
                                estimate_step_time)
from repro.workloads import get_workload

ALPHAFOLD = get_workload("alphafold")


def _partition(step, n):
    return partition_step(step, n, ALPHAFOLD,
                          AlphaFoldConfig.full(step.policy))


def flat_comm_events(cfg, n, itemsize, checkpointing):
    """Every collective one step issues under DAP-n, in bundle order."""
    return [ev for bundle in dap_comm_bundles(cfg, n, itemsize, checkpointing)
            for ev in bundle.events]


def _without_bundles(records):
    return [r for r in records if "dap_bundle" not in (r.tags or {})]


def exposed_ddp_s(param_bytes, dp_degree, topo, backward_s):
    """(exposed, raw) all-reduce seconds of one rank-level step: the DDP
    buckets launch as ``backward_s`` of backward compute makes them ready,
    and the optimizer update waits on all of them."""
    plan = [_PlanOp("compute", 1e-3, "update")]
    if backward_s > 0:
        plan.insert(0, _PlanOp("compute", backward_s, "backward"))
    buckets = bucket_schedule(param_bytes, dp_degree, topo)
    stats = _run_distributed_step(plan, 1, 1, buckets)
    return float(stats["ddp_wait"][0, 0]), sum(s for _, s in buckets)


def _world_gate(model, inputs, group, n_steps=2000):
    """What ``estimate_step_time`` charges a step: E[max over the group]."""
    return float(model.sample_rank_delays(inputs, group, n_steps)
                 .max(axis=1).mean())


class TestShardingPrimitives:
    def test_shard_roundtrip(self):
        x = randn((8, 4))
        shards = shard(x, 4, axis=0)
        assert len(shards) == 4
        gathered = all_gather(shards, axis=0)
        assert np.array_equal(gathered.numpy(), x.numpy())

    def test_shard_requires_divisibility(self):
        with pytest.raises(ValueError):
            shard(randn((7, 4)), 2)

    def test_all_reduce_sums(self):
        parts = [Tensor(np.full((2, 2), float(i), np.float32))
                 for i in range(3)]
        total = all_reduce(parts)
        assert np.all(total.numpy() == 3.0)

    def test_all_to_all_transposes_sharding(self):
        x = randn((4, 8, 2))
        row_shards = shard(x, 2, axis=0)          # 2 x (2, 8, 2)
        col_shards = all_to_all(row_shards, split_axis=1, concat_axis=0)
        assert col_shards[0].shape == (4, 4, 2)
        # round trip restores the original
        back = all_to_all(col_shards, split_axis=0, concat_axis=1)
        restored = np.concatenate([s.numpy() for s in back], axis=0)
        assert np.allclose(restored, x.numpy())

    def test_collectives_emit_comm_records(self):
        x = randn((4, 4))
        with trace() as t:
            all_gather(shard(x, 2))
        comm = [r for r in t.records if r.category is KernelCategory.COMM]
        assert comm and comm[0].name == "nccl_all_gather"


class TestNumericDapEquivalence:
    @pytest.mark.parametrize("n", [2, 4])
    def test_block_outputs_match_unsharded(self, n):
        seed(11)
        cfg = AlphaFoldConfig.tiny()
        block = EvoformerBlock(cfg)
        block.eval()
        m = randn((4, 8, cfg.c_m))
        z = randn((8, 8, cfg.c_z))
        with no_grad():
            m_ref, z_ref = block(m, z)
            m_dap, z_dap = DapEvoformerBlock(block, n).forward_gathered(m, z)
        assert np.allclose(m_ref.numpy(), m_dap.numpy(), atol=1e-4)
        assert np.allclose(z_ref.numpy(), z_dap.numpy(), atol=1e-4)

    def test_per_rank_outputs_are_true_shards(self):
        seed(12)
        cfg = AlphaFoldConfig.tiny()
        block = EvoformerBlock(cfg)
        block.eval()
        m = randn((4, 8, cfg.c_m))
        z = randn((8, 8, cfg.c_z))
        with no_grad():
            m_ref, z_ref = block(m, z)
            per_rank = DapEvoformerBlock(block, 2).forward(m, z)
        assert np.allclose(per_rank[0][0].numpy(), m_ref.numpy()[:2],
                           atol=1e-4)
        assert np.allclose(per_rank[1][1].numpy(), z_ref.numpy()[4:],
                           atol=1e-4)


class TestTracePartitioning:
    def test_dap1_is_identity(self, reference_step_trace):
        records = _partition(reference_step_trace, 1)
        assert len(records) == reference_step_trace.n_kernels
        assert _without_bundles(records) == records

    def test_shardable_work_scales(self, reference_step_trace):
        records = _without_bundles(_partition(reference_step_trace, 4))
        assert len(records) == reference_step_trace.n_kernels
        for orig, shd in zip(reference_step_trace.trace.records, records):
            if is_shardable(orig):
                assert shd.flops == pytest.approx(orig.flops / 4)
            else:
                assert shd.flops == orig.flops

    def test_serial_scopes_untouched(self, reference_step_trace):
        records = _partition(reference_step_trace, 8)
        structure = [r for r in records
                     if r.scope.startswith("alphafold/structure_module")]
        orig = [r for r in reference_step_trace.trace.records
                if r.scope.startswith("alphafold/structure_module")]
        assert sum(r.flops for r in structure) == pytest.approx(
            sum(r.flops for r in orig))

    def test_comm_events_scale_with_blocks(self):
        cfg = AlphaFoldConfig.full()
        events = flat_comm_events(cfg, 4, itemsize=2, checkpointing=False)
        # 6 per trunk block x 2 passes + 2 per template block x 2 passes
        expected = (cfg.evoformer_blocks + cfg.extra_msa_blocks) * 6 * 2 \
            + cfg.template_blocks * 2 * 2
        assert len(events) == expected

    def test_checkpointing_adds_recompute_comms(self):
        cfg = AlphaFoldConfig.full()
        without = flat_comm_events(cfg, 4, 2, checkpointing=False)
        with_ck = flat_comm_events(cfg, 4, 2, checkpointing=True)
        assert len(with_ck) == pytest.approx(len(without) * 1.5, rel=0.01)

    def test_dap1_no_comm(self):
        assert flat_comm_events(AlphaFoldConfig.full(), 1, 4, True) == []

    def test_invalid_degree(self, reference_step_trace):
        with pytest.raises(ValueError):
            _partition(reference_step_trace, 0)


class TestDdp:
    TOPO = ClusterTopology(gpu=H100, n_gpus=256)

    def test_bucket_count(self):
        assert gradient_buckets(94e6 * 4, 25 * 2**20) == 15

    def test_single_replica_free(self):
        assert bucket_schedule(375e6, 1, self.TOPO) == []

    def test_overlap_hides_most_comm(self):
        exposed, raw = exposed_ddp_s(375e6, 256, self.TOPO, backward_s=3.0)
        assert 0.0 < exposed < raw

    def test_no_backward_no_overlap(self):
        exposed, raw = exposed_ddp_s(375e6, 256, self.TOPO, backward_s=0.0)
        assert exposed == pytest.approx(raw)

    def test_bf16_grads_cheaper(self):
        def comm_s(param_bytes):
            return sum(s for _, s in bucket_schedule(param_bytes, 64,
                                                     self.TOPO))
        assert comm_s(188e6) < comm_s(375e6)


class TestStraggler:
    def _inputs(self, graphed=False, stall_p=0.0):
        return ImbalanceInputs(eager_dispatch_s=1.0, graphed=graphed,
                               data_stall_probability=stall_p,
                               data_stall_mean_s=2.0)

    def test_penalty_zero_for_single_rank(self):
        """A one-rank world waits on no one: no gate, no jitter."""
        est = estimate_step_time(Scenario(preset="tiny", dp_degree=1))
        assert est.imbalance_s == 0.0

    def test_penalty_grows_with_group_size(self):
        """The world gate: a larger synchronized group waits longer on
        its slowest member."""
        model = StragglerModel(seed=1)
        p8 = _world_gate(model, self._inputs(stall_p=0.05), 8, n_steps=3000)
        p128 = _world_gate(model, self._inputs(stall_p=0.05), 128,
                           n_steps=3000)
        assert p128 > p8

    def test_graphed_immune_to_cpu_peaks(self):
        cfg = CpuJitterConfig(gc_enabled=False)
        model = StragglerModel(jitter=cfg, seed=2)
        delays = model.sample_rank_delays(self._inputs(graphed=True), 64, 500)
        assert np.all(delays == 0.0)

    def test_gc_hits_even_graphed_steps(self):
        """§4.1: disabling GC still gives 1.13x AFTER CUDA Graphs — graphs
        don't protect the Python loop from GC pauses."""
        cfg = CpuJitterConfig(gc_enabled=True)
        model = StragglerModel(jitter=cfg, seed=3)
        delays = model.sample_rank_delays(self._inputs(graphed=True), 64, 500)
        assert delays.max() > 0.0

    def test_gc_disabled_removes_pauses(self):
        cfg = CpuJitterConfig(gc_enabled=False)
        model = StragglerModel(jitter=cfg, seed=3)
        delays = model.sample_rank_delays(
            self._inputs(graphed=True, stall_p=0.0), 64, 500)
        assert np.all(delays == 0.0)

    def test_data_stalls_contribute(self):
        cfg = CpuJitterConfig(gc_enabled=False)
        model = StragglerModel(jitter=cfg, seed=4)
        quiet = _world_gate(model, self._inputs(graphed=True, stall_p=0.0), 64)
        stalls = _world_gate(model, self._inputs(graphed=True, stall_p=0.1),
                             64)
        assert stalls > quiet

    def test_mean_delay_nonnegative(self):
        model = StragglerModel(seed=5)
        delays = model.sample_rank_delays(self._inputs(stall_p=0.02), 1, 2000)
        assert delays.min() >= 0 and delays.mean() >= 0


class TestStragglerCallOrderDeterminism:
    """Results are pure functions of (seed, inputs, shape) — the order a
    memoizing caller happens to invoke the sampler in must not matter."""

    def _inputs(self, stall_p=0.05):
        return ImbalanceInputs(eager_dispatch_s=1.0, graphed=False,
                               data_stall_probability=stall_p,
                               data_stall_mean_s=2.0)

    def test_either_draw_order(self):
        """The estimate draws (group, 500) for the world gate and
        (dap_n, 10) for the simulated ranks; either order gives the same
        two arrays."""
        model = StragglerModel(seed=11)
        gate_first = model.sample_rank_delays(self._inputs(), 16, 500)
        ranks_after = model.sample_rank_delays(self._inputs(), 4, 10)

        model = StragglerModel(seed=11)
        ranks_first = model.sample_rank_delays(self._inputs(), 4, 10)
        gate_after = model.sample_rank_delays(self._inputs(), 16, 500)

        assert np.array_equal(gate_first, gate_after)
        assert np.array_equal(ranks_first, ranks_after)

    def test_repeated_calls_identical_without_reseeding(self):
        model = StragglerModel(seed=11)
        a = model.sample_rank_delays(self._inputs(), 8, 100)
        b = model.sample_rank_delays(self._inputs(), 8, 100)
        assert np.array_equal(a, b)

    def test_distinct_inputs_get_distinct_streams(self):
        model = StragglerModel(seed=11)
        a = model.sample_rank_delays(self._inputs(stall_p=0.05), 8, 100)
        b = model.sample_rank_delays(self._inputs(stall_p=0.06), 8, 100)
        assert not np.array_equal(a, b)

    def test_seed_still_matters(self):
        a = StragglerModel(seed=1).sample_rank_delays(self._inputs(), 8, 100)
        b = StragglerModel(seed=2).sample_rank_delays(self._inputs(), 8, 100)
        assert not np.array_equal(a, b)
