"""Profiler (Table 1, key ops, module shares) and scaling scenarios."""

import dataclasses

import numpy as np
import pytest

from repro.framework.tracer import KernelCategory
from repro.hardware import A100, H100
from repro.model.config import KernelPolicy
from repro.perf import scaling
from repro.perf.profiler import (key_operation_analysis, module_time_shares,
                                 table1_breakdown)
from repro.perf.scaling import (LADDER_LABELS, Scenario, _scenario_key,
                                barrier_breakdown, clear_partition_cache,
                                estimate_step_time, optimization_ladder)
from repro.workloads import get_workload

from .knob_cells import preset_scenarios


class TestTable1:
    def test_rows_and_percentages(self, reference_step_trace):
        table = table1_breakdown(reference_step_trace, A100)
        kinds = [r.kernel_type for r in table.rows]
        assert kinds == ["CPU Overhead", "Math-bounded", "Memory-bounded",
                         "Memory-operation"]
        total_pct = sum(r.runtime_pct for r in table.rows)
        assert total_pct == pytest.approx(100.0, abs=1.0)

    def test_paper_shape(self, reference_step_trace):
        """Memory-bounded dominates runtime AND call count (Table 1)."""
        table = table1_breakdown(reference_step_trace, A100).as_dict()
        assert table["Memory-bounded"].runtime_pct > \
            1.7 * table["Math-bounded"].runtime_pct
        assert table["Memory-bounded"].calls > \
            4 * table["Math-bounded"].calls
        assert 4 < table["CPU Overhead"].runtime_pct < 16

    def test_format(self, reference_step_trace):
        text = table1_breakdown(reference_step_trace, A100).format()
        assert "Memory-bounded" in text and "Runtime (%)" in text


class TestModuleShares:
    def test_evoformer_dominates(self, reference_step_trace):
        """Paper §2.1: Evoformer takes 72% of step time (we accept 60-85%
        for the trunk stack alone)."""
        shares = module_time_shares(reference_step_trace, A100)
        assert 0.60 < shares["alphafold/evoformer"] < 0.85

    def test_shares_sum_to_one(self, reference_step_trace):
        shares = module_time_shares(reference_step_trace, A100)
        assert sum(shares.values()) == pytest.approx(1.0, rel=1e-6)


class TestKeyOperations:
    @pytest.fixture(scope="class")
    def stats(self, reference_step_trace, scalefold_step_trace):
        return {s.name: s for s in key_operation_analysis(
            reference_step_trace, scalefold_step_trace, A100)}

    def test_mha_share_near_paper(self, stats):
        assert 25 < stats["MHA"].step_share_pct < 55  # paper: 34%

    def test_layernorm_share_near_paper(self, stats):
        assert 8 < stats["LayerNorm"].step_share_pct < 25  # paper: 14%

    def test_mha_exceeds_layernorm(self, stats):
        assert stats["MHA"].step_share_pct > stats["LayerNorm"].step_share_pct

    def test_update_swa_clip_shares(self, stats):
        # paper: 6% / 6% / 3%
        assert 3 < stats["WeightUpdate"].step_share_pct < 14
        assert 0.5 < stats["SWA"].step_share_pct < 8
        assert 1 < stats["GradClip"].step_share_pct < 7

    def test_all_far_from_theoretical_peak(self, stats):
        """§2.2: every key op runs at a small fraction of peak."""
        for name, s in stats.items():
            assert s.achieved_pct_of_theoretical < 40, name

    def test_clip_is_worst(self, stats):
        """Paper: grad clip '<1% of theoretical' — the worst of the five."""
        assert stats["GradClip"].achieved_pct_of_theoretical == min(
            s.achieved_pct_of_theoretical for s in stats.values())


class TestScenario:
    def test_world_size(self):
        sc = Scenario(dap_n=8, dp_degree=256)
        assert sc.world_size == 2048

    def test_label_mentions_options(self):
        sc = Scenario(policy=KernelPolicy.scalefold(), cuda_graphs=True,
                      gc_disabled=True, dap_n=4)
        label = sc.label()
        assert "DAP-4" in label and "graph" in label and "bf16" in label

    def test_memo_key_covers_every_field(self):
        base = Scenario()
        assert _scenario_key(base) == _scenario_key(Scenario())
        other = {"policy": base.policy.replace(batched_gemm=True),
                 "gpu": "A100", "workload": "transformer", "preset": "tiny"}
        for f in dataclasses.fields(Scenario):
            value = getattr(base, f.name)
            if f.name in other:
                changed = other[f.name]
            elif isinstance(value, bool):
                changed = not value
            elif isinstance(value, (int, float)):
                changed = value + 1
            else:
                raise AssertionError(f"no changed value for Scenario.{f.name}")
            key = _scenario_key(dataclasses.replace(base, **{f.name: changed}))
            assert key != _scenario_key(base), f.name


class TestEstimates:
    def test_breakdown_adds_up(self):
        est = estimate_step_time(Scenario(policy=KernelPolicy.reference(),
                                          gpu="A100"))
        assert est.total_s == pytest.approx(
            est.compute_s + est.dap_comm_s + est.ddp_exposed_s
            + est.imbalance_s, rel=1e-6)

    def test_baseline_dap_speedups_match_paper_shape(self):
        """§3.1: DAP-2 ~1.42x, DAP-4 ~1.57x, DAP-8 no further gain."""
        times = {}
        for n in (1, 2, 4, 8):
            times[n] = estimate_step_time(
                Scenario(policy=KernelPolicy.reference(), gpu="A100",
                         dap_n=n)).total_s
        s2, s4, s8 = times[1] / times[2], times[1] / times[4], times[1] / times[8]
        assert 1.2 < s2 < 1.7
        assert s2 < s4 < 2.3
        assert s8 < s4 * 1.15  # saturated by DAP-8

    def test_scalefold_h100_dap_curve(self):
        """Fig 7 shape: monotone improvement, saturating by DAP-8."""
        times = []
        for n in (1, 2, 4, 8):
            policy = KernelPolicy.scalefold(checkpointing=n < 8)
            est = estimate_step_time(Scenario(
                policy=policy, gpu="H100", dap_n=n, cuda_graphs=n > 1,
                gc_disabled=True, torch_compile=True,
                nonblocking_pipeline=True))
            times.append(est.total_s)
        assert times[0] > times[1] > times[2] >= times[3] * 0.8
        assert 1.0 < times[0] < 2.6   # paper: 1.80s
        assert 0.3 < times[3] < 0.9   # paper: 0.65s

    def test_scalefold_beats_fastfold_and_openfold(self):
        """Fig 7 on A100: ScaleFold DAP-2 < FastFold 2.49s < OpenFold 6.19s."""
        est = estimate_step_time(Scenario(
            policy=KernelPolicy.scalefold(checkpointing=True), gpu="A100",
            dap_n=2, cuda_graphs=True, gc_disabled=True, torch_compile=True,
            nonblocking_pipeline=True))
        assert est.total_s < 2.49

    def test_nonblocking_pipeline_reduces_stalls(self):
        blocking = estimate_step_time(Scenario(
            policy=KernelPolicy.reference(), gpu="A100",
            nonblocking_pipeline=False))
        nonblocking = estimate_step_time(Scenario(
            policy=KernelPolicy.reference(), gpu="A100",
            nonblocking_pipeline=True))
        assert nonblocking.stall.probability <= blocking.stall.probability

    def test_imbalance_disabled(self):
        est = estimate_step_time(Scenario(policy=KernelPolicy.reference(),
                                          gpu="A100",
                                          imbalance_enabled=False))
        assert est.imbalance_s == 0.0


class TestBarriers:
    def test_gap_decomposition(self):
        bb = barrier_breakdown(Scenario(policy=KernelPolicy.reference(),
                                        gpu="A100", dap_n=4))
        assert bb.actual_s > bb.ideal_s
        assert bb.gap_s > 0
        for value in bb.shares().values():
            assert value >= 0

    def test_imbalance_grows_in_share_of_step(self):
        """Fig 3: imbalanced communication becomes increasingly substantial
        at DAP-4/8."""
        base = estimate_step_time(Scenario(policy=KernelPolicy.reference(),
                                           gpu="A100", dap_n=1))
        fractions = {}
        for n in (2, 8):
            bb = barrier_breakdown(Scenario(policy=KernelPolicy.reference(),
                                            gpu="A100", dap_n=n),
                                   base_estimate=base)
            fractions[n] = bb.imbalanced_comm_s / bb.actual_s
        assert fractions[8] > fractions[2]

    def test_comm_overhead_grows_with_dap(self):
        base = estimate_step_time(Scenario(policy=KernelPolicy.reference(),
                                           gpu="A100", dap_n=1))
        b2 = barrier_breakdown(Scenario(policy=KernelPolicy.reference(),
                                        gpu="A100", dap_n=2), base)
        b8 = barrier_breakdown(Scenario(policy=KernelPolicy.reference(),
                                        gpu="A100", dap_n=8), base)
        assert b8.comm_overhead_s > b2.comm_overhead_s

    @pytest.mark.parametrize(
        "scenario",
        preset_scenarios("alphafold") + preset_scenarios("transformer"),
        ids=lambda s: f"{s.workload}-{s.preset}")
    def test_preset_prices_its_own_collectives(self, scenario, monkeypatch):
        """A reduced preset's partition carries the bundles of its own
        config (one COMM record each), not those of the full model."""
        partition = scaling.partition_step
        partitions = []

        def spy(*args, **kwargs):
            partitions.append(partition(*args, **kwargs))
            return partitions[-1]

        monkeypatch.setattr(scaling, "partition_step", spy)
        clear_partition_cache()
        # The event engine never reads the memo, so the estimate partitions.
        estimate_step_time(scenario, engine="event")
        wl, policy = get_workload(scenario.workload), scenario.policy
        bundles = wl.dap_comm_bundles(
            wl.preset(scenario.preset, policy), scenario.dap_n,
            policy.dtype.itemsize, policy.activation_checkpointing)
        assert len(partitions) == 1 and bundles
        comm = [r for r in partitions[0].records
                if r.category is KernelCategory.COMM]
        assert len(comm) == len(bundles)


class TestLadder:
    def test_ten_stages(self):
        ladder = optimization_ladder()
        assert len(ladder) == len(LADDER_LABELS) == 10

    def test_first_stage_is_reference(self):
        first = optimization_ladder()[0]
        assert first.policy == KernelPolicy.reference()
        assert not first.cuda_graphs

    def test_last_stage_is_everything(self):
        last = optimization_ladder()[-1]
        assert last.policy.fused_mha and last.policy.fused_layernorm
        assert last.torch_compile and last.gc_disabled
        assert last.dap_n == 8
        assert not last.policy.activation_checkpointing
