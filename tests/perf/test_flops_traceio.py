"""Analytic-vs-traced FLOP cross-check and trace serialization."""

import gzip
import io
import json

import numpy as np
import pytest

from repro.framework import Tensor, no_grad, trace
from repro.framework.trace_io import (dump_trace, load_trace,
                                      trace_from_string, trace_to_string)
from repro.datapipe.samples import SyntheticProteinDataset, make_batch
from repro.model.config import AlphaFoldConfig
from repro.model.evoformer import EvoformerBlock
from repro.perf.flops import (evoformer_block_flops, model_forward_flops,
                              total_forward_flops)


class TestAnalyticVsTraced:
    def test_evoformer_block_flops_match_trace(self):
        """The closed-form block cost must agree with the traced execution
        to within the elementwise-op noise (~15%)."""
        cfg = AlphaFoldConfig.tiny()
        block = EvoformerBlock(cfg)
        block.eval()
        from repro.framework import randn, seed

        seed(0)
        m = randn((cfg.n_seq, cfg.n_res, cfg.c_m))
        z = randn((cfg.n_res, cfg.n_res, cfg.c_z))
        with no_grad():
            with trace() as t:
                block(m, z)
        traced = t.total_flops()
        analytic = sum(evoformer_block_flops(cfg).values())
        assert analytic == pytest.approx(traced, rel=0.18)

    def test_per_submodule_agreement(self):
        cfg = AlphaFoldConfig.tiny()
        block = EvoformerBlock(cfg)
        block.eval()
        from repro.framework import randn, seed

        seed(0)
        m = randn((cfg.n_seq, cfg.n_res, cfg.c_m))
        z = randn((cfg.n_res, cfg.n_res, cfg.c_z))
        with no_grad():
            with trace() as t:
                block(m, z)
        analytic = evoformer_block_flops(cfg)
        for name in ("msa_row_attn", "outer_product_mean", "tri_mul_out"):
            scope_flops = sum(r.flops for r in t.records
                              if f"/{name}" in r.scope)
            assert analytic[name] == pytest.approx(scope_flops, rel=0.25), name

    def test_full_model_forward_flops(self, reference_step_trace):
        """The paper-scale analytic total must agree with the traced
        forward pass (per trunk-pass; the trace has recycling+ckpt passes)."""
        cfg = AlphaFoldConfig.full()
        analytic = total_forward_flops(cfg)
        trunk = reference_step_trace.trace.filter(
            lambda r: r.phase == "forward" and r.scope.startswith(
                ("alphafold/evoformer", "alphafold/extra_msa_stack",
                 "alphafold/template_stack")))
        traced = trunk.total_flops() / 2.0  # two forward passes (recycle=1)
        assert analytic == pytest.approx(traced, rel=0.20)

    def test_evoformer_dominates_analytically(self):
        shares = model_forward_flops(AlphaFoldConfig.full())
        assert shares["evoformer"] > shares["extra_msa_stack"]
        assert shares["evoformer"] > 10 * shares["template_stack"]


class TestTraceIO:
    def _sample_trace(self):
        from repro.framework import ops

        with trace("roundtrip") as t:
            a = Tensor(np.ones((4, 4), np.float32))
            ops.matmul(a, a)
            ops.softmax(a)
        return t

    def test_string_roundtrip(self):
        t = self._sample_trace()
        back = trace_from_string(trace_to_string(t))
        assert back.name == "roundtrip"
        assert len(back) == len(t)
        for orig, loaded in zip(t.records, back.records):
            assert orig.name == loaded.name
            assert orig.category is loaded.category
            assert orig.flops == loaded.flops
            assert orig.shape == loaded.shape

    def test_file_roundtrip(self, tmp_path):
        t = self._sample_trace()
        path = tmp_path / "trace.jsonl"
        dump_trace(t, str(path))
        assert len(load_trace(str(path))) == len(t)

    def test_gzip_roundtrip(self, tmp_path):
        t = self._sample_trace()
        path = tmp_path / "trace.jsonl.gz"
        dump_trace(t, str(path))
        with gzip.open(path, "rt") as handle:
            first = handle.readline()
        assert "version" in first
        assert len(load_trace(str(path))) == len(t)

    def test_truncation_detected(self):
        text = trace_to_string(self._sample_trace())
        lines = text.splitlines()
        truncated = "\n".join(lines[:-1]) + "\n"
        with pytest.raises(ValueError, match="truncated"):
            trace_from_string(truncated)

    def test_version_check(self):
        with pytest.raises(ValueError, match="version"):
            trace_from_string('{"version": 99, "name": "x", "records": 0}\n')

    @pytest.mark.parametrize("workload", ["alphafold", "transformer"])
    def test_dump_matches_the_per_record_serialization(self, workload):
        """``dump_trace`` serializes each record object once; its output
        equals serializing every position, for a built and a loaded bench
        trace (a loaded one shares objects across positions)."""
        from repro.framework.trace_io import _record_to_dict
        from repro.perf.trace_builder import build_step_trace
        from repro.workloads import get_workload

        def per_record(t) -> str:
            rows, row_of, index = [], {}, []
            for record in t.records:
                line = json.dumps(_record_to_dict(record))
                slot = row_of.get(line)
                if slot is None:
                    slot = row_of[line] = len(rows)
                    rows.append(line)
                index.append(slot)
            header = {"version": 2, "name": t.name,
                      "records": len(t.records), "rows": len(rows)}
            lines = [json.dumps(header)] + rows + [json.dumps(index)]
            return "".join(line + "\n" for line in lines)

        wl = get_workload(workload)
        policy = wl.bench_scenario_kwargs()["policy"]
        step = build_step_trace(policy, cfg=wl.preset("full", policy),
                                workload=wl)
        text = trace_to_string(step.trace)
        assert text == per_record(step.trace)
        loaded = trace_from_string(text)
        assert trace_to_string(loaded) == per_record(loaded) == text

    def test_costs_survive_roundtrip(self, tmp_path):
        """A loaded trace must produce identical simulated step times."""
        from repro.hardware import A100, CostModel
        from repro.perf.step_time import simulate_step

        t = self._sample_trace()
        path = tmp_path / "t.jsonl"
        dump_trace(t, str(path))
        loaded = load_trace(str(path))
        cm = CostModel(A100, autotune=False)
        a = simulate_step(t, A100, cm).total_s
        b = simulate_step(loaded, A100, cm).total_s
        assert a == b
