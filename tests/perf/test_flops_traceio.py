"""Analytic-vs-traced FLOP cross-check and the store's trace entries."""

import dataclasses
import os

import numpy as np
import pytest

from repro.framework import Tensor, no_grad, trace
from repro.framework.trace_io import TraceCacheStore, _encode_trace
from repro.framework.tracer import KernelRecord
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


FIELDS = [f.name for f in dataclasses.fields(KernelRecord)]


def _rows(records):
    """Every field of each record, with its type, floats by their bits."""
    return [tuple((type(v), v.hex() if isinstance(v, float) else v)
                  for v in (getattr(r, f) for f in FIELDS))
            for r in records]


def _bench_trace(workload):
    """The workload's full-size bench trace, built (no cache read)."""
    from repro.perf.trace_builder import build_step_trace
    from repro.workloads import get_workload

    wl = get_workload(workload)
    policy = wl.bench_scenario_kwargs()["policy"]
    return build_step_trace(policy, cfg=wl.preset("full", policy),
                            use_cache=False, workload=wl).trace


@pytest.fixture
def store(tmp_path):
    return TraceCacheStore(root=str(tmp_path / "store"), enabled=True)


class TestTraceIO:
    def _sample_trace(self):
        from repro.framework import ops

        with trace("roundtrip") as t:
            a = Tensor(np.ones((4, 4), np.float32))
            ops.matmul(a, a)
            ops.softmax(a)
            ops.matmul(a, a)
        t.records.append(dataclasses.replace(
            t.records[0], tags={"collective": "all_gather", "n": 2}))
        return t

    def _roundtrip(self, store, t, meta=None):
        """``t`` put and got back: its fields exactly, one record object
        per distinct row."""
        key = f"trace-{store.stats()['writes']}"
        store.put_trace(key, t, meta=meta)
        loaded, loaded_meta = store.get_trace(key)
        assert loaded.name == t.name
        assert loaded_meta == meta
        rows = _rows(loaded.records)
        assert rows == _rows(t.records)
        assert len({id(r) for r in loaded.records}) \
            == len({repr(row) for row in rows})
        return loaded

    def test_file_roundtrip(self, store):
        t = self._sample_trace()
        loaded = self._roundtrip(store, t, meta={"kind": "x", "n": [1, 2]})
        assert [name for name, _ in store.entries()] \
            == [os.path.basename(store.path("trace-0"))]
        assert loaded.records[0] is loaded.records[2]
        assert loaded.records[3].tags == {"collective": "all_gather", "n": 2}

    @pytest.mark.parametrize("workload", ["alphafold", "transformer"])
    def test_bench_trace_roundtrip(self, store, workload):
        """The golden and transformer bench traces, built and then loaded,
        come back field for field."""
        loaded = self._roundtrip(store, _bench_trace(workload))
        self._roundtrip(store, loaded, meta={"kind": "step-trace"})

    @pytest.mark.parametrize("workload", ["alphafold", "transformer"])
    def test_built_and_loaded_encode_equally(self, store, workload):
        """A built trace shares fewer objects than its loaded copy, which
        holds one per row; both encode to the same columns."""
        built = _bench_trace(workload)
        store.put_trace("k", built)
        loaded = store.get_trace("k")[0]
        assert len({id(r) for r in loaded.records}) \
            < len({id(r) for r in built.records})
        a, b = _encode_trace(built, None), _encode_trace(loaded, None)
        assert sorted(a) == sorted(b)
        for name in a:
            assert a[name].dtype == b[name].dtype, name
            np.testing.assert_array_equal(a[name], b[name], err_msg=name)

    def test_truncation_detected(self, store):
        path = store.put_trace("k", self._sample_trace())
        with open(path, "rb") as handle:
            blob = handle.read()
        with open(path, "wb") as handle:
            handle.write(blob[:len(blob) // 2])
        assert store.get_trace("k") is None
        assert store.stats()["trace_misses"] == 1
        assert not os.path.exists(path)

    def test_version_check(self, store):
        path = store.put_trace("k", self._sample_trace())
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
        payload["format"] = np.array([2])
        with open(path, "wb") as handle:
            np.savez_compressed(handle, **payload)
        assert store.get_trace("k") is None
        assert store.stats()["trace_misses"] == 1
        assert not os.path.exists(path)

    def test_costs_survive_roundtrip(self, store):
        """A loaded trace must produce identical simulated step times."""
        from repro.hardware import A100, CostModel
        from repro.perf.step_time import simulate_step

        t = self._sample_trace()
        store.put_trace("k", t)
        loaded = store.get_trace("k")[0]
        cm = CostModel(A100, autotune=False)
        a = simulate_step(t, A100, cm).total_s
        b = simulate_step(loaded, A100, cm).total_s
        assert a == b
