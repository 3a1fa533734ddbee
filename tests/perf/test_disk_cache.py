"""Persistent trace/cost cache: round-trips, key invalidation, env control."""

import dataclasses
import glob
import os
import threading

import numpy as np
import pytest

from repro.framework.trace_io import (CACHE_DIR_ENV, CACHE_DISABLE_ENV,
                                      TRACE_FORMAT_VERSION, TraceCacheStore,
                                      cache_enabled, content_key,
                                      default_cache_dir, default_store,
                                      reset_default_store)
from repro.hardware.gpu import GpuSpec, get_gpu
from repro.hardware.roofline import CostModel
from repro.framework.caching import LruCache
from repro.framework.dtypes import bfloat16
from repro.model.config import AlphaFoldConfig, KernelPolicy
from repro.perf import trace_builder
from repro.perf.trace_builder import (build_step_trace, trace_key,
                                      trace_store_material)
from repro.perf.vector_cost import (cost_cache_material, compute_cost_arrays,
                                    TraceCostArrays)
from repro.workloads import get_workload


@pytest.fixture
def store(tmp_path):
    return TraceCacheStore(root=str(tmp_path / "cache"), enabled=True)


@pytest.fixture
def cache_env(tmp_path, monkeypatch):
    """Point the process-wide default store at a temp dir for one test."""
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    monkeypatch.delenv(CACHE_DISABLE_ENV, raising=False)
    reset_default_store()
    yield str(tmp_path / "cache")
    reset_default_store()


def _tiny_trace():
    policy = KernelPolicy.reference()
    cfg = AlphaFoldConfig.tiny(policy)
    return build_step_trace(policy, cfg=cfg), policy, cfg


class TestStoreRoundTrip:
    def test_trace_roundtrip_with_meta(self, store):
        step, _, _ = _tiny_trace()
        store.put_trace("k1", step.trace, meta={"kind": "step-trace", "n": 3})
        loaded, meta = store.get_trace("k1")
        assert meta == {"kind": "step-trace", "n": 3}
        assert len(loaded.records) == len(step.trace.records)
        assert all(a.name == b.name and a.flops == b.flops
                   for a, b in zip(loaded.records, step.trace.records))
        stats = store.stats()
        assert stats["trace_hits"] == 1 and stats["writes"] == 1

    def test_missing_entry_is_a_counted_miss(self, store):
        assert store.get_trace("nope") is None
        assert store.get_arrays("nope") is None
        stats = store.stats()
        assert stats["trace_misses"] == 1 and stats["array_misses"] == 1

    def test_corrupt_entry_dropped_and_missed(self, store):
        step, _, _ = _tiny_trace()
        path = store.put_trace("k1", step.trace)
        with open(path, "wb") as handle:
            handle.write(b"PK\x03\x04 not a zip archive")
        assert store.get_trace("k1") is None
        assert not os.path.exists(path)

    def test_arrays_roundtrip(self, store):
        cost = CostModel(get_gpu("A100"), autotune=True)
        step, _, _ = _tiny_trace()
        arrays = compute_cost_arrays(list(step.trace.records), cost)
        store.put_arrays("ak", arrays.to_arrays())
        reloaded = TraceCostArrays.from_arrays(store.get_arrays("ak"))
        np.testing.assert_array_equal(reloaded.seconds, arrays.seconds)
        np.testing.assert_array_equal(reloaded.structure.exec_idx,
                                      arrays.structure.exec_idx)
        np.testing.assert_array_equal(reloaded.structure.default_marks,
                                      arrays.structure.default_marks)
        assert reloaded.category_seconds == arrays.category_seconds
        assert reloaded.limiter_seconds == arrays.limiter_seconds

    def test_disabled_store_never_touches_disk(self, tmp_path):
        disabled = TraceCacheStore(root=str(tmp_path / "c"), enabled=False)
        step, _, _ = _tiny_trace()
        assert disabled.put_trace("k", step.trace) is None
        assert disabled.get_trace("k") is None
        assert not os.path.exists(str(tmp_path / "c"))

    def test_clear_and_stats(self, store):
        step, _, _ = _tiny_trace()
        store.put_trace("a", step.trace)
        store.put_trace("b", step.trace)
        stats = store.stats()
        assert stats["entries"] == 2 and stats["bytes"] > 0
        assert store.clear() == 2
        assert store.stats()["entries"] == 0


class TestKeyInvalidation:
    def test_policy_flags_change_the_key(self):
        base = KernelPolicy.reference()
        keys = {trace_key(base)}
        for flag in ("batched_gemm", "fused_mha", "fused_layernorm",
                     "fused_adam_swa", "activation_checkpointing"):
            changed = base.replace(**{flag: not getattr(base, flag)})
            keys.add(trace_key(changed))
        assert len(keys) == 6

    def test_trace_key_covers_every_policy_field(self):
        base = KernelPolicy.reference()
        other = {"dtype": bfloat16}
        for f in dataclasses.fields(KernelPolicy):
            value = getattr(base, f.name)
            if f.name in other:
                changed = other[f.name]
            elif isinstance(value, bool):
                changed = not value
            else:
                raise AssertionError(f"no changed value for KernelPolicy.{f.name}")
            key = trace_key(base.replace(**{f.name: changed}))
            assert key != trace_key(base), f.name

    def test_policy_key_tuple_is_pinned(self):
        # Stored traces are addressed by this tuple: it must not move.
        assert trace_builder._policy_key(KernelPolicy.reference(), 1, True) \
            == (False, False, False, False, False, True, "fp32", 1, True)
        assert trace_builder._policy_key(KernelPolicy.scalefold(), 3, False) \
            == (True, True, True, True, True, False, "bf16", 3, False)

    def test_cfg_fields_change_the_key(self):
        policy = KernelPolicy.reference()
        cfg = AlphaFoldConfig.tiny(policy)
        keys = {trace_key(policy, cfg=cfg)}
        for f in ("evoformer_blocks", "n_res", "c_m"):
            bumped = cfg.replace(**{f: getattr(cfg, f) + 1})
            keys.add(trace_key(policy, cfg=bumped))
        assert len(keys) == 4

    @pytest.mark.parametrize("workload", ["alphafold", "transformer"])
    def test_trace_key_covers_every_config_field(self, workload):
        # The templated build keys its result by the full config alone, so
        # every field but the policy (keyed separately) must reach the key.
        wl = get_workload(workload)
        policy = KernelPolicy.reference()
        cfg = wl.full_config(policy)
        base = trace_key(policy, cfg=cfg, workload=workload)
        for f in dataclasses.fields(cfg):
            value = getattr(cfg, f.name)
            if f.name == "kernel_policy":
                changed = cfg.replace(kernel_policy=KernelPolicy.scalefold())
                assert trace_key(policy, cfg=changed,
                                 workload=workload) == base
                continue
            assert isinstance(value, (int, float)), f.name
            changed = cfg.replace(**{f.name: value + 1})
            assert trace_key(policy, cfg=changed,
                             workload=workload) != base, f.name

    def test_n_recycle_changes_the_key(self):
        policy = KernelPolicy.reference()
        assert trace_key(policy, n_recycle=1) != trace_key(policy, n_recycle=3)

    def test_materials_hash_distinctly(self):
        policy = KernelPolicy.reference()
        m1 = trace_store_material(trace_key(policy))
        m2 = trace_store_material(trace_key(policy.replace(fused_mha=True)))
        assert content_key(m1) != content_key(m2)

    def test_cost_material_covers_gpu_and_autotune(self):
        a100, h100 = get_gpu("A100"), get_gpu("H100")
        materials = {cost_cache_material("t", a100, True),
                     cost_cache_material("t", a100, False),
                     cost_cache_material("t", h100, True),
                     cost_cache_material("t2", a100, True)}
        assert len(materials) == 4

    def test_gpu_spec_field_changes_cost_material(self):
        """Changing any one :class:`GpuSpec` field changes the material."""
        gpu = get_gpu("A100")
        base = cost_cache_material("t", gpu, True)
        for f in dataclasses.fields(GpuSpec):
            value = getattr(gpu, f.name)
            if isinstance(value, str):
                changed = value + "-changed"
            elif isinstance(value, dict):
                changed = {**value, "fp32": value["fp32"] * 2}
            elif isinstance(value, int):
                changed = value + 1
            elif isinstance(value, float):
                changed = value / 2  # stays inside every validated range
            else:
                raise AssertionError(f"no changed value for GpuSpec.{f.name}")
            tweaked = dataclasses.replace(gpu, **{f.name: changed})
            assert cost_cache_material("t", tweaked, True) != base, f.name


@pytest.fixture
def fresh_memo(monkeypatch):
    """Give the trace builder an empty in-memory memo for one test (the
    process-wide one holds session-scoped fixtures other tests rely on)."""
    def reset():
        monkeypatch.setattr(trace_builder, "_CACHE",
                            LruCache(capacity=8, name="step-traces-test"))
    reset()
    return reset


class TestBuilderIntegration:
    def test_trace_persisted_and_reloaded(self, cache_env, fresh_memo):
        policy = KernelPolicy.reference()
        cfg = AlphaFoldConfig.tiny(policy)
        first = build_step_trace(policy, cfg=cfg)
        assert glob.glob(os.path.join(cache_env, "*.npz"))
        fresh_memo()  # drop the in-memory memo: force the disk path
        second = build_step_trace(policy, cfg=cfg)
        assert second is not first
        assert default_store().stats()["trace_hits"] >= 1
        assert second.n_params == first.n_params
        assert second.param_shapes == first.param_shapes
        recs1, recs2 = first.trace.records, second.trace.records
        assert len(recs1) == len(recs2)
        assert all(a.name == b.name and a.flops == b.flops
                   and a.bytes == b.bytes and a.phase == b.phase
                   for a, b in zip(recs1, recs2))

    @pytest.mark.parametrize("damage", ["truncated", "format"])
    def test_rejected_trace_entry_is_a_miss_and_rebuilt(self, cache_env,
                                                        fresh_memo, damage):
        policy = KernelPolicy.reference()
        cfg = AlphaFoldConfig.tiny(policy)
        first = build_step_trace(policy, cfg=cfg)
        path = default_store().path(trace_store_material(
            trace_key(policy, cfg=cfg)))
        if damage == "truncated":
            with open(path, "rb") as handle:
                blob = handle.read()
            with open(path, "wb") as handle:
                handle.write(blob[:len(blob) // 2])
        else:
            with np.load(path) as data:
                payload = {k: data[k] for k in data.files}
            payload["format"] = np.array([TRACE_FORMAT_VERSION + 1])
            with open(path, "wb") as handle:
                np.savez_compressed(handle, **payload)
        fresh_memo()
        misses = default_store().stats()["trace_misses"]
        second = build_step_trace(policy, cfg=cfg)
        assert default_store().stats()["trace_misses"] == misses + 1
        assert second.trace.records == first.trace.records
        with np.load(path) as data:
            assert int(data["format"][0]) == TRACE_FORMAT_VERSION
        fresh_memo()
        assert build_step_trace(policy, cfg=cfg).trace.records \
            == first.trace.records
        assert default_store().stats()["trace_misses"] == misses + 1

    def test_cold_build_stores_only_the_full_config(self, cache_env,
                                                    fresh_memo):
        # The depth-4 execution behind a templated build reaches neither
        # the memo nor the store: one entry, under the full config's key.
        policy = KernelPolicy.reference()
        cfg = get_workload("transformer").preset("small", policy).replace(
            n_layers=7)
        key = trace_key(policy, cfg=cfg, workload="transformer")
        step = build_step_trace(policy, cfg=cfg, workload="transformer")
        assert os.listdir(cache_env) == [os.path.basename(
            default_store().path(trace_store_material(key)))]
        assert len(trace_builder._CACHE) == 1
        assert trace_builder._CACHE.get(key) is step

    def test_kill_switch_disables_the_store(self, tmp_path, monkeypatch,
                                            fresh_memo):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
        monkeypatch.setenv(CACHE_DISABLE_ENV, "0")
        reset_default_store()
        try:
            assert not cache_enabled()
            assert not default_store().enabled
            policy = KernelPolicy.reference()
            build_step_trace(policy, cfg=AlphaFoldConfig.tiny(policy))
            assert not os.path.exists(str(tmp_path / "cache"))
        finally:
            reset_default_store()

    def test_cache_dir_env_respected(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "elsewhere"))
        assert default_cache_dir() == str(tmp_path / "elsewhere")


class TestConcurrentWriters:
    """Same-key racers must publish exactly one entry, uncorrupted."""

    def test_same_key_trace_writers_single_write(self, store):
        step, _, _ = _tiny_trace()
        barrier = threading.Barrier(4)

        def racer():
            barrier.wait()
            for _ in range(3):
                store.put_trace("hot-key", step.trace, meta={"kind": "t"})

        threads = [threading.Thread(target=racer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert store.stats()["writes"] == 1
        assert len(glob.glob(os.path.join(store.root, "*.npz"))) == 1
        loaded, meta = store.get_trace("hot-key")
        assert meta == {"kind": "t"}
        assert len(loaded.records) == len(step.trace.records)

    def test_distinct_keys_still_all_publish(self, store):
        step, _, _ = _tiny_trace()
        barrier = threading.Barrier(3)

        def racer(i):
            barrier.wait()
            store.put_trace(f"key-{i}", step.trace)

        threads = [threading.Thread(target=racer, args=(i,))
                   for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert store.stats()["writes"] == 3
        for i in range(3):
            assert store.get_trace(f"key-{i}") is not None

    def test_same_key_array_writers_single_write(self, store):
        arrays = {"seconds": np.arange(8, dtype=np.float64)}
        barrier = threading.Barrier(4)

        def racer():
            barrier.wait()
            store.put_arrays("hot-arrays", arrays)

        threads = [threading.Thread(target=racer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert store.stats()["writes"] == 1
        loaded = store.get_arrays("hot-arrays")
        np.testing.assert_array_equal(loaded["seconds"], arrays["seconds"])

    def test_stats_snapshot_is_consistent(self, store):
        step, _, _ = _tiny_trace()
        store.put_trace("k", step.trace)
        stats = store.stats()
        assert stats["writes"] == 1
        assert stats["entries"] == 1
