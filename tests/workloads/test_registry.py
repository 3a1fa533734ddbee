"""Workload registry: round-trips, error paths, and protocol surface."""

from __future__ import annotations

import pytest

from repro.model.config import KernelPolicy
from repro.workloads import (DEFAULT_WORKLOAD, AlphaFoldWorkload,
                             TransformerWorkload, Workload, get_workload,
                             list_workloads, register_workload,
                             unregister_workload)


def test_default_workload_is_alphafold():
    assert DEFAULT_WORKLOAD == "alphafold"
    assert isinstance(get_workload(DEFAULT_WORKLOAD), AlphaFoldWorkload)


def test_builtin_workloads_registered():
    names = list_workloads()
    assert "alphafold" in names
    assert "transformer" in names
    assert names == sorted(names)


def test_get_workload_round_trip():
    for name in list_workloads():
        wl = get_workload(name)
        assert wl.name == name
        # Resolving an instance is idempotent (same object back).
        assert get_workload(wl) is wl
    assert isinstance(get_workload("transformer"), TransformerWorkload)


def test_get_workload_unknown_name():
    with pytest.raises(ValueError, match="alphafold"):
        get_workload("does-not-exist")


def test_register_duplicate_rejected():
    with pytest.raises(ValueError, match="duplicate workload"):
        register_workload(AlphaFoldWorkload())


def test_register_and_unregister_custom():
    class Custom(AlphaFoldWorkload):
        name = "custom-for-test"

    register_workload(Custom())
    try:
        assert "custom-for-test" in list_workloads()
        assert isinstance(get_workload("custom-for-test"), Custom)
    finally:
        unregister_workload("custom-for-test")
    assert "custom-for-test" not in list_workloads()
    # Unregistering a missing name is a no-op, not an error.
    unregister_workload("custom-for-test")


def test_register_empty_name_rejected():
    class Nameless(AlphaFoldWorkload):
        name = ""

    with pytest.raises(ValueError):
        register_workload(Nameless())


@pytest.mark.parametrize("name", ["alphafold", "transformer"])
def test_protocol_surface(name):
    wl = get_workload(name)
    assert isinstance(wl, Workload)
    cfg = wl.preset("tiny")
    assert isinstance(wl.config_fingerprint(cfg), tuple)
    model = wl.convergence()
    assert 0.0 < model.lddt_max <= 1.0
    assert wl.checkpoint_params > 0
    assert wl.mlperf_batch_size > 0
    series = wl.prep_time_series(seed=3, n=16)
    assert len(series) == 16 and (series > 0).all()
    kwargs = wl.bench_scenario_kwargs("H100")
    assert kwargs["gpu"] == "H100" and kwargs["dap_n"] >= 1


@pytest.mark.parametrize("name", ["alphafold", "transformer"])
def test_bench_scenario_kwargs_are_pinned(name):
    """The 64-rank bench scenario (DAP-8 x DP-8, every optimization on):
    the benchmark children and the goldens build on exactly these keys."""
    assert get_workload(name).bench_scenario_kwargs("H100") == dict(
        policy=KernelPolicy.scalefold(checkpointing=False), gpu="H100",
        dap_n=8, dp_degree=8, cuda_graphs=True, gc_disabled=True,
        torch_compile=True, nonblocking_pipeline=True)


@pytest.mark.parametrize("name", ["alphafold", "transformer"])
def test_config_fingerprint_distinguishes_presets(name):
    wl = get_workload(name)
    assert (wl.config_fingerprint(wl.preset("tiny"))
            != wl.config_fingerprint(wl.preset("small")))
