"""Shared fixtures: deterministic seeding and expensive session-scoped
artifacts (paper-scale traces are built once and reused)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.framework import seed
from repro.framework.trace_io import CACHE_DIR_ENV, reset_default_store
from repro.hardware import H100, CostModel
from repro.model.config import AlphaFoldConfig, KernelPolicy


@pytest.fixture(scope="session", autouse=True)
def _session_store(tmp_path_factory):
    """Point the default disk store at a directory of this session, so the
    suite neither reads nor writes the user's store."""
    patch = pytest.MonkeyPatch()
    patch.setenv(CACHE_DIR_ENV, str(tmp_path_factory.mktemp("repro-store")))
    reset_default_store()
    yield
    patch.undo()
    reset_default_store()


@pytest.fixture(autouse=True)
def _reseed():
    """Every test starts from the same framework RNG state."""
    seed(0)
    yield


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def tiny_cfg():
    return AlphaFoldConfig.tiny()


@pytest.fixture
def tiny_fused_cfg():
    return AlphaFoldConfig.tiny(KernelPolicy.scalefold(checkpointing=False))


@pytest.fixture(scope="session")
def reference_step_trace():
    """Full-size reference-policy step trace (built once per session)."""
    from repro.perf.trace_builder import build_step_trace

    return build_step_trace(KernelPolicy.reference(), n_recycle=1)


@pytest.fixture(scope="session")
def scalefold_step_trace():
    """Full-size ScaleFold-policy step trace (built once per session)."""
    from repro.perf.trace_builder import build_step_trace

    return build_step_trace(KernelPolicy.scalefold(checkpointing=True),
                            n_recycle=1)


@pytest.fixture
def h100_cost_model():
    return CostModel(H100, autotune=True)
