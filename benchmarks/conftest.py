"""Benchmark-suite fixtures.

Each benchmark regenerates one of the paper's tables/figures and asserts its
qualitative shape (who wins, roughly by how much).  Expensive simulations run
once (``benchmark.pedantic(rounds=1)``); numeric kernel microbenches run with
normal statistics.
"""

import pytest

from repro.framework import seed
from repro.framework.trace_io import CACHE_DIR_ENV, reset_default_store


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
    seed(0)
    yield


def run_once(benchmark, fn):
    """Benchmark an expensive simulation exactly once and return its value."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
