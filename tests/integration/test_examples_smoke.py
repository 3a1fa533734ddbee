"""Smoke-run the cheap example scripts — examples must never rot.

``quickstart.py`` drives the ``ScaleFold`` facade the README shows; it runs
in about 10 s from an empty store.  (The other cluster-scale examples —
scaling_analysis, mlperf, pretrain — are exercised through the same library
calls by the benchmark suite; running them here too would double their
simulations.)
"""

import os
import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"
SRC_DIR = EXAMPLES_DIR.parent / "src"

FAST_EXAMPLES = [
    "quickstart.py",
    "kernel_fusion_demo.py",
    "numeric_dap.py",
    "memory_analysis.py",
    "predict_structure.py",
    "trace_export.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs_clean(script, tmp_path):
    path = EXAMPLES_DIR / script
    assert path.exists(), f"example missing: {script}"
    args = [sys.executable, str(path)]
    if script == "predict_structure.py":
        args.append(str(tmp_path / "out.pdb"))
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p)
    result = subprocess.run(args, capture_output=True, text=True,
                            timeout=300, cwd=str(tmp_path), env=env)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "example produced no output"


def test_all_examples_exist():
    expected = {"quickstart.py", "kernel_fusion_demo.py",
                "nonblocking_dataloader.py", "numeric_dap.py",
                "scaling_analysis.py", "mlperf_benchmark.py",
                "pretrain_from_scratch.py", "memory_analysis.py",
                "predict_structure.py", "trace_export.py"}
    present = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert expected <= present, expected - present
