"""Processes sharing one ``$REPRO_CACHE_DIR``: the disk store under real
cross-process races, with a truncated entry planted at a shared key."""

import json
import os
import pathlib
import subprocess
import sys

import repro
from repro.framework.trace_io import (CACHE_DIR_ENV, CACHE_DISABLE_ENV,
                                      TraceCacheStore, reset_default_store)
from repro.perf.scaling import Scenario, estimate_step_time
from repro.perf.trace_builder import (build_step_trace, trace_key,
                                      trace_store_material)
from repro.workloads import get_workload

#: Tiny-preset scenarios per child: two children share the ScaleFold bench
#: system of both workloads, the third estimates reference DAP-2 ones.
SPECS = {
    "shared": [{"system": "scalefold", "workload": w, "dp_degree": 8}
               for w in ("alphafold", "transformer")],
    "own": [{"system": "reference", "workload": w, "dap_n": 2}
            for w in ("alphafold", "transformer")],
}

CHILD = """
import json, sys
from repro.perf.scaling import Scenario, estimate_step_time
out = []
for spec in json.loads(sys.argv[1]):
    make = Scenario.scalefold if spec.pop("system") == "scalefold" else Scenario
    out.append(estimate_step_time(make(preset="tiny", **spec)).as_dict())
print(json.dumps(out))
"""


def _scenario(spec) -> Scenario:
    spec = dict(spec)
    make = (Scenario.scalefold if spec.pop("system") == "scalefold"
            else Scenario)
    return make(preset="tiny", **spec)


def _trace_material(scenario: Scenario) -> str:
    wl = get_workload(scenario.workload)
    cfg = wl.preset(scenario.preset, scenario.policy)
    return trace_store_material(trace_key(
        scenario.policy, n_recycle=scenario.n_recycle, cfg=cfg, workload=wl))


def test_processes_share_one_cold_store(tmp_path, monkeypatch):
    """Three processes on one empty store (two on the same keys) all exit 0
    and estimate exactly what this process estimates with no store; the
    truncated entry is dropped and rebuilt."""
    monkeypatch.setenv(CACHE_DISABLE_ENV, "0")
    reset_default_store()
    try:
        expected = {mode: [estimate_step_time(_scenario(s)).as_dict()
                           for s in specs]
                    for mode, specs in SPECS.items()}
        planted = _scenario(SPECS["shared"][0])
        step = build_step_trace(
            planted.policy, n_recycle=planted.n_recycle,
            cfg=get_workload(planted.workload).preset(planted.preset,
                                                      planted.policy),
            workload=planted.workload)
    finally:
        reset_default_store()

    root = str(tmp_path / "cache")
    store = TraceCacheStore(root=root, enabled=True)
    material = _trace_material(planted)
    path = store.put_trace(material, step.trace)
    with open(path, "rb") as handle:
        entry = handle.read()
    with open(path, "wb") as handle:
        handle.write(entry[:len(entry) // 2])

    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env[CACHE_DIR_ENV] = root
    env.pop(CACHE_DISABLE_ENV, None)
    modes = ("shared", "shared", "own")
    children = [subprocess.Popen(
        [sys.executable, "-c", CHILD, json.dumps(SPECS[mode])], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for mode in modes]
    for mode, child in zip(modes, children):
        out, err = child.communicate(timeout=300)
        assert child.returncode == 0, err
        assert "Traceback" not in err
        assert json.loads(out) == expected[mode]

    loaded = store.get_trace(material)
    assert loaded is not None
    assert len(loaded[0].records) == len(step.trace.records)
