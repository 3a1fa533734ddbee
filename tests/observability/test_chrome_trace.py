"""Chrome-trace export: loadable JSON, per-kernel args, scope nesting,
multi-rank timeline tracks, and cross-rank collective flows."""

import json

import pytest

from repro.framework.tracer import KernelCategory
from repro.model.config import AlphaFoldConfig, KernelPolicy
from repro.observability import (ChromeTrace, kernel_trace_to_chrome,
                                 timeline_to_chrome, write_chrome_trace)
from repro.perf.scaling import Scenario, estimate_step_time
from repro.perf.step_time import _executable
from repro.perf.trace_builder import build_step_trace


@pytest.fixture(scope="module")
def tiny_step():
    policy = KernelPolicy.reference()
    return build_step_trace(policy=policy, cfg=AlphaFoldConfig.tiny(policy))


@pytest.fixture(scope="module")
def exported(tiny_step):
    return kernel_trace_to_chrome(tiny_step.trace, "A100")


class TestChromeTraceBuilder:
    def test_roundtrips_through_json(self, exported, tmp_path):
        path = tmp_path / "trace.json"
        exported.write(str(path))
        loaded = json.loads(path.read_text())
        assert set(loaded) == {"traceEvents", "displayTimeUnit"}
        assert len(loaded["traceEvents"]) == len(exported)
        assert len(exported) > 0

    def test_write_chrome_trace_accepts_plain_dict(self, exported, tmp_path):
        path = tmp_path / "dict.json"
        write_chrome_trace(exported.to_dict(), str(path))
        assert json.loads(path.read_text())["traceEvents"]


class TestKernelExport:
    def test_one_slice_per_executable_kernel(self, tiny_step, exported):
        slices = [e for e in exported.events
                  if e["ph"] == "X" and e["cat"] != "cpu-overhead"]
        executable = [r for r in tiny_step.trace if _executable(r)]
        assert len(slices) == len(executable)

    def test_slices_carry_category_flops_bytes(self, exported):
        for e in exported.events:
            if e["ph"] == "X" and e["cat"] != "cpu-overhead":
                args = e["args"]
                assert args["category"] in {c.value for c in KernelCategory}
                assert args["flops"] >= 0 and args["bytes"] >= 0
                assert "scope" in args and "phase" in args

    def test_scope_nesting_matches_module_tree(self, tiny_step, exported):
        """Replaying each track's B/E frames must put every kernel slice
        exactly under its record's scope path."""
        tracks = {}
        for e in exported.events:
            tracks.setdefault((e["pid"], e.get("tid", 0)), []).append(e)
        checked = 0
        for events in tracks.values():
            stack = []
            for e in events:
                if e["ph"] == "B":
                    stack.append(e["name"])
                elif e["ph"] == "E":
                    stack.pop()
                elif e["ph"] == "X" and e["cat"] != "cpu-overhead":
                    assert "/".join(stack) == e["args"]["scope"]
                    checked += 1
            assert not stack  # every frame closed
        assert checked > 0
        # And the frames we opened cover the real module tree.
        scoped = {e["args"]["scope"] for e in exported.events
                  if e["ph"] == "X" and e["cat"] != "cpu-overhead"}
        expected = {s for s in tiny_step.trace.unique_scopes()
                    if any(_executable(r) for r in tiny_step.trace
                           if r.scope == s)}
        assert scoped == expected

    def test_one_thread_track_per_phase(self, tiny_step, exported):
        thread_names = {e["args"]["name"] for e in exported.events
                        if e["ph"] == "M" and e["name"] == "thread_name"}
        for phase in tiny_step.trace.phases():
            assert phase in thread_names

    def test_slices_are_chronological_per_track(self, exported):
        by_track = {}
        for e in exported.events:
            if e["ph"] == "X" and e["cat"] != "cpu-overhead":
                by_track.setdefault(e["tid"], []).append(e)
        for events in by_track.values():
            starts = [e["ts"] for e in events]
            assert starts == sorted(starts)


class TestTimelineExport:
    @pytest.fixture(scope="class")
    def estimate(self, tiny_step):
        scenario = Scenario(policy=tiny_step.policy, gpu="A100", dap_n=2,
                            dp_degree=2, imbalance_enabled=False)
        return estimate_step_time(scenario, trace=tiny_step, engine="event")

    def test_one_track_per_rank(self, estimate):
        chrome = timeline_to_chrome(estimate.timeline)
        names = {e["args"]["name"] for e in chrome.events
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert {"rank 0", "rank 1"} <= names
        ranks_with_slices = {e["pid"] for e in chrome.events
                             if e["ph"] == "X"}
        assert len(ranks_with_slices) == 2

    def test_collective_flows_link_ranks(self, estimate):
        chrome = timeline_to_chrome(estimate.timeline)
        flows = [e for e in chrome.events if e["ph"] in ("s", "f")]
        assert flows, "multi-rank timeline should emit collective flows"
        by_id = {}
        for e in flows:
            by_id.setdefault(e["id"], set()).add(e["pid"])
        assert any(len(pids) >= 2 for pids in by_id.values())
        finishes = [e for e in flows if e["ph"] == "f"]
        assert all(e.get("bp") == "e" for e in finishes)

    def test_flows_can_be_disabled(self, estimate):
        chrome = timeline_to_chrome(estimate.timeline, flows=False)
        assert not [e for e in chrome.events if e["ph"] in ("s", "f")]

    def test_combined_export(self, tiny_step, estimate, tmp_path):
        builder = kernel_trace_to_chrome(tiny_step.trace, "A100")
        timeline_to_chrome(estimate.timeline, into=builder)
        path = tmp_path / "combined.json"
        builder.write(str(path))
        loaded = json.loads(path.read_text())
        pids = {e["pid"] for e in loaded["traceEvents"]}
        assert {0, 100, 101} <= pids
