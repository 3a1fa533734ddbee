"""Templated trace build vs full-depth meta-execution (the oracle).

``build_step_trace`` meta-executes each block stack at
``TEMPLATE_DEPTH`` blocks and extends it to full depth.  Every case here
must give exactly the records (every field, in order), parameter count and
parameter shapes of meta-executing the whole model, without taking the
full-depth fallback.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.framework import dtypes
from repro.framework.tracer import KernelCategory, KernelRecord, phase, trace
from repro.model.config import KernelPolicy
from repro.perf import trace_builder
from repro.perf.trace_builder import build_step_trace, meta_execute
from repro.perf.trace_template import TEMPLATE_DEPTH, extend_stack
from repro.train.optimizer import emit_update_trace
from repro.workloads import get_workload

GOLDEN = KernelPolicy.scalefold(checkpointing=False)
UNFUSED_NO_CKPT = KernelPolicy(dtype=dtypes.bfloat16,
                               activation_checkpointing=False)
REFERENCE = KernelPolicy.reference()
CUSTOM_DEPTHS = {"alphafold": dict(evoformer_blocks=9, extra_msa_blocks=6,
                                   template_blocks=5),
                 "transformer": dict(n_layers=7)}

FIELDS = [f.name for f in dataclasses.fields(KernelRecord)]


def rows(records):
    return [tuple(getattr(r, f) for f in FIELDS) for r in records]


_ORACLE = {}


def full_depth(workload, cfg, n_recycle):
    """Records, parameter count and shapes of the full-depth execution."""
    key = (workload, repr(cfg), n_recycle)
    if key not in _ORACLE:
        t, model = meta_execute(get_workload(workload), cfg, n_recycle)
        _ORACLE[key] = (rows(t.records), model.num_parameters(),
                        [p.shape for p in model.parameters()])
    return _ORACLE[key]


def templated(monkeypatch, workload, cfg, n_recycle, include_optimizer):
    """An uncached build; fails the test if it falls back to full depth."""
    calls = []

    def spy(wl, c, n):
        calls.append(c)
        return meta_execute(wl, c, n)

    monkeypatch.setattr(trace_builder, "meta_execute", spy)
    step = build_step_trace(cfg.kernel_policy, n_recycle=n_recycle,
                            include_optimizer=include_optimizer, cfg=cfg,
                            use_cache=False, workload=workload)
    assert len(calls) == 1, "took the full-depth fallback"
    wl = get_workload(workload)
    assert all(getattr(calls[0], field) <= TEMPLATE_DEPTH
               for _, field in wl.block_stacks)
    return step


CASES = [
    ("alphafold", "full", GOLDEN, 1, True, {}),
    ("alphafold", "full", UNFUSED_NO_CKPT, 1, True, {}),
    ("alphafold", "full", REFERENCE, 1, True, {}),
    ("alphafold", "full", GOLDEN, 0, True, {}),
    ("alphafold", "full", GOLDEN, 3, True, {}),
    ("alphafold", "full", GOLDEN, 1, False, {}),
    ("transformer", "full", REFERENCE, 1, True, {}),
    ("transformer", "full", GOLDEN, 1, True, {}),
] + [(w, preset, REFERENCE, 1, True, CUSTOM_DEPTHS[w])
     for w in ("alphafold", "transformer") for preset in ("small", "full")]


@pytest.mark.parametrize(
    "workload,preset,policy,n_recycle,include_optimizer,depths", CASES,
    ids=["golden", "unfused-no-ckpt", "reference", "golden-recycle0",
         "golden-recycle3", "golden-no-optimizer", "transformer-reference",
         "transformer-scalefold", "alphafold-small-custom",
         "alphafold-full-custom", "transformer-small-custom",
         "transformer-full-custom"])
def test_templated_build_matches_full_depth(monkeypatch, workload, preset,
                                            policy, n_recycle,
                                            include_optimizer, depths):
    cfg = get_workload(workload).preset(preset, policy).replace(**depths)
    step = templated(monkeypatch, workload, cfg, n_recycle, include_optimizer)
    want, n_params, shapes = full_depth(workload, cfg, n_recycle)
    if include_optimizer:
        with trace("update") as update, phase("update"):
            emit_update_trace(shapes, fused=policy.fused_adam_swa,
                              bucketed_clip=policy.bucketed_clip)
        want = want + rows(update.records)
    assert step.n_params == n_params
    assert step.param_shapes == shapes
    assert step.trace.name == "step"
    got = rows(step.trace.records)
    assert len(got) == len(want)
    assert got == want


@pytest.mark.parametrize("workload", ["alphafold", "transformer"])
def test_declared_stacks_have_config_depth(workload):
    wl = get_workload(workload)
    cfg = wl.full_config(GOLDEN)
    records, _, _ = full_depth(workload, cfg, 1)
    scope = FIELDS.index("scope")
    assert wl.block_stacks
    for prefix, field in wl.block_stacks:
        head = prefix + "."
        blocks = {r[scope][len(head):].split("/")[0] for r in records
                  if r[scope].startswith(head)}
        assert blocks == {str(i) for i in range(getattr(cfg, field))}, prefix


def _records(scopes):
    return [KernelRecord(name="k", category=KernelCategory.MEMORY, flops=1.0,
                         bytes=4.0, shape=(1,), dtype="fp32", scope=scope,
                         fused=False, phase="forward", tunable=None, tags=None)
            for scope in scopes]


def _stack(blocks, per_block=("a", "b")):
    return [f"s/blocks.{b}/{part}" for b in blocks for part in per_block]


class TestExtendStack:
    def test_forward_and_backward_passes_extend(self):
        reduced = _records(_stack(range(4)) + [""] + _stack((3, 2, 1, 0)))
        full = _records(_stack(range(7)) + [""] + _stack(range(6, -1, -1)))
        assert rows(extend_stack(reduced, "s/blocks", 7)) == rows(full)

    def test_jump_into_an_interior_block_falls_back(self):
        reduced = _records(_stack(range(4)) + ["other"] + _stack((1, 2, 3)))
        assert extend_stack(reduced, "s/blocks", 7) is None

    def test_no_repeating_run_falls_back(self):
        scopes = [f"s/blocks.{b}/part{b}" for b in range(4)]
        assert extend_stack(_records(scopes), "s/blocks", 7) is None

    def test_unequal_interior_blocks_fall_back(self):
        # The forward repeats, but a second pass stops at block 1, so block
        # 1 would end with more records than the other interior blocks.
        reduced = _records(_stack(range(4)) + ["x"] + _stack((0, 1)))
        assert extend_stack(reduced, "s/blocks", 7) is None
