"""Transformer workload: numeric execution, tracing, sharding, lint and
fast-vs-event parity through the exact machinery AlphaFold uses."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.rules import RuleConfig
from repro.analysis.runner import lint_trace_for
from repro.hardware import CostModel
from repro.hardware.gpu import get_gpu
from repro.model.config import KernelPolicy
from repro.perf.scaling import Scenario, estimate_step_time
from repro.perf.step_time import simulate_step
from repro.perf.time_to_train import mlperf_time_to_train
from repro.perf.trace_builder import build_step_trace, trace_key
from repro.workloads import (TransformerConfig, TransformerLoss,
                             get_workload, make_token_batch)

from ..perf.knob_cells import cell_id, knob_cell_scenarios, preset_scenarios


@pytest.fixture(scope="module")
def small_step():
    policy = KernelPolicy.reference()
    cfg = TransformerConfig.small(policy)
    return build_step_trace(policy=policy, cfg=cfg, workload="transformer")


# ----------------------------------------------------------------------
# Numeric execution (tiny config, real numbers end to end)
# ----------------------------------------------------------------------
def test_tiny_numeric_forward_backward():
    wl = get_workload("transformer")
    cfg = TransformerConfig.tiny()
    model, loss_fn = wl.build(cfg)
    assert isinstance(loss_fn, TransformerLoss)
    batch = make_token_batch(cfg, seed=0)
    loss = wl.call(model, loss_fn, batch)
    # final-init LM head => uniform logits => exactly log(vocab) at init.
    assert np.isclose(float(loss.data), np.log(cfg.vocab_size))
    loss.backward()
    grads = [p.grad for p in model.parameters() if p.grad is not None]
    assert grads, "backward produced no parameter gradients"
    assert any(np.abs(g.data).max() > 0 for g in grads)


# ----------------------------------------------------------------------
# Meta trace: scopes, sharding hints, cache keys
# ----------------------------------------------------------------------
def test_small_trace_scopes_and_workload(small_step):
    assert small_step.workload == "transformer"
    assert small_step.n_kernels > 0
    scopes = {r.scope for r in small_step.trace.records if r.scope}
    assert any(s.startswith("transformer/blocks.0") for s in scopes)
    wl = get_workload("transformer")
    assert any(s.startswith(wl.shardable_scopes) for s in scopes)


def test_cache_keys_cannot_collide_across_workloads():
    policy = KernelPolicy.reference()
    af = trace_key(policy, workload="alphafold")
    tr = trace_key(policy, workload="transformer")
    assert af != tr
    assert "alphafold" in af and "transformer" in tr


def test_tp_bundles_scale_with_degree():
    wl = get_workload("transformer")
    cfg = TransformerConfig.small()
    assert wl.dap_comm_bundles(cfg, 1, 2, False) == []
    bundles = wl.dap_comm_bundles(cfg, 4, 2, False)
    # One forward + one backward bundle per block, two all-reduces each.
    assert len(bundles) == 2 * cfg.n_layers
    assert all(len(b.events) == 2 for b in bundles)
    ckpt = wl.dap_comm_bundles(cfg, 4, 2, True)
    assert len(ckpt) == 3 * cfg.n_layers  # recompute replays forward comms


# ----------------------------------------------------------------------
# Fast vs event engine parity (the bit-identity contract)
# ----------------------------------------------------------------------
def test_step_sim_fast_event_parity(small_step):
    gpu = get_gpu("A100")
    cost = CostModel(gpu, autotune=True)
    records = list(small_step.trace.records)
    event = simulate_step(records, gpu, cost, engine="event")
    fast = simulate_step(records, gpu, cost, engine="fast")
    assert event == fast


@pytest.mark.parametrize(
    "scenario",
    knob_cell_scenarios("transformer") + preset_scenarios("transformer"),
    ids=cell_id)
def test_knob_cells_fast_event_parity(scenario):
    fast = estimate_step_time(scenario)
    event = estimate_step_time(scenario, engine="event")
    assert fast.as_dict() == event.as_dict()


def test_multirank_estimate_fast_event_parity():
    scenario = Scenario(policy=KernelPolicy.scalefold(checkpointing=False),
                        gpu="H100", dap_n=2, dp_degree=2,
                        workload="transformer")
    event = estimate_step_time(scenario, engine="event")
    fast = estimate_step_time(scenario, engine="fast")
    assert event == fast
    assert fast.total_s > 0
    assert fast.dap_comm_s > 0  # the TP all-reduces are in the estimate
    assert "transformer" in scenario.label()


# ----------------------------------------------------------------------
# Trace lint: the per-workload TL004 budget rides through RuleConfig
# ----------------------------------------------------------------------
def test_trace_lint_uses_workload_budget():
    findings = lint_trace_for(config_name="small", workload="transformer")
    assert not any(f.rule_id == "TL004" for f in findings)


def test_trace_lint_user_params_override_workload():
    tight = RuleConfig(params={"total_budget": 10})
    findings = lint_trace_for(config_name="small", workload="transformer",
                              rule_config=tight)
    assert any(f.rule_id == "TL004" for f in findings)


# ----------------------------------------------------------------------
# Convergence + time-to-train
# ----------------------------------------------------------------------
def test_convergence_model_shape():
    model = get_workload("transformer").convergence()
    assert model.metric_name == "token_accuracy"
    assert model.max_batch_size == 2048
    # Within the cap the asymptote holds; far beyond it, quality degrades.
    assert model.asymptote(512) > model.asymptote(8192)


def test_mlperf_time_to_train_transformer():
    result = mlperf_time_to_train(scalefold=True, async_eval=True,
                                  n_gpus=64, workload="transformer")
    assert result.total_seconds > 0
    assert result.phases[0].batch_size == 512
    assert "transformer" in result.label
