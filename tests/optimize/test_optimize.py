"""The scenario optimizer: space, objective, search and gates.

The searches here run over a deliberately small knob space (reference
policy, DAP-1) so every trace comes from the session-warm cache and the
whole module stays fast; the full space is exercised by ``repro optimize
--quick`` in CI.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.framework import dtypes
from repro.optimize import (KNOB_STAGES, Evaluator, FrontierReport, Knob,
                            SearchResult, apply_point, build_report,
                            coordinate_descent, dominates, knob_space,
                            optimize_workload, pareto_frontier, point_key,
                            verify_incremental)
from repro.optimize.objective import EvalRecord
from repro.perf.time_to_train import ScenarioTtt, scenario_time_to_train
from repro.workloads import list_workloads


def _small_space():
    """A 2x2x2 space that never leaves the session-warm reference trace."""
    return (
        Knob("gpu", ("A100", "H100"), KNOB_STAGES["gpu"]),
        Knob("batch", (128, 256), KNOB_STAGES["batch"]),
        Knob("gc_disabled", (False, True), KNOB_STAGES["gc_disabled"]),
    )


def _ttt(seconds: float, dollars: float, feasible: bool = True,
         label: str = "x") -> ScenarioTtt:
    return ScenarioTtt(
        scenario_label=label, workload="alphafold", batch_size=128,
        world_size=128, step_seconds=1.0, steps=100.0, feasible=feasible,
        init_seconds=0.0, train_seconds=seconds,
        checkpoint_every_steps=100, checkpoint_write_s=1.0,
        expected_total_seconds=seconds, gpu_hours=dollars / 2.0,
        dollar_cost=dollars)


def _record(seconds: float, dollars: float, feasible: bool = True,
            tag: int = 0) -> EvalRecord:
    return EvalRecord(point={"tag": tag}, ttt=_ttt(seconds, dollars,
                                                   feasible))


class TestSpace:
    def test_every_space_knob_has_a_declared_stage(self):
        for workload in list_workloads():
            for quick in (False, True):
                for knob in knob_space(workload, quick=quick):
                    assert KNOB_STAGES[knob.name] == knob.stage

    def test_point_key_is_order_insensitive(self):
        assert (point_key({"a": 1, "b": True})
                == point_key({"b": True, "a": 1}))
        assert point_key({"a": 1}) != point_key({"a": 1.0})

    def test_apply_point_materializes_the_knobs(self):
        scenario = apply_point(
            {"precision": "bf16", "fusion": True, "dap_n": 8, "gpu": "A100",
             "batch": 64, "cuda_graphs": True, "gc_disabled": True,
             "ddp_bucket_mb": 50.0}, "alphafold")
        assert scenario.policy.dtype is dtypes.bfloat16
        assert scenario.policy.fused_mha and scenario.policy.fused_layernorm
        assert not scenario.policy.activation_checkpointing  # DAP-8 frees it
        assert scenario.dap_n == 8 and scenario.dp_degree == 64
        assert scenario.cuda_graphs and scenario.gc_disabled
        assert scenario.ddp_bucket_mb == 50.0
        assert scenario.gpu == "A100"

    def test_dap_below_8_keeps_activation_checkpointing(self):
        scenario = apply_point({"dap_n": 4}, "alphafold")
        assert scenario.policy.activation_checkpointing

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError):
            Knob("x", (1,), "kernel")


class TestObjective:
    def test_evaluator_memoizes_by_point(self):
        evaluator = Evaluator("alphafold")
        point = {"gpu": "H100", "batch": 128}
        first = evaluator(point)
        second = evaluator(dict(reversed(list(point.items()))))
        assert second is first
        assert evaluator.n_calls == 2 and evaluator.n_unique == 1
        assert evaluator.visited == [first]

    def test_over_cap_batch_is_infeasible(self):
        ttt = scenario_time_to_train(apply_point({"batch": 4096},
                                                 "alphafold"))
        assert not ttt.feasible
        assert math.isinf(ttt.expected_total_seconds)

    def test_dominates(self):
        a, b = _record(10.0, 5.0), _record(12.0, 6.0)
        assert dominates(a, b) and not dominates(b, a)
        assert not dominates(a, _record(10.0, 5.0))  # equal: no strict edge
        assert not dominates(_record(9.0, 7.0), _record(10.0, 5.0))

    def test_frontier_is_nondominated_and_sorted(self):
        records = [_record(10.0, 9.0, tag=0), _record(12.0, 4.0, tag=1),
                   _record(11.0, 8.0, tag=2), _record(13.0, 4.0, tag=3),
                   _record(9.0, 20.0, feasible=False, tag=4)]
        frontier = pareto_frontier(records)
        times = [r.ttt.expected_total_seconds for r in frontier]
        dollars = [r.ttt.dollar_cost for r in frontier]
        assert times == sorted(times)
        assert dollars == sorted(dollars, reverse=True)
        for kept in frontier:
            assert kept.ttt.feasible
            assert not any(dominates(other, kept) for other in records
                           if other is not kept and other.ttt.feasible)
        assert {r.point["tag"] for r in frontier} == {0, 2, 1}

    def test_frontier_collapses_duplicate_objectives(self):
        records = [_record(10.0, 5.0, tag=1), _record(10.0, 5.0, tag=0)]
        frontier = pareto_frontier(records)
        assert len(frontier) == 1
        assert frontier[0].point["tag"] == 0  # smallest canonical key wins

    def test_frontier_report_splits_by_gpu(self):
        evaluator = Evaluator("alphafold")
        for gpu in ("A100", "H100"):
            for batch in (128, 256):
                evaluator({"gpu": gpu, "batch": batch})
        report = FrontierReport.from_records(evaluator.visited)
        assert set(report.by_gpu) == {"A100", "H100"}
        assert report.overall


class TestSearch:
    def test_descent_reaches_an_axis_optimum(self):
        evaluator = Evaluator("alphafold")
        space = _small_space()
        best, rounds = coordinate_descent(
            space, evaluator, {"gpu": "A100", "batch": 128,
                               "gc_disabled": False})
        assert rounds >= 1
        # No single-knob move improves on the fixpoint.
        for knob in space:
            for value in knob.values:
                candidate = dict(best.point)
                candidate[knob.name] = value
                assert not (evaluator(candidate).sort_key()
                            < best.sort_key())

    def test_search_is_deterministic(self):
        kwargs = dict(quick=True, seed=3, space=_small_space())
        first = optimize_workload("alphafold", **kwargs)
        second = optimize_workload("alphafold", **kwargs)
        assert first.as_dict() == second.as_dict()
        assert (json.dumps(build_report([first], True, 3), sort_keys=True)
                == json.dumps(build_report([second], True, 3),
                              sort_keys=True))

    def test_seed_changes_restart_starts_not_validity(self):
        a = optimize_workload("alphafold", quick=True, seed=0,
                              space=_small_space())
        b = optimize_workload("alphafold", quick=True, seed=1,
                              space=_small_space())
        # Both converge to a best point inside the space.
        for result in (a, b):
            assert result.best.ttt.feasible
            assert all(r.ttt is not None for r in result.visited)

    def test_report_excludes_wall_timings(self):
        result = optimize_workload("alphafold", quick=True,
                                   space=_small_space())
        payload = json.dumps(result.as_dict())
        assert "wall" not in payload and "elapsed" not in payload


class TestIncrementalGate:
    def test_every_visited_scenario_matches_cold_resim(self):
        result = optimize_workload("alphafold", quick=True,
                                   space=_small_space())
        checked = verify_incremental(result)
        assert checked["n_checked"] == len(result.visited) > 0
        assert checked["match"] and not checked["mismatches"]

    def test_search_result_shape(self):
        result = optimize_workload("alphafold", quick=True,
                                   space=_small_space())
        assert isinstance(result, SearchResult)
        assert result.n_unique <= result.n_calls
        assert len(result.rounds_per_start) == 1 + result.n_restarts
        assert result.best in result.visited


class TestOptimizeCli:
    @pytest.mark.parametrize("argv, message", [
        (["--restarts", "-1"], "must be a non-negative integer"),
        (["--restarts", "two"], "invalid int value"),
    ])
    def test_invalid_arguments_exit_2(self, argv, message, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit) as exc:
            main(["optimize", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {argv[0]}: {message}" in err
        assert "Traceback" not in err
