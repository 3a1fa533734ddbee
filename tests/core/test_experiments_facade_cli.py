"""Experiment registry, the ScaleFold facade, the optimization registry,
and the CLI."""

import numpy as np
import pytest

from repro import AlphaFoldConfig, KernelPolicy, ScaleFold
from repro.cli import main
from repro.core.experiments import (EXPERIMENTS, ExperimentResult,
                                    run_experiment)
from repro.core.optimizations import OPTIMIZATIONS, by_key, format_table
from repro.observability.runlog import RunLogger
from repro.perf.time_to_train import mlperf_time_to_train
from repro.perf.trace_builder import build_step_trace


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        """DESIGN.md's experiment index: every table/figure has an entry."""
        for experiment_id in ("table1", "key_ops", "fig3", "dap_baseline",
                              "fig4", "fig5", "fig7", "fig8", "fig9",
                              "fig10", "fig11"):
            assert experiment_id in EXPERIMENTS

    def test_unknown_id_raises(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiment("fig99")

    def test_fig4_rows(self):
        result = run_experiment("fig4")
        assert isinstance(result, ExperimentResult)
        times = [r["prep_seconds"] for r in result.rows]
        assert times == sorted(times)
        assert "10%" in result.notes or "%" in result.notes

    def test_fig5_matches_paper_story(self):
        result = run_experiment("fig5")
        by_pipeline = {r["pipeline"]: r for r in result.rows}
        blocking = by_pipeline["blocking (PyTorch)"]
        nonblocking = by_pipeline["non-blocking (ScaleFold)"]
        assert blocking["delivery_order"] == "abcdef"
        assert nonblocking["delivery_order"].startswith("ac")
        assert nonblocking["total_s"] < blocking["total_s"]

    def test_format_renders(self):
        result = run_experiment("fig5")
        text = result.format()
        assert "fig5" in text and "non-blocking" in text


class TestOptimizationsTable:
    def test_all_paper_optimizations_present(self):
        keys = set(by_key())
        for expected in ("dap", "nonblocking_pipeline", "cuda_graphs",
                         "fused_mha", "fused_layernorm", "fused_adam_swa",
                         "bucketed_clip", "batched_gemm", "autotune",
                         "torch_compile", "bf16", "gc_disable", "async_eval",
                         "no_checkpointing"):
            assert expected in keys, expected

    def test_entries_point_to_real_modules(self):
        """Each entry's whole dotted name resolves: its longest importable
        prefix is a module and every later part is an attribute of the
        one before (a class, a function or a method)."""
        import importlib

        for opt in OPTIMIZATIONS:
            parts = opt.module.split("(")[0].split(".")
            for cut in range(len(parts), 0, -1):
                try:
                    target = importlib.import_module(".".join(parts[:cut]))
                    break
                except ModuleNotFoundError:
                    continue
            else:
                pytest.fail(f"{opt.key}: no importable prefix in "
                            f"{opt.module!r}")
            for name in parts[cut:]:
                assert hasattr(target, name), f"{opt.key}: {opt.module!r}"
                target = getattr(target, name)

    def test_format_table(self):
        text = format_table()
        assert "fused_mha" in text


class TestFacade:
    def test_tiny_train(self):
        sf = ScaleFold.tiny()
        result = sf.train(steps=2, dataset_size=2)
        assert len(result.records) == 2
        assert np.isfinite(result.final_loss)

    def test_full_config_rejects_numeric_training(self):
        sf = ScaleFold.scalefold()
        with pytest.raises(ValueError, match="simulated"):
            sf.train(steps=1)

    def test_profile_and_step_time(self):
        sf = ScaleFold.reference()
        table = sf.profile()
        assert table.total_seconds > 0
        est = sf.step_time()
        assert est.total_s > 0

    def test_presets_differ(self):
        ref = ScaleFold.reference().scenario
        opt = ScaleFold.scalefold().scenario
        assert not ref.policy.fused_mha
        assert opt.policy.fused_mha
        assert opt.dap_n == 8

    def test_tiny_traces_the_tiny_preset(self):
        """``tiny()`` describes the model it trains, not the full-size one."""
        policy = KernelPolicy.reference()
        expected = build_step_trace(policy, cfg=AlphaFoldConfig.tiny(policy))
        step = ScaleFold.tiny().trace()
        assert step.n_params == expected.n_params
        assert list(step.trace.records) == list(expected.trace.records)

    def test_build_model_meta_for_full(self):
        model = ScaleFold.scalefold().build_model()
        assert all(p.is_meta for p in model.parameters())

    def test_build_model_numeric_for_tiny(self):
        model = ScaleFold.tiny().build_model()
        assert not any(p.is_meta for p in model.parameters())

    def test_mlperf_run(self):
        log = RunLogger(clock=lambda: -1.0)
        result = ScaleFold.scalefold().mlperf_run(run_logger=log)
        assert result.total_minutes == mlperf_time_to_train().total_minutes
        assert log.find("status")[0]["value"] == "success"
        assert log.clock() == -1.0


#: (command + output option, the work the command does before writing).
OUTPUT_OPTIONS = [
    (["report", "-o"], "repro.core.report.generate_report"),
    (["trace", "export", "-o"], "repro.cli._build_profile_trace"),
    (["lint", "-o"], "repro.analysis.run_lint"),
    (["lint", "--write-baseline", "--baseline"], "repro.analysis.run_lint"),
    (["bench", "-o"], "repro.perf.bench.run_bench"),
    (["optimize", "-o"], "repro.optimize.optimize_workload"),
    (["optimize", "--bench-out"], "repro.optimize.optimize_workload"),
    (["faults", "-o"], "repro.perf.time_to_train.mlperf_time_to_train"),
    (["faults", "--runlog"],
     "repro.perf.time_to_train.mlperf_time_to_train"),
    (["faults", "--trace"],
     "repro.perf.time_to_train.mlperf_time_to_train"),
    (["serve", "-o"], "repro.serve.run_fleet"),
    (["serve", "--trace"], "repro.serve.run_fleet"),
    (["calibrate", "-o"], "repro.calibrate.run_calibrate"),
    (["calibrate", "--bench-out"], "repro.calibrate.run_calibrate"),
    (["calibrate", "--samples-out"], "repro.calibrate.run_calibrate"),
]


class TestCli:
    def test_list(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out and "table1" in out

    def test_optimizations(self, capsys):
        assert main(["optimizations"]) == 0
        assert "fused_mha" in capsys.readouterr().out

    def test_single_experiment(self, capsys):
        assert main(["fig5"]) == 0
        assert "non-blocking" in capsys.readouterr().out

    def test_unknown(self, capsys):
        assert main(["nope"]) == 2
        captured = capsys.readouterr()
        assert "error: unknown experiment 'nope'" in captured.err
        assert "fig7" in captured.err and not captured.out

    @pytest.mark.parametrize("argv", [
        ["calibrate", "--source", "bogus"],
        ["calibrate", "--source", "synthetic:H100",
         "--samples", "{missing}/samples.json"],
        ["trace", "export", "--config", "tiny", "-o", "{missing}/x.json"],
        ["faults", "--quick", "--no-sim", "--ranks", "64",
         "--step-seconds", "0.5", "-o", "{missing}/x.json"],
        ["trace", "flame", "--config", "tiny", "--min-pct", "nan"],
    ], ids=["bad-source", "missing-samples", "trace-output", "faults-output",
            "nan-min-pct"])
    def test_bad_input_or_output_exits_2(self, argv, tmp_path, capsys):
        """A bad option value or a path into a missing directory exits 2
        with ``error:``, never a traceback."""
        argv = [a.format(missing=tmp_path / "missing") for a in argv]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the value itself
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, work", OUTPUT_OPTIONS, ids=[
        "_".join(a.lstrip("-") for a in argv) for argv, _ in OUTPUT_OPTIONS])
    def test_output_into_missing_directory_fails_before_work(
            self, argv, work, tmp_path, monkeypatch, capsys):
        """Every output option checks its directory while parsing: exit 2
        with ``error: argument ...`` before the command runs."""
        def never(*args, **kwargs):
            raise AssertionError(f"{work} ran before the path was checked")

        monkeypatch.setattr(work, never)
        with pytest.raises(SystemExit) as exc:
            main(argv + [str(tmp_path / "missing" / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument " in err
        assert "must be a path in an existing directory" in err
        assert not (tmp_path / "missing").exists()


class TestTraceCli:
    def test_export(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "export", "--config", "tiny",
                     "-o", "out.json"]) == 0
        assert "wrote" in capsys.readouterr().out
        import json
        loaded = json.loads((tmp_path / "out.json").read_text())
        assert len(loaded["traceEvents"]) > 0

    def test_top(self, capsys):
        assert main(["trace", "top", "--config", "tiny", "-k", "3"]) == 0
        out = capsys.readouterr().out
        assert "Kernel" in out and "% step" in out

    def test_flame(self, capsys):
        assert main(["trace", "flame", "--config", "tiny",
                     "--depth", "1", "--min-pct", "5"]) == 0
        assert "100.00%" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, message", [
        (["--dap", "0", "--dp", "8"], "must be a positive integer"),
        (["--dp", "0"], "must be a positive integer"),
        (["--dap", "-2"], "must be a positive integer"),
        (["--dap", "1.5"], "invalid int value"),
        (["-k", "-3"], "must be a positive integer"),
        (["-k", "0"], "must be a positive integer"),
        (["--depth", "-1"], "must be a non-negative integer"),
    ])
    def test_invalid_arguments_exit_2(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "export", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {argv[0]}: {message}" in err
        assert "Traceback" not in err
