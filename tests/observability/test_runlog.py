"""Structured run logging: event schema, JSONL round-trip, simulated
clocks, and the trainer / cluster-simulation integrations."""

import io
import json

import pytest

from repro.datapipe.samples import SyntheticProteinDataset
from repro.model.config import AlphaFoldConfig, KernelPolicy
from repro.observability import RunLogger, read_run_log
from repro.sim.cluster import ClusterSimConfig, run_cluster_simulation
from repro.train.evaluation import EvalConfig
from repro.train.trainer import Trainer


class TestRunLogger:
    def test_event_schema(self):
        logger = RunLogger(clock=lambda: 2.0)
        entry = logger.event("custom", value=7, foo="bar")
        assert entry == {"key": "custom", "value": 7, "time_ms": 2000.0,
                         "metadata": {"foo": "bar"}}

    def test_vocabulary_helpers(self):
        logger = RunLogger(clock=lambda: 0.0)
        logger.run_start(world=8)
        logger.epoch_start(0)
        logger.step(1, loss=0.5)
        logger.evaluation(1, lddt=0.3)
        logger.epoch_stop(0)
        logger.run_stop()
        assert [e["key"] for e in logger.entries] == [
            "run_start", "epoch_start", "step", "eval", "epoch_stop",
            "run_stop"]
        assert logger.find("step")[0]["metadata"]["loss"] == 0.5
        assert logger.find("run_stop")[0]["value"] == "success"

    def test_stream_target_emits_jsonl(self):
        buf = io.StringIO()
        logger = RunLogger(buf, clock=lambda: 1.0)
        logger.step(3, loss=1.25)
        line = buf.getvalue().strip()
        assert json.loads(line)["value"] == 3

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLogger(str(path), clock=lambda: 0.5) as logger:
            logger.run_start()
            logger.step(1, loss=2.0)
        events = list(read_run_log(str(path)))
        assert [e["key"] for e in events] == ["run_start", "step"]
        assert events[1]["time_ms"] == 500.0


class TestClusterIntegration:
    def test_events_carry_simulated_time(self):
        logger = RunLogger(clock=lambda: -1.0)
        config = ClusterSimConfig(step_seconds=2.0, max_steps=30,
                                  target_lddt=0.0, init_seconds=100.0,
                                  eval=EvalConfig(eval_every_steps=10))
        result = run_cluster_simulation(config, run_logger=logger)
        start = logger.find("run_start")[0]
        assert start["time_ms"] == 100.0 * 1000.0  # after init, sim clock
        steps = logger.find("step")
        assert steps[0]["time_ms"] == (100.0 + 2.0) * 1000.0
        assert len(logger.find("eval")) == len(result.evals)
        stop = logger.find("run_stop")[0]
        assert stop["value"] == "success" and result.converged
        # The original clock is restored after the run.
        assert logger.clock() == -1.0

    def test_clock_restored_when_run_fails(self):
        logger = RunLogger(clock=lambda: -1.0)
        config = ClusterSimConfig(step_seconds=1.0, max_steps=5,
                                  eval=EvalConfig(eval_every_steps=0))
        with pytest.raises(ZeroDivisionError):
            run_cluster_simulation(config, run_logger=logger)
        assert logger.clock() == -1.0

    def test_aborted_run_logged(self):
        logger = RunLogger(clock=lambda: 0.0)
        config = ClusterSimConfig(step_seconds=1.0, max_steps=5,
                                  target_lddt=2.0,  # unreachable
                                  eval=EvalConfig(eval_every_steps=100))
        result = run_cluster_simulation(config, run_logger=logger)
        assert not result.converged
        assert logger.find("run_stop")[0]["value"] == "aborted"


class TestTrainerIntegration:
    def test_fit_emits_run_step_eval_events(self):
        cfg = AlphaFoldConfig.tiny(KernelPolicy.reference())
        dataset = SyntheticProteinDataset(cfg, size=2, seed=0)
        logger = RunLogger(clock=lambda: 0.0)
        trainer = Trainer(cfg)
        result = trainer.fit(dataset, steps=1, eval_every=1, eval_samples=1,
                             run_logger=logger)
        keys = [e["key"] for e in logger.entries]
        assert keys == ["run_start", "step", "eval", "run_stop"]
        assert logger.find("step")[0]["metadata"]["loss"] == result.final_loss
        assert "avg_lddt_ca" in logger.find("eval")[0]["metadata"]
