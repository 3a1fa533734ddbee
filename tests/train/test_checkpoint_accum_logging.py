"""Training-state checkpoints, gradient accumulation, step logging."""

import json

import numpy as np
import pytest

from repro.datapipe.samples import SyntheticProteinDataset, make_batch
from repro.framework import Module, make_parameter, seed
from repro.framework import ops
from repro.observability.runlog import RunLogger, read_run_log
from repro.train.checkpointing import (CheckpointMeta, load_checkpoint,
                                       save_checkpoint)
from repro.train.optimizer import AlphaFoldOptimizer, OptimizerConfig
from repro.train.trainer import Trainer


class Toy(Module):
    def __init__(self):
        super().__init__()
        self.w = make_parameter((8,), init="ones")
        self.b = make_parameter((8,), init="zeros")

    def forward(self):
        return ops.mean(ops.square(ops.add(self.w, self.b)))


def _train(model, opt, steps):
    for _ in range(steps):
        model.zero_grad()
        model().backward()
        opt.step()


class TestCheckpointRoundTrip:
    def test_model_and_optimizer_state(self, tmp_path):
        seed(0)
        model = Toy()
        opt = AlphaFoldOptimizer(model, OptimizerConfig(), lr=0.05)
        _train(model, opt, 5)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, model, opt,
                        CheckpointMeta(step=5, samples_seen=640.0, lddt=0.7))

        model2 = Toy()
        opt2 = AlphaFoldOptimizer(model2, OptimizerConfig(), lr=0.05)
        meta = load_checkpoint(path, model2, opt2)
        assert meta.step == 5
        assert meta.samples_seen == 640.0
        assert meta.lddt == 0.7
        assert opt2.step_count == 5
        assert np.array_equal(model.w.numpy(), model2.w.numpy())
        assert np.array_equal(opt._exp_avg[0], opt2._exp_avg[0])
        assert np.array_equal(opt._swa[0], opt2._swa[0])

    def test_resume_matches_uninterrupted_training(self, tmp_path):
        """Save at step 3, resume, train 3 more == train 6 straight."""
        seed(0)
        straight_model = Toy()
        straight_opt = AlphaFoldOptimizer(straight_model, OptimizerConfig(),
                                          lr=0.05)
        _train(straight_model, straight_opt, 6)

        seed(0)
        model = Toy()
        opt = AlphaFoldOptimizer(model, OptimizerConfig(), lr=0.05)
        _train(model, opt, 3)
        path = str(tmp_path / "mid.npz")
        save_checkpoint(path, model, opt)

        resumed = Toy()
        resumed_opt = AlphaFoldOptimizer(resumed, OptimizerConfig(), lr=0.05)
        load_checkpoint(path, resumed, resumed_opt)
        _train(resumed, resumed_opt, 3)
        assert np.allclose(resumed.w.numpy(), straight_model.w.numpy(),
                           atol=1e-7)

    def test_model_only_checkpoint(self, tmp_path):
        model = Toy()
        path = str(tmp_path / "weights.npz")
        save_checkpoint(path, model)
        model2 = Toy()
        load_checkpoint(path, model2)
        assert np.array_equal(model.w.numpy(), model2.w.numpy())
        opt2 = AlphaFoldOptimizer(model2, OptimizerConfig())
        with pytest.raises(ValueError, match="no optimizer state"):
            load_checkpoint(path, model2, opt2)

    def test_mismatched_model_rejected(self, tmp_path):
        model = Toy()
        path = str(tmp_path / "x.npz")
        save_checkpoint(path, model)

        class Other(Module):
            def __init__(self):
                super().__init__()
                self.different = make_parameter((8,))

        with pytest.raises(KeyError):
            load_checkpoint(path, Other())

    def test_full_alphafold_checkpoint(self, tiny_cfg, tmp_path):
        from repro.model.alphafold import AlphaFold

        model = AlphaFold(tiny_cfg)
        path = str(tmp_path / "af.npz")
        save_checkpoint(path, model)
        model2 = AlphaFold(tiny_cfg)
        load_checkpoint(path, model2)
        for (n1, p1), (n2, p2) in zip(model.named_parameters(),
                                      model2.named_parameters()):
            assert np.array_equal(p1.numpy(), p2.numpy()), n1


class TestGradientAccumulation:
    def test_matches_single_large_batch_direction(self, tiny_cfg):
        """Accumulated micro-batches average gradients (not sum)."""
        trainer = Trainer(tiny_cfg, OptimizerConfig(max_grad_norm=1e9),
                          rng_seed=0)
        ds = SyntheticProteinDataset(tiny_cfg, size=4)
        batches = [make_batch(ds[i]) for i in range(2)]
        record = trainer.accumulated_step(batches)
        assert np.isfinite(record.loss)
        assert record.step == 1

    def test_fit_with_accumulation(self, tiny_cfg):
        trainer = Trainer(tiny_cfg, rng_seed=0)
        ds = SyntheticProteinDataset(tiny_cfg, size=4)
        result = trainer.fit(ds, steps=2, accumulate_steps=2)
        assert len(result.records) == 2
        assert trainer.optimizer.step_count == 2  # one update per 2 samples

    def test_empty_micro_batches_rejected(self, tiny_cfg):
        trainer = Trainer(tiny_cfg, rng_seed=0)
        with pytest.raises(ValueError):
            trainer.accumulated_step([])


class TestStepLogging:
    def test_logger_writes_jsonl(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        with RunLogger(path, clock=lambda: 0.123) as logger:
            logger.step(1, loss=2.5, grad_norm=0.1)
            logger.step(2, loss=2.0, grad_norm=0.2)
        entries = list(read_run_log(path))
        assert len(entries) == 2
        assert entries[0]["metadata"]["loss"] == 2.5
        assert entries[0]["time_ms"] == 123.0
        with open(path) as handle:  # an open handle parses the same
            assert list(read_run_log(handle)) == entries

    def test_trainer_integration(self, tiny_cfg, tmp_path):
        path = str(tmp_path / "train.jsonl")
        trainer = Trainer(tiny_cfg, rng_seed=0)
        ds = SyntheticProteinDataset(tiny_cfg, size=2)
        with RunLogger(path) as logger:
            trainer.fit(ds, steps=3, eval_every=2, run_logger=logger)
        entries = list(read_run_log(path))
        step_entries = [e for e in entries if e["key"] == "step"]
        eval_entries = [e for e in entries if e["key"] == "eval"]
        assert len(step_entries) == 3
        assert len(eval_entries) == 1
        assert "loss_fape" in step_entries[0]["metadata"]
        assert "avg_lddt_ca" in eval_entries[0]["metadata"]

    def test_in_memory_only(self):
        logger = RunLogger()
        logger.step(1, loss=1.0)
        assert logger.entries[0]["metadata"]["loss"] == 1.0
