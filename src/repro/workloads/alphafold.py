"""The AlphaFold workload: the paper's model, wired into the registry.

This adapter owns no modeling code — it binds the existing AlphaFold model,
loss, synthetic data pipeline, DAP sharding hints and calibrated convergence
curve to the :class:`~repro.workloads.base.Workload` protocol.  It is the
default workload everywhere, and every value it returns is bit-identical to
what the pre-refactor hard-wired paths produced.
"""

from __future__ import annotations

import numpy as np

from ..datapipe.prep_time import prep_time_series
from ..datapipe.samples import (LENGTH_LOG_MEAN, LENGTH_LOG_SIGMA, LENGTH_MAX,
                                LENGTH_MIN, SyntheticProteinDataset,
                                make_batch, meta_batch)
from ..distributed.dap import SHARDABLE_SCOPES, dap_comm_bundles
from ..model.alphafold import AlphaFold
from ..model.config import AlphaFoldConfig
from ..model.loss import AlphaFoldLoss
from ..train.convergence import (MAX_BATCH_SIZE, MLPERF_CHECKPOINT_SAMPLES,
                                 MLPERF_TARGET_LDDT, ConvergenceModel)
from .base import Workload


class AlphaFoldWorkload(Workload):
    """AlphaFold2 pretraining step (ScaleFold's MLPerf HPC OpenFold run)."""

    name = "alphafold"
    config_cls = AlphaFoldConfig
    shardable_scopes = SHARDABLE_SCOPES
    block_stacks = (("alphafold/evoformer/blocks", "evoformer_blocks"),
                    ("alphafold/extra_msa_stack/stack/blocks",
                     "extra_msa_blocks"),
                    ("alphafold/template_stack/blocks", "template_blocks"))
    #: OpenFold parameter count (checkpoint payload, §3.5 async eval).
    checkpoint_params = 93_000_000
    max_batch_size = MAX_BATCH_SIZE
    mlperf_batch_size = 256
    mlperf_target = MLPERF_TARGET_LDDT
    mlperf_start_samples = MLPERF_CHECKPOINT_SAMPLES
    #: TL004 budget: the full scalefold trace runs ~150k kernels/step.
    trace_lint_params = {"total_budget": 200_000}
    #: Pair/triangle activations grow quadratically in residues, so per-
    #: request inference work scales ~L^2 around the preset's crop length.
    serve_length_exponent = 2.0

    def build(self, cfg):
        return AlphaFold(cfg), AlphaFoldLoss(cfg)

    def meta_batch(self, cfg, dtype):
        return meta_batch(cfg, dtype=dtype)

    def call(self, model, loss_fn, batch, n_recycle: int = 1):
        outputs = model(batch, n_recycle=n_recycle)
        loss, _ = loss_fn(outputs, batch)
        return loss

    def dap_comm_bundles(self, cfg, n, itemsize, checkpointing):
        return dap_comm_bundles(cfg, n, itemsize, checkpointing)

    def convergence(self) -> ConvergenceModel:
        return ConvergenceModel()

    def prep_time_series(self, seed: int = 5, n: int = 1024) -> np.ndarray:
        dataset = SyntheticProteinDataset(AlphaFoldConfig.full(),
                                          size=max(n, 1024))
        return prep_time_series(dataset, n=n, seed=seed)

    def serve_length(self, cfg) -> int:
        return cfg.n_res

    def sample_request_lengths(self, rng, n):
        # Submitted chains follow the PDB-like log-normal of the synthetic
        # training set (no crop: inference sees the full sequence).
        lengths = rng.lognormal(LENGTH_LOG_MEAN, LENGTH_LOG_SIGMA, size=n)
        return np.clip(lengths, LENGTH_MIN, LENGTH_MAX).astype(np.int64)

    def request_batch(self, cfg, request_id: int):
        dataset = SyntheticProteinDataset(cfg, size=1 << 16, seed=0x5E12FE)
        return make_batch(dataset[request_id % len(dataset)])

    def infer(self, model, batch):
        return model(batch, n_recycle=1)
