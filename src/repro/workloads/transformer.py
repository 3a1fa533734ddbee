"""Transformer-LLM workload: a GPT-style decoder stack for the suite.

Structurally different from AlphaFold on every axis that matters to the
simulator: one homogeneous stack of identical blocks (no two-track
MSA/pair trunk, no recycling, no serial structure module), tensor-parallel
sharding with per-block all-reduces (Megatron-style row/column-parallel
attention and MLP) instead of DAP axis switches with all-to-alls, and a
token cross-entropy objective instead of FAPE.  Built entirely from the
existing ``framework``/``model.primitives`` ops, so it traces, lints,
fast-path-simulates and fault-models through exactly the same machinery.

Tensor parallelism follows Megatron-LM: the attention QKV/out projections
are column/row-parallel and the MLP up/down projections likewise, so each
block needs one all-reduce after the attention output projection and one
after the MLP down projection, per direction (Shoeybi et al., 2019 — "4
total communication operations ... per layer", halved here because the
embedding sits outside the sharded stack).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..distributed.collectives import Collective, CommEvent
from ..distributed.dap import CommBundle
from ..framework import dtypes, ops
from ..framework import functional as F
from ..framework.checkpoint import checkpoint
from ..framework.module import Module, ModuleList, make_parameter
from ..framework.tensor import Tensor
from ..model.config import KernelPolicy
from ..model.primitives import Attention, LayerNorm, Linear
from ..train.convergence import ConvergenceModel
from .base import Workload


@dataclass
class TransformerConfig:
    """Decoder-stack hyperparameters (GPT conventions)."""

    n_layers: int = 24
    d_model: int = 2048
    n_heads: int = 16
    ffn_mult: int = 4
    seq_len: int = 2048
    vocab_size: int = 32_000

    kernel_policy: KernelPolicy = dataclasses.field(
        default_factory=KernelPolicy)

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @classmethod
    def full(cls, policy: Optional[KernelPolicy] = None) -> "TransformerConfig":
        """~1.4B-parameter decoder (GPT-2 XL class), profiled in meta mode."""
        return cls(kernel_policy=policy or KernelPolicy.reference())

    @classmethod
    def tiny(cls, policy: Optional[KernelPolicy] = None) -> "TransformerConfig":
        """Miniature numerically-executable configuration for tests."""
        return cls(n_layers=2, d_model=32, n_heads=2, ffn_mult=2,
                   seq_len=16, vocab_size=64,
                   kernel_policy=policy or KernelPolicy.reference())

    @classmethod
    def small(cls, policy: Optional[KernelPolicy] = None) -> "TransformerConfig":
        """Mid-size config: real head widths, shallow stack."""
        return cls(n_layers=4, d_model=512, n_heads=8, ffn_mult=4,
                   seq_len=512, vocab_size=8_000,
                   kernel_policy=policy or KernelPolicy.reference())

    def replace(self, **kwargs) -> "TransformerConfig":
        return dataclasses.replace(self, **kwargs)


def causal_bias(seq_len: int, dtype=dtypes.float32,
                meta: bool = False) -> Tensor:
    """Additive (1, L, L) causal mask: 0 below the diagonal, -1e9 above."""
    if meta:
        return Tensor(None, (1, seq_len, seq_len), dtype)
    mask = np.triu(np.full((seq_len, seq_len), -1e9, dtype=np.float32), k=1)
    return Tensor(mask[None, :, :], dtype=dtype)


class DecoderBlock(Module):
    """Pre-LN decoder block: LN -> causal MHA -> residual, LN -> MLP ->
    residual.  Reuses the shared :class:`Attention` primitive (ungated), so
    the batched-QKV and fused-MHA kernel switches apply unchanged."""

    def __init__(self, cfg: TransformerConfig) -> None:
        super().__init__()
        policy = cfg.kernel_policy
        self.ln_attn = LayerNorm(cfg.d_model, policy)
        self.attention = Attention(cfg.d_model, cfg.d_model,
                                   cfg.d_model // cfg.n_heads, cfg.n_heads,
                                   policy, gating=False)
        self.ln_mlp = LayerNorm(cfg.d_model, policy)
        self.mlp_up = Linear(cfg.d_model, cfg.ffn_mult * cfg.d_model,
                             init="relu")
        self.mlp_down = Linear(cfg.ffn_mult * cfg.d_model, cfg.d_model,
                               init="final")

    def forward(self, x: Tensor, bias: Tensor) -> Tensor:
        h = self.ln_attn(x)
        x = ops.add(x, self.attention(h, h, biases=[bias]))
        h = self.ln_mlp(x)
        return ops.add(x, self.mlp_down(ops.gelu(self.mlp_up(h))))


class Transformer(Module):
    """GPT-style decoder-only language model over a flat token sequence."""

    def __init__(self, cfg: TransformerConfig) -> None:
        super().__init__()
        self.cfg = cfg
        self.embed = Linear(cfg.vocab_size, cfg.d_model, bias=False,
                            init="normal")
        self.pos_embed = make_parameter((cfg.seq_len, cfg.d_model),
                                        init="normal")
        self.blocks = ModuleList([DecoderBlock(cfg)
                                  for _ in range(cfg.n_layers)])
        self.ln_final = LayerNorm(cfg.d_model, cfg.kernel_policy)
        self.lm_head = Linear(cfg.d_model, cfg.vocab_size, bias=False,
                              init="final")

    def forward(self, batch: Dict[str, Tensor]) -> Dict[str, Tensor]:
        tokens = batch["tokens"]
        x = self.embed(ops.one_hot(tokens, self.cfg.vocab_size,
                                   dtype=self.embed.weight.dtype))
        x = ops.add(x, self.pos_embed)
        bias = batch["attn_bias"]
        use_ckpt = (self.cfg.kernel_policy.activation_checkpointing
                    and self.training)
        for block in self.blocks:
            if use_ckpt:
                x = checkpoint(lambda x_, _b=block: _b(x_, bias), x)
            else:
                x = block(x, bias)
        x = self.ln_final(x)
        return {"logits": self.lm_head(x)}


class TransformerLoss:
    """Next-token cross-entropy (meta-safe: shape-only targets in meta)."""

    def __init__(self, cfg: TransformerConfig) -> None:
        self.cfg = cfg

    def __call__(self, outputs: Dict[str, Tensor],
                 batch: Dict[str, Tensor]):
        logits = outputs["logits"]
        targets = batch["targets"]
        if logits.is_meta or targets.is_meta:
            target_probs = Tensor(None, logits.shape, logits.dtype)
        else:
            target_probs = ops.one_hot(targets, self.cfg.vocab_size,
                                       dtype=logits.dtype)
        loss = F.cross_entropy(logits, target_probs)
        return loss, {"lm_loss": loss}


def make_token_batch(cfg: TransformerConfig, seed: int = 0,
                     dtype=dtypes.float32) -> Dict[str, Tensor]:
    """A numeric batch (random token ids) for tests and examples."""
    rng = np.random.default_rng(seed)
    tokens = rng.integers(0, cfg.vocab_size, size=cfg.seq_len).astype(np.int64)
    targets = np.roll(tokens, -1)
    return {
        "tokens": Tensor(tokens, dtype=dtypes.int64),
        "targets": Tensor(targets, dtype=dtypes.int64),
        "attn_bias": causal_bias(cfg.seq_len, dtype=dtype),
    }


def tp_comm_bundles(cfg: TransformerConfig, n: int, itemsize: int,
                    checkpointing: bool) -> List[CommBundle]:
    """Megatron-style tensor-parallel collectives for a TP-n decoder stack.

    Per block and direction: one all-reduce of the (L, d_model) activation
    after the row-parallel attention output projection, one after the
    row-parallel MLP down projection.  Checkpoint recompute replays the
    forward all-reduces during backward, exactly as DAP's bundles do.
    """
    if n <= 1:
        return []
    act_bytes = cfg.seq_len * cfg.d_model * itemsize

    def block_events() -> List[CommEvent]:
        return [CommEvent(Collective.ALL_REDUCE, act_bytes, n),
                CommEvent(Collective.ALL_REDUCE, act_bytes, n)]

    backward_passes = 2 if checkpointing else 1
    bundles: List[CommBundle] = []
    for _ in range(cfg.n_layers):
        bundles.append(CommBundle("transformer/blocks", "forward",
                                  block_events()))
    for _ in range(cfg.n_layers * backward_passes):
        bundles.append(CommBundle("transformer/blocks", "backward",
                                  block_events()))
    return bundles


class TransformerWorkload(Workload):
    """Decoder-only LLM pretraining step (tensor parallel + DDP)."""

    name = "transformer"
    config_cls = TransformerConfig
    #: The whole block stack is tensor-parallel; embeddings, final LN and
    #: the LM head stay replicated (the serial fraction).
    shardable_scopes = ("transformer/blocks",)
    block_stacks = (("transformer/blocks", "n_layers"),)
    #: ~1.4B parameters at the full preset.
    checkpoint_params = 1_412_000_000
    #: LLM batches scale far beyond AlphaFold's 256-sample cap.
    max_batch_size = 2048
    mlperf_batch_size = 512
    #: Target/start on the token-accuracy curve (see :meth:`convergence`).
    mlperf_target = 0.62
    mlperf_start_samples = 0.0
    #: The full decoder launches ~2 orders of magnitude fewer kernels per
    #: step than AlphaFold; holding it to the same 200k budget would let a
    #: 10x launch regression pass unnoticed.
    trace_lint_params = {"total_budget": 25_000}
    #: Decoder FLOPs are dominated by the (length-linear) projections and
    #: MLP at these widths; attention's L^2 term stays subdominant, so
    #: per-request work is modeled linear in token count.
    serve_length_exponent = 1.0

    def build(self, cfg):
        return Transformer(cfg), TransformerLoss(cfg)

    def meta_batch(self, cfg, dtype):
        return {
            "tokens": Tensor(None, (cfg.seq_len,), dtypes.int64),
            "targets": Tensor(None, (cfg.seq_len,), dtypes.int64),
            "attn_bias": causal_bias(cfg.seq_len, dtype=dtype, meta=True),
        }

    def dap_comm_bundles(self, cfg, n, itemsize, checkpointing):
        return tp_comm_bundles(cfg, n, itemsize, checkpointing)

    def convergence(self) -> ConvergenceModel:
        # Next-token accuracy vs samples: same shifted-power-law family,
        # recalibrated — LLM curves saturate much more slowly (tau in the
        # millions of sequences) and plateau well below 1.0.
        return ConvergenceModel(lddt_start=0.05, lddt_max=0.72,
                                tau_samples=2_000_000.0, alpha=0.35,
                                noise_std=0.002, overbatch_penalty=0.10,
                                metric_name="token_accuracy",
                                max_batch_size=self.max_batch_size)

    def prep_time_series(self, seed: int = 5, n: int = 1024) -> np.ndarray:
        # Tokenized-text loading is fast and nearly uniform: a few ms with
        # mild log-normal jitter, nothing like protein MSA featurization.
        rng = np.random.default_rng(seed)
        return 0.002 * rng.lognormal(0.0, 0.10, size=n)

    def serve_length(self, cfg) -> int:
        return cfg.seq_len

    def sample_request_lengths(self, rng, n):
        # Prompt lengths: log-normal around ~400 tokens with a long tail
        # (chat-style traffic), clipped to a sane context range.
        lengths = rng.lognormal(np.log(400.0), 0.7, size=n)
        return np.clip(lengths, 16, 8192).astype(np.int64)

    def request_batch(self, cfg, request_id: int):
        return make_token_batch(cfg, seed=request_id)
