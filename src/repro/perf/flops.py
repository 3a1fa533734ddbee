"""Analytic FLOP/byte model of the AlphaFold forward pass.

Closed-form per-module costs derived from the architecture (the kind of
accounting papers put in appendices), cross-checked in tests against the
*traced* totals from actually executing the model — if the two disagree,
either the model or the analysis drifted.
"""

from __future__ import annotations

from typing import Dict

from ..model.config import AlphaFoldConfig


def _attention_flops(rows: int, length: int, c_in: int, c_hidden: int,
                     heads: int, gating: bool = True) -> float:
    """Gated MHA over `rows` independent sequences of `length` tokens."""
    wide = c_hidden * heads
    n_proj = 4 if gating else 3
    proj = 2.0 * rows * length * c_in * wide * n_proj
    logits = 2.0 * rows * heads * length * length * c_hidden
    weighted = 2.0 * rows * heads * length * length * c_hidden
    out = 2.0 * rows * length * wide * c_in
    return proj + logits + weighted + out


def evoformer_block_flops(cfg: AlphaFoldConfig, n_seq: int = None,
                          c_m: int = None) -> Dict[str, float]:
    """Per-submodule forward FLOPs of one Evoformer block."""
    s = n_seq if n_seq is not None else cfg.n_seq
    n = cfg.n_res
    cm = c_m if c_m is not None else cfg.c_m
    cz = cfg.c_z
    out: Dict[str, float] = {}
    out["msa_row_attn"] = _attention_flops(s, n, cm, cfg.c_hidden_msa_att,
                                           cfg.n_head_msa)
    out["msa_col_attn"] = _attention_flops(n, s, cm, cfg.c_hidden_msa_att,
                                           cfg.n_head_msa)
    out["msa_transition"] = 2.0 * s * n * cm * (cfg.transition_n * cm) * 2
    c_opm = cfg.c_hidden_opm
    out["outer_product_mean"] = (
        2.0 * s * n * cm * c_opm * 2                     # a, b projections
        + 2.0 * (n * c_opm) ** 2 * s                      # the big contraction
        + 2.0 * n * n * c_opm * c_opm * cz)               # projection to c_z
    c_mul = cfg.c_hidden_mul
    tri_mul = (2.0 * n * n * cz * c_mul * 4               # a/b + gates
               + 2.0 * c_mul * n * n * n                  # per-channel GEMM
               + 2.0 * n * n * c_mul * cz                 # out projection
               + 2.0 * n * n * cz * cz)                   # final gate
    out["tri_mul_out"] = tri_mul
    out["tri_mul_in"] = tri_mul
    tri_attn = _attention_flops(n, n, cz, cfg.c_hidden_pair_att,
                                cfg.n_head_pair)
    out["tri_attn_start"] = tri_attn
    out["tri_attn_end"] = tri_attn
    out["pair_transition"] = 2.0 * n * n * cz * (cfg.transition_n * cz) * 2
    return out


def model_forward_flops(cfg: AlphaFoldConfig) -> Dict[str, float]:
    """Analytic forward FLOPs per top-level stack (one pass, no recycling)."""
    trunk_block = sum(evoformer_block_flops(cfg).values())
    extra_block = sum(evoformer_block_flops(
        cfg, n_seq=cfg.n_extra_seq, c_m=cfg.c_e).values())
    template_block = (
        2 * _attention_flops(cfg.n_res, cfg.n_res, cfg.c_t,
                             cfg.c_hidden_pair_att, cfg.n_head_pair)
        + 2 * (2.0 * cfg.n_res**2 * cfg.c_t * (cfg.c_hidden_mul // 2) * 4
               + 2.0 * (cfg.c_hidden_mul // 2) * cfg.n_res**3
               + 2.0 * cfg.n_res**2 * (cfg.c_hidden_mul // 2) * cfg.c_t
               + 2.0 * cfg.n_res**2 * cfg.c_t * cfg.c_t)
        + 2.0 * cfg.n_res**2 * cfg.c_t * ((cfg.transition_n // 2 or 1)
                                          * cfg.c_t) * 2)
    return {
        "evoformer": trunk_block * cfg.evoformer_blocks,
        "extra_msa_stack": extra_block * cfg.extra_msa_blocks,
        "template_stack": (template_block * cfg.template_blocks
                           * cfg.n_templates),
    }


def total_forward_flops(cfg: AlphaFoldConfig) -> float:
    return sum(model_forward_flops(cfg).values())
