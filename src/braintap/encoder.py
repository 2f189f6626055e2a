"""Per-modality token embedding and transformer encoder layers.

Each ROI's token is its connectivity-matrix row pushed through a
modality-specific MLP. Attention logits are scaled by the square root of
the per-head dimension and may carry a shared additive N x N bias from
the prior-gating module.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .nn import init_mlp, init_weight, mlp


def init_encoder(rng, params, prefix, n_rois, d, d_ff, n_layers):
    """Add the token embedding MLP ``prefix.embed`` (n_rois -> d) and
    ``n_layers`` encoder layers ``prefix.layer{i}`` to params."""
    init_mlp(rng, params, f"{prefix}.embed", n_rois, d, d)
    for i in range(n_layers):
        init_encoder_layer(rng, params, f"{prefix}.layer{i}", d, d_ff)


def init_encoder_layer(rng, params, prefix, d, d_ff):
    for w in ("wq", "wk", "wv", "wo"):
        params[f"{prefix}.{w}"] = init_weight(rng, d, d)
    init_mlp(rng, params, f"{prefix}.mlp", d, d_ff, d)


def init_head(rng, params, prefix, d):
    init_mlp(rng, params, f"{prefix}.mlp", d, d, 1)


@dataclass
class LayerOutput:
    tokens: ag.Tensor  # N x d
    attention: list[np.ndarray]  # per-head N x N row-stochastic maps


def embed_tokens(adj, params, prefix):
    """Rows of the adjacency matrix through the embedding MLP ``prefix.embed``:
    N x N -> N x d."""
    if adj.shape[0] != adj.shape[1]:
        raise ag.DimensionError(f"adjacency must be square, got {adj.shape}")
    return mlp(params, f"{prefix}.embed", adj)


def encoder_layer(tokens, params, prefix, n_heads, bias=None, eta=1.0):
    """One MHSA + MLP block ``prefix`` with residuals; returns LayerOutput.

    bias, if given, is added to every head's attention logits scaled by eta.
    A zero eta takes the identical code path as no bias at all.
    """
    n, d = tokens.shape
    if d % n_heads != 0:
        raise ag.DimensionError(f"d={d} not divisible by heads={n_heads}")
    d_head = d // n_heads
    scaled_bias = None
    if bias is not None and eta != 0.0:
        if bias.shape != (n, n):
            raise ag.DimensionError(f"bias shape {bias.shape} != ({n}, {n})")
        scaled_bias = ag.scale(bias, eta)

    q_all = ag.matmul(tokens, params[f"{prefix}.wq"])
    k_all = ag.matmul(tokens, params[f"{prefix}.wk"])
    v_all = ag.matmul(tokens, params[f"{prefix}.wv"])
    heads, attn = [], []
    for h in range(n_heads):
        lo, hi = h * d_head, (h + 1) * d_head
        q = ag.slice_cols(q_all, lo, hi)
        k = ag.slice_cols(k_all, lo, hi)
        v = ag.slice_cols(v_all, lo, hi)
        logits = ag.scale(ag.matmul(q, ag.transpose(k)), 1.0 / np.sqrt(d_head))
        if scaled_bias is not None:
            logits = ag.add(logits, scaled_bias)
        p = ag.row_softmax(logits, 1.0)
        attn.append(p.data)
        heads.append(ag.matmul(p, v))
    mhsa = ag.matmul(ag.concat_cols(heads), params[f"{prefix}.wo"])
    z = ag.add(tokens, mhsa)
    out = ag.add(z, mlp(params, f"{prefix}.mlp", z))
    return LayerOutput(tokens=out, attention=attn)


def classify(x_fc_final, x_sc_final, params, prefix):
    """Mean-pool each modality, average, and score with the classifier MLP
    ``prefix.mlp``."""
    if x_fc_final.shape != x_sc_final.shape:
        raise ag.DimensionError(
            f"modality token shapes differ: {x_fc_final.shape} vs {x_sc_final.shape}"
        )
    pooled = ag.scale(ag.add(ag.mean_rows(x_fc_final), ag.mean_rows(x_sc_final)), 0.5)
    return mlp(params, f"{prefix}.mlp", pooled)
