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
from .nn import Mlp, init_weight


@dataclass
class LayerParams:
    wq: ag.Tensor
    wk: ag.Tensor
    wv: ag.Tensor
    wo: ag.Tensor
    mlp: Mlp

    @classmethod
    def init(cls, rng, d, d_ff):
        return cls(
            wq=init_weight(rng, d, d),
            wk=init_weight(rng, d, d),
            wv=init_weight(rng, d, d),
            wo=init_weight(rng, d, d),
            mlp=Mlp.init(rng, d, d_ff, d),
        )

    def named(self, prefix):
        out = [(f"{prefix}.wq", self.wq), (f"{prefix}.wk", self.wk),
               (f"{prefix}.wv", self.wv), (f"{prefix}.wo", self.wo)]
        out += self.mlp.named(f"{prefix}.mlp")
        return out


@dataclass
class EncoderParams:
    embed: Mlp  # n_rois -> d
    layers: list[LayerParams]

    @classmethod
    def init(cls, rng, n_rois, d, d_ff, n_layers):
        return cls(
            embed=Mlp.init(rng, n_rois, d, d),
            layers=[LayerParams.init(rng, d, d_ff) for _ in range(n_layers)],
        )

    def named(self, prefix):
        out = self.embed.named(f"{prefix}.embed")
        for i, layer in enumerate(self.layers):
            out += layer.named(f"{prefix}.layer{i}")
        return out


@dataclass
class LayerOutput:
    tokens: ag.Tensor  # N x d
    attention: list[np.ndarray]  # per-head N x N row-stochastic maps


def embed_tokens(adj, params):
    """Rows of the adjacency matrix through the embedding MLP: N x N -> N x d."""
    if adj.shape[0] != adj.shape[1]:
        raise ag.DimensionError(f"adjacency must be square, got {adj.shape}")
    return params.embed(adj)


def encoder_layer(tokens, params, n_heads, bias=None, eta=1.0):
    """One MHSA + MLP block with residuals; returns LayerOutput.

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

    q_all = ag.matmul(tokens, params.wq)
    k_all = ag.matmul(tokens, params.wk)
    v_all = ag.matmul(tokens, params.wv)
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
    mhsa = ag.matmul(ag.concat_cols(heads), params.wo)
    z = ag.add(tokens, mhsa)
    out = ag.add(z, params.mlp(z))
    return LayerOutput(tokens=out, attention=attn)


def classify(x_fc_final, x_sc_final, head):
    """Mean-pool each modality, average, and score with the classifier MLP."""
    if x_fc_final.shape != x_sc_final.shape:
        raise ag.DimensionError(
            f"modality token shapes differ: {x_fc_final.shape} vs {x_sc_final.shape}"
        )
    pooled = ag.scale(ag.add(ag.mean_rows(x_fc_final), ag.mean_rows(x_sc_final)), 0.5)
    return head(pooled)


@dataclass
class HeadParams:
    mlp: Mlp

    @classmethod
    def init(cls, rng, d):
        return cls(mlp=Mlp.init(rng, d, d, 1))

    def named(self, prefix):
        return self.mlp.named(f"{prefix}.mlp")

    def __call__(self, pooled):
        return self.mlp(pooled)
