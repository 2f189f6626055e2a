"""Selective prior fusion: learned scoring of anatomical prior masks.

Each prior region (including the uncovered complement) gets a global
score matrix shared across subjects plus a low-rank personalized matrix
generated from the subject embedding by a hypernetwork. Masked sums are
symmetrized, squashed through a sigmoid, and injected downstream as an
additive attention-logit bias.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .nn import Mlp, zero_param


@dataclass
class SpfParams:
    global_masks: list[ag.Tensor]  # K+1 matrices of N x N, zero-initialized
    hyper: Mlp  # z_dim -> (K+1) * (2N + 1), final layer zero-initialized
    z_embed: Mlp  # 2d -> z_dim
    n_rois: int
    n_priors: int  # K (excluding the free region)

    @classmethod
    def init(cls, rng, n_rois, n_priors, d, z_dim, hyper_hidden=64):
        out_dim = (n_priors + 1) * (2 * n_rois + 1)
        hyper = Mlp.init(rng, z_dim, hyper_hidden, out_dim)
        # Zero only the alpha outputs. The personalized matrices are
        # alpha * (u_a u_b^T + u_b u_a^T), so alpha = 0 keeps them exactly
        # zero at init, while nonzero u columns give alpha a nonzero
        # gradient. Zeroing the whole layer would make the product a
        # zero-gradient saddle that training never leaves.
        for k in range(n_priors + 1):
            hyper.w2.data[:, k * (2 * n_rois + 1)] = 0.0
        return cls(
            global_masks=[zero_param(n_rois, n_rois) for _ in range(n_priors + 1)],
            hyper=hyper,
            z_embed=Mlp.init(rng, 2 * d, hyper_hidden, z_dim),
            n_rois=n_rois,
            n_priors=n_priors,
        )

    def named(self, prefix):
        out = [(f"{prefix}.wg{k}", w) for k, w in enumerate(self.global_masks)]
        out += self.hyper.named(f"{prefix}.hyper")
        out += self.z_embed.named(f"{prefix}.z_embed")
        return out


def subject_embedding(x_fc0, x_sc0, params):
    """Mean-pool both modalities' layer-0 tokens and project to the z space."""
    pooled = ag.concat_cols([ag.mean_rows(x_fc0), ag.mean_rows(x_sc0)])
    return params.z_embed(pooled)


def hypernetwork_outputs(z, params):
    """Per-prior (alpha, u_a, u_b) tensors predicted from the subject embedding."""
    raw = params.hyper(z)  # (1, (K+1) * (2N + 1))
    n = params.n_rois
    out = []
    for k in range(params.n_priors + 1):
        off = k * (2 * n + 1)
        alpha = ag.slice_cols(raw, off, off + 1)
        u_a = ag.slice_cols(raw, off + 1, off + 1 + n)
        u_b = ag.slice_cols(raw, off + 1 + n, off + 1 + 2 * n)
        out.append((alpha, u_a, u_b))
    return out


def personalized_mask(alpha, u_a, u_b):
    """(alpha / 2) * (u_a u_b^T + u_b u_a^T): symmetric, rank at most 2."""
    outer = ag.add(
        ag.matmul(ag.transpose(u_a), u_b),
        ag.matmul(ag.transpose(u_b), u_a),
    )
    return ag.hadamard(ag.scale(alpha, 0.5), outer)


def score_matrix(z, priors, params, gspf=True, pspf=True):
    """Masked sum of global and personalized scores over all prior regions,
    then sym0. Returns None when both components are disabled."""
    if not gspf and not pspf:
        return None
    mask_arrays = list(priors.masks) + [priors.free_mask]
    if len(mask_arrays) != params.n_priors + 1:
        raise ag.DimensionError(
            f"prior count mismatch: {len(mask_arrays) - 1} vs {params.n_priors}"
        )
    hyper_out = hypernetwork_outputs(z, params) if pspf else None
    total = None
    for k, mask in enumerate(mask_arrays):
        if mask.shape != (params.n_rois, params.n_rois):
            raise ag.DimensionError(f"mask {k} shape {mask.shape} != n_rois {params.n_rois}")
        parts = []
        if gspf:
            parts.append(params.global_masks[k])
        if pspf:
            parts.append(personalized_mask(*hyper_out[k]))
        w = parts[0] if len(parts) == 1 else ag.add(*parts)
        contrib = ag.hadamard(w, ag.Tensor(mask))
        total = contrib if total is None else ag.add(total, contrib)
    return ag.sym0(total)


def gate(score, tau):
    """Elementwise sigmoid of the score matrix at gate temperature tau."""
    if tau <= 0.0:
        raise ag.ParameterError(f"gate temperature must be positive, got {tau}")
    return ag.sigmoid(ag.scale(score, 1.0 / tau))


def attention_bias(gate_matrix):
    """The gate as an attention bias, with its diagonal zeroed so
    self-connections get no learned favoritism."""
    n = gate_matrix.shape[0]
    hollow = np.ones((n, n))
    np.fill_diagonal(hollow, 0.0)
    return ag.hadamard(gate_matrix, ag.Tensor(hollow))
