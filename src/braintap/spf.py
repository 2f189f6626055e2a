"""Selective prior fusion: learned scoring of anatomical prior masks.

Each prior region (including the uncovered complement) gets a global
score matrix shared across subjects plus a low-rank personalized matrix
generated from the subject embedding by a hypernetwork. Masked sums are
symmetrized, squashed through a sigmoid, and injected downstream as an
additive attention-logit bias.
"""
from __future__ import annotations

import numpy as np

from . import autograd as ag
from .nn import init_mlp, mlp, zero_param


def init_spf(rng, params, prefix, n_rois, n_priors, d, z_dim, hyper_hidden=64):
    """Add the K+1 zero-initialized N x N global score matrices ``prefix.wg{k}``
    (the last for the free region), the hypernetwork ``prefix.hyper``
    (z_dim -> (K+1) * (2N + 1)) and the subject embedding ``prefix.z_embed``
    (2d -> z_dim) to params."""
    for k in range(n_priors + 1):
        params[f"{prefix}.wg{k}"] = zero_param(n_rois, n_rois)
    init_mlp(rng, params, f"{prefix}.hyper", z_dim, hyper_hidden,
             (n_priors + 1) * (2 * n_rois + 1))
    # Zero only the alpha outputs. The personalized matrices are
    # alpha * (u_a u_b^T + u_b u_a^T), so alpha = 0 keeps them exactly
    # zero at init, while nonzero u columns give alpha a nonzero
    # gradient. Zeroing the whole layer would make the product a
    # zero-gradient saddle that training never leaves.
    params[f"{prefix}.hyper.w2"].data[:, ::2 * n_rois + 1] = 0.0
    init_mlp(rng, params, f"{prefix}.z_embed", 2 * d, hyper_hidden, z_dim)


def subject_embedding(x_fc0, x_sc0, params, prefix):
    """Mean-pool both modalities' layer-0 tokens and project to the z space."""
    pooled = ag.concat_cols([ag.mean_rows(x_fc0), ag.mean_rows(x_sc0)])
    return mlp(params, f"{prefix}.z_embed", pooled)


def hypernetwork_outputs(z, params, prefix, n, n_regions):
    """Per-region (alpha, u_a, u_b) tensors predicted from the subject embedding."""
    raw = mlp(params, f"{prefix}.hyper", z)  # (1, n_regions * (2n + 1))
    out = []
    for k in range(n_regions):
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


def score_matrix(z, priors, params, prefix, gspf=True, pspf=True):
    """Masked sum of global and personalized scores over all prior regions,
    then sym0. Returns None when both components are disabled."""
    if not gspf and not pspf:
        return None
    mask_arrays = list(priors.masks) + [priors.free_mask]
    # N is the side of the global matrices; K + 1 follows from the
    # hypernetwork's output width (K+1)(2N+1).
    n = params[f"{prefix}.wg0"].shape[0]
    n_regions = params[f"{prefix}.hyper.b2"].shape[1] // (2 * n + 1)
    if len(mask_arrays) != n_regions:
        raise ag.DimensionError(
            f"prior count mismatch: {len(mask_arrays) - 1} vs {n_regions - 1}"
        )
    hyper_out = hypernetwork_outputs(z, params, prefix, n, n_regions) if pspf else None
    total = None
    for k, mask in enumerate(mask_arrays):
        if mask.shape != (n, n):
            raise ag.DimensionError(f"mask {k} shape {mask.shape} != n_rois {n}")
        parts = []
        if gspf:
            parts.append(params[f"{prefix}.wg{k}"])
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
