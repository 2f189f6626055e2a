"""Adaptive mutual distillation between the two modality encoders.

After each encoder layer, both token sets are projected into a shared
distillation space, their row-wise softened distributions are pulled
together with a symmetric KL loss, and a learned fraction of each
modality's tokens is replaced by an inverse projection of the other
modality's distilled representation.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import autograd as ag
from .nn import init_mlp, mlp, zero_param


def init_amd_layer(rng, params, prefix, d, d_distill):
    """Add one exchange's projections g_fc, g_sc (d -> d_distill), inverse
    projections h_fc, h_sc (d_distill -> d) and the raw ratio scalars
    raw_beta, raw_gamma (beta = sigmoid(raw_beta)) to params."""
    init_mlp(rng, params, f"{prefix}.g_fc", d, d_distill, d_distill)
    init_mlp(rng, params, f"{prefix}.g_sc", d, d_distill, d_distill)
    init_mlp(rng, params, f"{prefix}.h_fc", d_distill, d_distill, d)
    init_mlp(rng, params, f"{prefix}.h_sc", d_distill, d_distill, d)
    params[f"{prefix}.raw_beta"] = zero_param(1, 1)
    params[f"{prefix}.raw_gamma"] = zero_param(1, 1)


@dataclass
class AmdLayerOutput:
    x_fc: ag.Tensor
    x_sc: ag.Tensor
    loss: ag.Tensor  # scalar, >= 0
    beta: float
    gamma: float


def amd_exchange(x_fc, x_sc, params, prefix, tau, detached_ratios=None):
    """Mutual-distillation exchange ``prefix``; returns refined tokens and the layer loss.

    Inside the loss, beta and gamma appear as gradient-detached weights:
    letting them receive gradient from the KL terms would drive them
    straight to zero. They learn through the residual-injection path.
    ``detached_ratios`` overrides those frozen copies (used by the
    finite-difference oracle, which must hold them fixed).
    """
    if x_fc.shape != x_sc.shape:
        raise ag.DimensionError(f"token shapes differ: {x_fc.shape} vs {x_sc.shape}")
    n = x_fc.shape[0]
    z_fc = mlp(params, f"{prefix}.g_fc", x_fc)
    z_sc = mlp(params, f"{prefix}.g_sc", x_sc)
    p_fc = ag.row_softmax(z_fc, tau)
    p_sc = ag.row_softmax(z_sc, tau)

    beta = ag.sigmoid(params[f"{prefix}.raw_beta"])
    gamma = ag.sigmoid(params[f"{prefix}.raw_gamma"])
    if detached_ratios is None:
        beta_bar, gamma_bar = beta.item(), gamma.item()
    else:
        beta_bar, gamma_bar = detached_ratios
    loss = ag.add(
        ag.scale(ag.kl_div(p_fc, p_sc), beta_bar / n),
        ag.scale(ag.kl_div(p_sc, p_fc), gamma_bar / n),
    )

    one = ag.Tensor([[1.0]])
    x_fc_new = ag.add(
        ag.hadamard(ag.sub(one, gamma), x_fc),
        ag.hadamard(gamma, mlp(params, f"{prefix}.h_fc", z_sc)),
    )
    x_sc_new = ag.add(
        ag.hadamard(ag.sub(one, beta), x_sc),
        ag.hadamard(beta, mlp(params, f"{prefix}.h_sc", z_fc)),
    )
    return AmdLayerOutput(
        x_fc=x_fc_new, x_sc=x_sc_new, loss=loss,
        beta=beta.item(), gamma=gamma.item(),
    )


def report_ratios(params, prefixes):
    """Distill-intact ratios of the exchanges ``prefixes``, one row per layer
    numbered from 1: FC's is gamma (fraction of FC tokens replaced with
    SC-derived content), SC's is beta."""
    rows = []
    for i, prefix in enumerate(prefixes, start=1):
        with ag.no_grad():
            beta = ag.sigmoid(params[f"{prefix}.raw_beta"]).item()
            gamma = ag.sigmoid(params[f"{prefix}.raw_gamma"]).item()
        rows.append({"layer": i, "fc_ratio": gamma, "sc_ratio": beta})
    return rows
