"""Small shared building blocks: scaled-uniform init and a one-hidden-layer MLP.

A model's parameters are one dict of named Tensors, keyed as in the
checkpoint (``enc_fc.embed.w1``, ``amd0.raw_beta``, ...). An MLP named
``name`` owns the four entries ``name.w1``, ``name.b1``, ``name.w2`` and
``name.b2``.
"""
from __future__ import annotations

import numpy as np

from . import autograd as ag


def init_weight(rng, fan_in, fan_out):
    bound = 1.0 / np.sqrt(fan_in)
    return ag.Tensor(rng.uniform(-bound, bound, size=(fan_in, fan_out)), requires_grad=True)


def zero_param(*shape):
    return ag.Tensor(np.zeros(shape), requires_grad=True)


def init_mlp(rng, params, name, d_in, d_hidden, d_out):
    # w2 is drawn before w1; swapping them would change every seeded init.
    w2 = init_weight(rng, d_hidden, d_out)
    params[f"{name}.w1"] = init_weight(rng, d_in, d_hidden)
    params[f"{name}.b1"] = zero_param(1, d_hidden)
    params[f"{name}.w2"] = w2
    params[f"{name}.b2"] = zero_param(1, d_out)


class Mlp:
    """The MLP ``name`` of a parameter dict, as a callable view holding no
    parameters of its own: x @ w1 + b1 -> ReLU -> @ w2 + b2. Every MLP
    evaluation goes through ``Mlp.__call__``, where perfbench's tracer
    times the MLP layer."""

    __slots__ = ("params", "name")

    def __init__(self, params, name):
        self.params, self.name = params, name

    def __call__(self, x):
        p, name = self.params, self.name
        h = ag.relu(ag.add(ag.matmul(x, p[f"{name}.w1"]), p[f"{name}.b1"]))
        return ag.add(ag.matmul(h, p[f"{name}.w2"]), p[f"{name}.b2"])


def mlp(params, name, x):
    """Apply the MLP ``name`` of ``params`` to the rows of x."""
    return Mlp(params, name)(x)
