"""Small shared building blocks: scaled-uniform init and a one-hidden-layer MLP."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag


def init_weight(rng, fan_in, fan_out):
    bound = 1.0 / np.sqrt(fan_in)
    return ag.Tensor(rng.uniform(-bound, bound, size=(fan_in, fan_out)), requires_grad=True)


def zero_param(*shape):
    return ag.Tensor(np.zeros(shape), requires_grad=True)


@dataclass
class Mlp:
    """x @ w1 + b1 -> ReLU -> @ w2 + b2."""

    w1: ag.Tensor
    b1: ag.Tensor
    w2: ag.Tensor
    b2: ag.Tensor

    @classmethod
    def init(cls, rng, d_in, d_hidden, d_out):
        # w2 is drawn before w1; swapping them would change every seeded init.
        w2 = init_weight(rng, d_hidden, d_out)
        return cls(
            w1=init_weight(rng, d_in, d_hidden),
            b1=zero_param(1, d_hidden),
            w2=w2,
            b2=zero_param(1, d_out),
        )

    def __call__(self, x):
        h = ag.relu(ag.add(ag.matmul(x, self.w1), self.b1))
        return ag.add(ag.matmul(h, self.w2), self.b2)

    def named(self, prefix):
        return [(f"{prefix}.w1", self.w1), (f"{prefix}.b1", self.b1),
                (f"{prefix}.w2", self.w2), (f"{prefix}.b2", self.b2)]
