"""Run configuration: model dimensions, optimizer settings, ablation flags.

Serialized as one flat JSON object; every dataclass field is a key.
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from .autograd import ParameterError


@dataclass
class TrainConfig:
    # optimizer
    learning_rate: float = 1e-4
    weight_decay: float = 1e-6
    batch_size: int = 32
    epochs: int = 200
    patience: int = 20
    seed: int = 0
    lambda_distill: float = 1.0
    # model dimensions
    d: int = 64
    n_layers: int = 3
    n_heads: int = 4
    d_ff: int = 0  # 0 -> 2 * d
    d_distill: int = 0  # 0 -> d
    z_dim: int = 32
    # temperatures and bias scale
    tau_amd: float = 1.0
    tau_spf: float = 1.0
    eta: float = 1.0
    hyper_lr_scale: float = 1.0
    amd_lr_scale: float = 1.0
    gspf_lr_scale: float = 1.0
    # ablation flags (see benchmark.ABLATION_VARIANTS)
    amd_enabled: bool = True
    gspf_enabled: bool = True
    pspf_enabled: bool = True

    def __post_init__(self):
        if self.d_ff == 0:
            self.d_ff = 2 * self.d
        if self.d_distill == 0:
            self.d_distill = self.d
        for name in ("learning_rate", "batch_size", "tau_amd", "tau_spf", "d",
                     "n_layers", "n_heads", "z_dim", "hyper_lr_scale", "amd_lr_scale", "gspf_lr_scale"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be positive, got {getattr(self, name)}")
        if self.weight_decay < 0 or self.lambda_distill < 0:
            raise ParameterError("weight_decay and lambda_distill must be non-negative")
        if self.d % self.n_heads != 0:
            raise ParameterError(f"d={self.d} not divisible by n_heads={self.n_heads}")

    @property
    def spf_enabled(self):
        return self.gspf_enabled or self.pspf_enabled

    def to_json(self):
        return json.dumps(dataclasses.asdict(self), indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        raw = json.loads(text)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ParameterError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)

    @classmethod
    def load(cls, path):
        return cls.from_json(Path(path).read_text())

    def replace(self, **kw):
        return dataclasses.replace(self, **kw)
