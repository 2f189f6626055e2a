"""Canonical synthetic-benchmark settings and the ablation table, shared by
the acceptance tests and `braintap ablate`.

The cohort is the planted-signal design (600 subjects, 20 ROIs, 2 priors,
signal 0.4, noise 0.2); the model is sized down so the whole five-variant,
three-seed comparison stays inside a laptop-CPU minutes budget.
"""
from __future__ import annotations

from .config import TrainConfig

COHORT = dict(n_subjects=600, n_rois=20, n_priors=2,
              signal_strength=0.4, noise_sd=0.2)

SEEDS = (0, 1, 2)

# The one ablation table: (variant name, TrainConfig overrides). The full
# model, each paper component removed in turn, and both fusion mechanisms
# removed together. Used by pipeline.run_ablation, `braintap ablate` and
# the acceptance benchmark.
ABLATION_VARIANTS = (
    ("full", {}),
    ("w/o AMD", {"amd_enabled": False}),
    ("w/o G-SPF", {"gspf_enabled": False}),
    ("w/o P-SPF", {"pspf_enabled": False}),
    ("w/o AMD+SPF", {"amd_enabled": False, "gspf_enabled": False, "pspf_enabled": False}),
)


def benchmark_config(**overrides):
    base = dict(
        d=16, n_layers=3, n_heads=2, d_distill=16, z_dim=8,
        batch_size=32, learning_rate=3e-3, epochs=20, patience=20,
        amd_lr_scale=10.0, hyper_lr_scale=10.0, gspf_lr_scale=25.0,
    )
    base.update(overrides)
    return TrainConfig(**base)
