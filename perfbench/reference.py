"""Computations made apart from the program, used to check its outputs.

A plain-numpy forward pass over a whole stack of subjects, read straight
from a checkpoint archive, a brute-force pair-count AUC, and a cohort
reader. Nothing here imports braintap.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy.special import expit

# Config flags and the only values the workloads use. A missing key takes
# this value, so checkpoints from a program that dropped a flag still load.
SUPPORTED_FLAGS = {
    "amd_enabled": True, "gspf_enabled": True, "pspf_enabled": True,
    "spf_fc_enabled": True, "spf_sc_enabled": True,
    "final_layer_exchange": True, "zero_gate_diagonal": True, "layer_norm": False,
}
FORWARD_KEYS = {"d", "n_layers", "n_heads", "d_ff", "d_distill", "z_dim",
                "tau_amd", "tau_spf", "eta"}
OPTIMISER_KEYS = {"learning_rate", "weight_decay", "batch_size", "epochs", "patience",
                  "seed", "lambda_distill", "hyper_lr_scale", "amd_lr_scale",
                  "gspf_lr_scale"}
CHUNK = 256  # subjects per vectorized forward, to bound memory at 100 ROIs


class UnsupportedInput(ValueError):
    """The checkpoint or cohort holds something the reference cannot reproduce."""


def read_matrix(path):
    return np.loadtxt(path, delimiter=",", ndmin=2)


def read_manifest(cohort_dir):
    return json.loads((Path(cohort_dir) / "manifest.json").read_text())


def read_priors(cohort_dir, manifest):
    """(names, masks, free_mask) as the prior CSVs give them."""
    names = [p["name"] for p in manifest["priors"]]
    masks = [read_matrix(Path(cohort_dir) / p["path"]) for p in manifest["priors"]]
    free = 1.0 - np.max(masks, axis=0)
    np.fill_diagonal(free, 0.0)
    return names, masks, free


def read_split(cohort_dir, manifest, split):
    """(fc stack, sc stack, labels) of one split, in manifest order."""
    recs = [s for s in manifest["subjects"] if s["split"] == split]
    fc = np.stack([read_matrix(Path(cohort_dir) / r["fc"]) for r in recs])
    sc = np.stack([read_matrix(Path(cohort_dir) / r["sc"]) for r in recs])
    return fc, sc, np.array([r["label"] for r in recs])


def load_checkpoint(path):
    """(params by name, config dict) from a checkpoint archive."""
    with np.load(path, allow_pickle=False) as archive:
        cfg = json.loads(str(archive["config_json"]))
        params = {k[len("param:"):]: archive[k].astype(np.float64)
                  for k in archive.files if k.startswith("param:")}
    unknown = set(cfg) - set(SUPPORTED_FLAGS) - FORWARD_KEYS - OPTIMISER_KEYS
    if unknown:
        raise UnsupportedInput(f"config keys the reference does not know: {sorted(unknown)}")
    for flag, value in SUPPORTED_FLAGS.items():
        if cfg.get(flag, value) != value:
            raise UnsupportedInput(f"config flag {flag}={cfg[flag]!r} is not used by any workload")
    return params, cfg


def _mlp(p, name, x):
    h = np.maximum(x @ p[f"{name}.w1"] + p[f"{name}.b1"], 0.0)
    return h @ p[f"{name}.w2"] + p[f"{name}.b2"]


def _softmax_rows(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _forward_chunk(p, cfg, fc, sc, masks):
    n_layers, n_heads = cfg["n_layers"], cfg["n_heads"]
    s, n = fc.shape[0], fc.shape[1]
    x_fc = _mlp(p, "enc_fc.embed", fc)
    x_sc = _mlp(p, "enc_sc.embed", sc)

    z = _mlp(p, "spf.z_embed", np.concatenate([x_fc.mean(1), x_sc.mean(1)], axis=1))
    raw = _mlp(p, "spf.hyper", z)
    total = np.zeros((s, n, n))
    for k, mask in enumerate(masks):
        off = k * (2 * n + 1)
        alpha = raw[:, off]
        u_a = raw[:, off + 1:off + 1 + n]
        u_b = raw[:, off + 1 + n:off + 1 + 2 * n]
        outer = u_a[:, :, None] * u_b[:, None, :] + u_b[:, :, None] * u_a[:, None, :]
        total += (p[f"spf.wg{k}"] + 0.5 * alpha[:, None, None] * outer) * mask
    score = 0.5 * (total + total.transpose(0, 2, 1))
    score[:, np.arange(n), np.arange(n)] = 0.0
    gate = expit(score / cfg["tau_spf"])
    bias = cfg["eta"] * gate * (1.0 - np.eye(n))

    d = x_fc.shape[2]
    d_head = d // n_heads
    for l in range(n_layers):
        outs = []
        for x, enc in ((x_fc, "enc_fc"), (x_sc, "enc_sc")):
            pre = f"{enc}.layer{l}"
            q, k_, v = (x @ p[f"{pre}.{w}"] for w in ("wq", "wk", "wv"))
            heads = []
            for h in range(n_heads):
                sl = slice(h * d_head, (h + 1) * d_head)
                logits = q[..., sl] @ k_[..., sl].transpose(0, 2, 1) / np.sqrt(d_head) + bias
                heads.append(_softmax_rows(logits) @ v[..., sl])
            y = x + np.concatenate(heads, axis=2) @ p[f"{pre}.wo"]
            outs.append(y + _mlp(p, f"{pre}.mlp", y))
        x_fc, x_sc = outs
        if l < n_layers - 1 or cfg.get("final_layer_exchange", True):
            beta = expit(p[f"amd{l}.raw_beta"][0, 0])
            gamma = expit(p[f"amd{l}.raw_gamma"][0, 0])
            z_fc = _mlp(p, f"amd{l}.g_fc", x_fc)
            z_sc = _mlp(p, f"amd{l}.g_sc", x_sc)
            x_fc, x_sc = ((1.0 - gamma) * x_fc + gamma * _mlp(p, f"amd{l}.h_fc", z_sc),
                          (1.0 - beta) * x_sc + beta * _mlp(p, f"amd{l}.h_sc", z_fc))

    logit = _mlp(p, "head.mlp", 0.5 * (x_fc.mean(1) + x_sc.mean(1)))[:, 0]
    return logit, gate


def forward(params, cfg, fc, sc, masks):
    """Logits (S,) and gates (S, N, N) for stacked subjects.

    masks are the prior masks followed by the free-region mask.
    """
    if len(masks) != sum(1 for k in params if k.startswith("spf.wg")):
        raise UnsupportedInput("prior count of the cohort differs from the checkpoint")
    parts = [_forward_chunk(params, cfg, fc[i:i + CHUNK], sc[i:i + CHUNK], masks)
             for i in range(0, len(fc), CHUNK)]
    return (np.concatenate([a for a, _ in parts]),
            np.concatenate([b for _, b in parts]))


def probability(logit):
    return 1.0 / (1.0 + np.exp(-logit))


def auc_bounds(scores, labels, tie_band=1e-9):
    """Brute-force pair-count AUC as (low, high).

    A (positive, negative) pair closer than tie_band, exact ties included,
    could be ordered either way by a forward pass that sums in another
    order, so it counts as a loss in the low bound and a win in the high one.
    """
    pos = scores[labels == 1][:, None]
    neg = scores[labels == 0][None, :]
    diff = pos - neg
    near = np.abs(diff) <= tie_band
    pairs = pos.size * neg.size
    wins = ((diff > 0) & ~near).sum()
    return wins / pairs, (wins + near.sum()) / pairs
