"""Training loop, loss assembly, optimizer, and evaluation metrics."""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.stats import rankdata

from . import autograd as ag
from .benchmark import ABLATION_VARIANTS, SEEDS
from .config import TrainConfig
from .model import BrainTAP


class MetricError(ValueError):
    """An evaluation metric was asked for an ill-posed input."""


class TrainingError(RuntimeError):
    """Training aborted (non-finite loss or empty split)."""


def total_loss(logit, y, distill_losses, lambda_distill):
    """Binary cross-entropy plus weighted sum of per-layer distillation losses."""
    loss = ag.bce_with_logits(logit, y)
    if lambda_distill != 0.0:
        for dl in distill_losses:
            loss = ag.add(loss, ag.scale(dl, lambda_distill))
    return loss


def auc(scores, labels):
    """Mann-Whitney AUC: (#{pos > neg} + 0.5 #{pos = neg}) / (#pos #neg)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise MetricError("AUC requires both classes present")
    ranks = rankdata(scores)
    return float((ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


@dataclass
class EvalReport:
    train_losses: list = field(default_factory=list)
    val_aucs: list = field(default_factory=list)
    best_epoch: int = -1
    val_auc: float = float("nan")
    test_auc: float = float("nan")


class AdamW:
    """Adaptive-moment optimizer with decoupled weight decay.

    lr_scales optionally multiplies the base learning rate per parameter
    (used to let zero-initialized parameter groups catch up).
    """

    def __init__(self, params, lr, weight_decay=0.0, beta1=0.9, beta2=0.999,
                 eps=1e-8, lr_scales=None):
        self.params = list(params)
        self.lr = lr
        self.wd = weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.lr_scales = list(lr_scales) if lr_scales is not None else [1.0] * len(self.params)
        if len(self.lr_scales) != len(self.params):
            raise ValueError("lr_scales length must match params")
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            m_hat = self.m[i] / (1 - b1 ** self.t)
            v_hat = self.v[i] / (1 - b2 ** self.t)
            lr = self.lr * self.lr_scales[i]
            p.data = p.data - lr * (m_hat / (np.sqrt(v_hat) + self.eps) + self.wd * p.data)


def _first_non_finite(model, loss_value):
    """Name of a step's first non-finite value, or None; called after
    backward(), before the optimizer step. A non-finite loss names the
    first non-finite parameter (or the loss itself); a finite loss, the
    first parameter with a non-finite gradient."""
    if not np.isfinite(loss_value):
        for name, t in model.params.items():
            if not np.isfinite(t.data).all():
                return f"parameter {name}"
        return "total_loss"
    for name, t in model.params.items():
        if t.grad is not None and not np.isfinite(t.grad).all():
            return f"gradient of {name}"
    return None


def split_subjects(subjects, manifest, split):
    wanted = set(manifest.split_ids(split))
    return [s for s in subjects if s.id in wanted]


def evaluate_auc(model, subjects, priors):
    scores = [model.predict(s, priors) for s in subjects]
    return auc(scores, [s.label for s in subjects])


def train(cfg: TrainConfig, subjects, priors, manifest, metrics_path=None, log=None):
    """Mini-batch AdamW training with best-validation-AUC checkpointing.

    Deterministic per (config, seed). Returns (model, EvalReport).
    """
    train_set = split_subjects(subjects, manifest, "train")
    val_set = split_subjects(subjects, manifest, "val")
    test_set = split_subjects(subjects, manifest, "test")
    if not train_set:
        raise TrainingError("empty train split")
    if not val_set:
        raise TrainingError("empty val split")

    model = BrainTAP(cfg, manifest.n_rois, len(priors))
    def scale_for(name):
        if name.startswith("spf.hyper"):
            return cfg.hyper_lr_scale
        if name.startswith("spf.wg"):
            return cfg.gspf_lr_scale
        if name.startswith("amd"):
            return cfg.amd_lr_scale
        return 1.0

    opt = AdamW(model.params.values(), cfg.learning_rate, cfg.weight_decay,
                lr_scales=[scale_for(name) for name in model.params])
    rng = np.random.default_rng(cfg.seed)
    report = EvalReport()
    best_state = model.state_arrays()
    best_val = -1.0
    stale = 0
    lines = []

    for epoch in range(cfg.epochs):
        order = rng.permutation(len(train_set))
        epoch_losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_set[i] for i in order[start:start + cfg.batch_size]]
            model.zero_grad()
            batch_loss = None
            for subj in batch:
                result = model.forward(subj.fc, subj.sc, priors)
                loss = total_loss(result.logit, subj.label,
                                  result.distill_losses, cfg.lambda_distill)
                batch_loss = loss if batch_loss is None else ag.add(batch_loss, loss)
            batch_loss = ag.scale(batch_loss, 1.0 / len(batch))
            value = batch_loss.item()
            batch_loss.backward()
            culprit = _first_non_finite(model, value)
            if culprit is not None:
                raise TrainingError(f"non-finite value at epoch {epoch}: first offender {culprit}")
            opt.step()
            epoch_losses.append(value)

        train_loss = float(np.mean(epoch_losses))
        val_auc = evaluate_auc(model, val_set, priors)
        report.train_losses.append(train_loss)
        report.val_aucs.append(val_auc)
        lines.append(f"{epoch},{train_loss:.10g},{val_auc:.10g}")
        if log:
            log(f"epoch {epoch}: train_loss={train_loss:.4f} val_auc={val_auc:.4f}")
        if val_auc > best_val:
            best_val = val_auc
            best_state = model.state_arrays()
            report.best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break

    model.load_state_arrays(best_state)
    report.val_auc = best_val
    report.test_auc = evaluate_auc(model, test_set, priors) if test_set else float("nan")
    if metrics_path is not None:
        Path(metrics_path).write_text(
            "epoch,train_loss,val_auc\n" + "\n".join(lines) + "\n"
        )
    return model, report


def run_ablation(cfg: TrainConfig, subjects, priors, manifest, seeds=SEEDS, log=None):
    """Train every variant of benchmark.ABLATION_VARIANTS over the given
    seeds; returns one row per variant with mean and sd test AUC."""
    rows = []
    for name, overrides in ABLATION_VARIANTS:
        aucs = []
        for seed in seeds:
            variant_cfg = cfg.replace(seed=seed, **overrides)
            _, report = train(variant_cfg, subjects, priors, manifest)
            aucs.append(report.test_auc)
            if log:
                log(f"{name} seed {seed}: test_auc={report.test_auc:.4f}")
        rows.append({
            "variant": name,
            "mean_auc": float(np.mean(aucs)),
            "sd_auc": float(np.std(aucs)),
            "aucs": aucs,
        })
    return rows
