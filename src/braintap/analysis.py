"""Post-training analyses: distill-ratio table, prior MRR, top-edge export."""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autograd import ParameterError

AGGREGATORS = ("mean", "max", "top_decile_mean")


class AnalysisError(ValueError):
    pass


@dataclass
class MrrReport:
    prior_names: list
    scores: list  # mean reciprocal rank per prior, in [1/K, 1]
    n_subjects: int


def _upper_entries(mat, mask):
    iu = np.triu_indices(mat.shape[0], k=1)
    sel = mask[iu] == 1.0
    return mat[iu][sel]


def _aggregate(values, how):
    if how == "mean":
        return float(values.mean())
    if how == "max":
        return float(values.max())
    if how == "top_decile_mean":
        k = max(1, int(np.ceil(0.1 * len(values))))
        return float(np.sort(values)[-k:].mean())
    raise ParameterError(f"unknown aggregator {how!r}")


def prior_gate_scores(gate, priors, include_free=False, aggregator="mean"):
    """Per-prior aggregate of the gate over that prior's off-diagonal entries.

    Priors with empty masks are dropped (with their names) by the caller.
    """
    names = list(priors.names)
    masks = list(priors.masks)
    if include_free:
        names.append("free")
        masks.append(priors.free_mask)
    scores = {}
    for name, mask in zip(names, masks):
        vals = _upper_entries(gate, mask)
        if len(vals) == 0:
            continue
        scores[name] = _aggregate(vals, aggregator)
    return scores


def reciprocal_ranks(scores_by_name):
    """Descending rank of each prior by score, ties broken by listing order."""
    names = list(scores_by_name)
    order = sorted(range(len(names)), key=lambda i: (-scores_by_name[names[i]], i))
    rr = {}
    for rank, i in enumerate(order, start=1):
        rr[names[i]] = 1.0 / rank
    return rr


def analyze_mrr(model, subjects, priors, include_free=False, aggregator="mean", warn=None):
    """Mean reciprocal rank of each prior under the learned gates.

    Per subject, priors are ranked by their aggregated gate value; the
    reciprocal ranks are then averaged over the given subjects.
    """
    if len(priors) < 1:
        raise AnalysisError("MRR needs at least one prior")
    empties = [n for n, m in zip(priors.names, priors.masks) if np.triu(m, k=1).sum() == 0]
    if empties and warn:
        warn(f"excluding priors with empty masks: {', '.join(empties)}")
    totals = None
    for subj in subjects:
        gate = model.gate_for(subj, priors)
        scores = prior_gate_scores(gate, priors, include_free, aggregator)
        rr = reciprocal_ranks(scores)
        if totals is None:
            totals = {k: 0.0 for k in rr}
        for k, v in rr.items():
            totals[k] += v
    if totals is None:
        raise AnalysisError("no subjects to analyze")
    n = len(subjects)
    return MrrReport(
        prior_names=list(totals),
        scores=[totals[k] / n for k in totals],
        n_subjects=n,
    )


def mean_gate(model, subjects, priors):
    acc = None
    for subj in subjects:
        g = model.gate_for(subj, priors)
        acc = g if acc is None else acc + g
    return acc / len(subjects)


def export_top_edges(model, subjects, priors, fraction):
    """Top-fraction upper-triangle entries of the subject-averaged gate.

    Returns rows of (roi_i, roi_j, gate, label) sorted by descending gate,
    ties broken by (i, j); label lists the priors covering the edge, or "free".
    """
    if not (0.0 < fraction <= 1.0):
        raise ParameterError(f"fraction must be in (0, 1], got {fraction}")
    avg = mean_gate(model, subjects, priors)
    n = avg.shape[0]
    iu = np.triu_indices(n, k=1)
    n_edges = len(iu[0])
    keep = int(np.ceil(fraction * n_edges))
    entries = sorted(
        zip(avg[iu], iu[0], iu[1]),
        key=lambda t: (-t[0], t[1], t[2]),
    )
    rows = []
    for value, i, j in entries[:keep]:
        covering = [name for name, m in zip(priors.names, priors.masks) if m[i, j] == 1.0]
        label = ";".join(covering) if covering else "free"
        rows.append({"roi_i": int(i), "roi_j": int(j), "gate": float(value), "label": label})
    return rows


def write_table(path, rows, columns):
    """Plain-text CSV with a header row; floats formatted deterministically."""
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for c in columns:
            v = row[c]
            cells.append("%.10g" % v if isinstance(v, float) else str(v))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")
