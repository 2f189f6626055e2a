"""Checks of the program's outputs against the reference computations.

Each check raises CheckFailure with a message naming what disagrees.
"""
from __future__ import annotations

import csv
import io
import math
import re
from pathlib import Path

import numpy as np
from scipy.special import expit

import reference as ref

AUC_TOL = 1e-9  # printed AUCs carry 10 significant digits
VALUE_RTOL = 1e-8
TIE_BAND = 1e-9


class CheckFailure(AssertionError):
    pass


def require(cond, msg):
    if not cond:
        raise CheckFailure(msg)


def read_table(path):
    return list(csv.DictReader(io.StringIO(Path(path).read_text())))


def printed_value(stdout, key):
    m = re.search(rf"\b{key}=(\S+)", stdout)
    require(m is not None, f"no {key}= in output {stdout.strip()!r}")
    return float(m.group(1))


def close(a, b):
    return abs(a - b) <= VALUE_RTOL * max(1.0, abs(b))


def check_cohort(cohort_dir, n_subjects, n_rois, n_priors, n_sampled=16):
    """Requested count, balanced labels, stratified 60/20/20 split, and
    finite, symmetric, zero-diagonal matrices on a sample of subjects."""
    manifest = ref.read_manifest(cohort_dir)
    subjects = manifest["subjects"]
    require(len(subjects) == n_subjects, f"{len(subjects)} subjects, asked for {n_subjects}")
    require(len({s["id"] for s in subjects}) == n_subjects, "duplicate subject ids")
    for label in (0, 1):
        recs = [s for s in subjects if s["label"] == label]
        require(len(recs) == n_subjects // 2, f"{len(recs)} subjects of class {label}")
        counts = {split: sum(s["split"] == split for s in recs) for split in ("train", "val", "test")}
        require(sum(counts.values()) == len(recs), f"class {label}: unknown split name")
        for split, share in (("train", 0.6), ("val", 0.2), ("test", 0.2)):
            require(abs(counts[split] - share * len(recs)) <= 1.0,
                    f"class {label}: {counts[split]} {split} subjects of {len(recs)}")
    _, masks, _ = ref.read_priors(cohort_dir, manifest)
    require(len(masks) == n_priors, f"{len(masks)} priors, asked for {n_priors}")
    for mask in masks:
        require(np.isin(mask, (0.0, 1.0)).all(), "non-binary prior mask")
    step = max(1, n_subjects // n_sampled)
    for rec in subjects[::step]:
        for key in ("fc", "sc"):
            mat = ref.read_matrix(Path(cohort_dir) / rec[key])
            require(mat.shape == (n_rois, n_rois), f"{rec[key]}: shape {mat.shape}")
            require(np.isfinite(mat).all(), f"{rec[key]}: non-finite entry")
            require(np.array_equal(mat, mat.T), f"{rec[key]}: asymmetric")
            require(not np.diag(mat).any(), f"{rec[key]}: nonzero diagonal")


def check_auc(printed, probs, labels, what):
    lo, hi = ref.auc_bounds(probs, labels, TIE_BAND)
    require(lo - AUC_TOL <= printed <= hi + AUC_TOL,
            f"{what}: printed {printed!r}, reference AUC in [{lo:.12g}, {hi:.12g}]")


def check_train(stdout, metrics_path, epochs, val, test):
    """train's printed val/test AUCs against the reference, and its metrics CSV.

    val and test are (probabilities, labels) from the reference forward.
    """
    rows = read_table(metrics_path)
    require(len(rows) == epochs, f"metrics.csv has {len(rows)} epochs, expected {epochs}")
    val_auc = printed_value(stdout, "val_auc")
    best = max(float(r["val_auc"]) for r in rows)
    require(val_auc == best, f"printed val_auc {val_auc!r} is not the best epoch's {best!r}")
    check_auc(val_auc, *val, "train val_auc")
    check_auc(printed_value(stdout, "test_auc"), *test, "train test_auc")


def region_means(gates, masks):
    """(S, K+1) mean gate over each region's upper-triangle entries."""
    iu = np.triu_indices(gates.shape[1], k=1)
    upper = gates[:, iu[0], iu[1]]
    return np.stack([upper[:, m[iu] == 1.0].mean(axis=1) for m in masks], axis=1)


def check_mrr(mrr_path, gates, names, masks):
    """mrr.csv (with the free region) against reciprocal ranks of the
    reference gates; its scores must sum to the harmonic number H_{K+1}."""
    regions = names + ["free"]
    got = {r["prior"]: float(r["mrr"]) for r in read_table(mrr_path)}
    require(sorted(got) == sorted(regions), f"mrr.csv regions {sorted(got)}, expected {regions}")
    harmonic = sum(1.0 / r for r in range(1, len(regions) + 1))
    total = sum(got.values())
    require(abs(total - harmonic) <= 1e-8,
            f"mrr.csv sums to {total:.12g}, not H_{len(regions)} = {harmonic:.12g}")
    scores = region_means(gates, masks)
    # stable sort on the negated score breaks ties by listing order
    order = np.argsort(-scores, axis=1, kind="stable")
    rr = np.empty_like(scores)
    np.put_along_axis(rr, order, 1.0 / np.arange(1, scores.shape[1] + 1)[None, :], axis=1)
    ranked = np.sort(scores, axis=1)
    ambiguous = (np.diff(ranked, axis=1) <= TIE_BAND).any(axis=1).mean()
    want = rr.mean(axis=0)
    for name, w in zip(regions, want):
        require(abs(got[name] - w) <= ambiguous + 1e-9, f"mrr of {name}: {got[name]!r}, reference {w:.12g}")


def check_top_edges(edges_path, gates, fraction, names, masks):
    rows = read_table(edges_path)
    mean_gate = gates.mean(axis=0)
    n = mean_gate.shape[0]
    n_pairs = n * (n - 1) // 2
    require(len(rows) == math.ceil(fraction * n_pairs),
            f"{len(rows)} edges, expected ceil({fraction} * {n_pairs})")
    printed = [float(r["gate"]) for r in rows]
    require(printed == sorted(printed, reverse=True), "edges not sorted by descending gate")
    chosen = set()
    for r in rows:
        i, j, g = int(r["roi_i"]), int(r["roi_j"]), float(r["gate"])
        require(0 <= i < j < n, f"edge ({i}, {j}) is not in the upper triangle")
        require(close(g, mean_gate[i, j]), f"edge ({i}, {j}): gate {g!r}, reference {mean_gate[i, j]:.12g}")
        covering = [nm for nm, m in zip(names, masks) if m[i, j] == 1.0]
        want = ";".join(covering) or "free"
        require(r["label"] == want, f"edge ({i}, {j}): label {r['label']!r}, prior CSVs say {want!r}")
        chosen.add((i, j))
    iu = np.triu_indices(n, k=1)
    left = [mean_gate[i, j] for i, j in zip(*iu) if (i, j) not in chosen]
    if left:
        lowest = min(mean_gate[i, j] for i, j in chosen)
        require(max(left) <= lowest + TIE_BAND, "a higher-gate edge was left out")


def check_ratios(ratios_path, params):
    rows = read_table(ratios_path)
    n_layers = sum(1 for k in params if k.endswith(".raw_beta"))
    require(len(rows) == n_layers, f"{len(rows)} ratio rows for {n_layers} layers")
    for l, r in enumerate(rows):
        fc, sc = float(r["fc_ratio"]), float(r["sc_ratio"])
        require(0.0 < fc < 1.0 and 0.0 < sc < 1.0, f"layer {r['layer']}: ratio outside (0, 1)")
        require(close(fc, expit(params[f"amd{l}.raw_gamma"][0, 0])), f"layer {r['layer']}: fc_ratio {fc!r}")
        require(close(sc, expit(params[f"amd{l}.raw_beta"][0, 0])), f"layer {r['layer']}: sc_ratio {sc!r}")


class OutputChecker:
    """The output checks of one round. Cohort splits are read once per run;
    the reference forward runs once per split and round."""

    def __init__(self, train_dir, score_dir, epochs, fraction, split="test"):
        self.train_dir, self.score_dir = Path(train_dir), Path(score_dir)
        self.epochs, self.fraction, self.split = epochs, fraction, split
        self._splits = {}
        manifest = ref.read_manifest(score_dir)
        self.names, masks, free = ref.read_priors(score_dir, manifest)
        self.masks = masks + [free]

    def _split(self, cohort_dir, split):
        key = (cohort_dir, split)
        if key not in self._splits:
            self._splits[key] = ref.read_split(cohort_dir, ref.read_manifest(cohort_dir), split)
        return self._splits[key]

    def checks(self, out):
        """(name, thunk) pairs for one round's outputs.

        out maps checkpoint, metrics, mrr, edges and ratios to the files
        written, and stdout to the captured output of each command.
        """
        forwards = {}

        def reference(cohort_dir, split):
            """(probabilities, labels, gates) of one split under the checkpoint."""
            if (cohort_dir, split) not in forwards:
                params, cfg = ref.load_checkpoint(out["checkpoint"])
                fc, sc, labels = self._split(cohort_dir, split)
                logits, gates = ref.forward(params, cfg, fc, sc, self.masks)
                forwards[cohort_dir, split] = (ref.probability(logits), labels, gates)
            return forwards[cohort_dir, split]

        def train():
            check_train(out["stdout"]["train"], out["metrics"], self.epochs,
                        reference(self.train_dir, "val")[:2], reference(self.train_dir, "test")[:2])

        def scored():
            return reference(self.score_dir, self.split)

        return [
            ("check.train", train),
            ("check.evaluate", lambda: check_auc(printed_value(out["stdout"]["evaluate"], f"{self.split}_auc"),
                                                 *scored()[:2], "evaluate")),
            ("check.mrr", lambda: check_mrr(out["mrr"], scored()[2], self.names, self.masks)),
            ("check.top_edges", lambda: check_top_edges(out["edges"], scored()[2], self.fraction,
                                                        self.names, self.masks[:-1])),
            ("check.ratios", lambda: check_ratios(out["ratios"], ref.load_checkpoint(out["checkpoint"])[0])),
        ]
