"""Cohort data structures, on-disk formats, and the synthetic cohort generator.

Directory layout::

    cohort/
      manifest.json            one flat JSON object (fields documented in README)
      fc_<id>.csv, sc_<id>.csv per-subject N x N connectivity matrices
      prior_<name>.csv         binary prior masks

Matrix files are N lines of N comma-separated decimals, no header.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SYMMETRY_TOL = 1e-9

# Structured components of the generator's Gaussian noise, as multiples of
# noise_sd. All are zero-mean and class-independent. The shared entrywise
# component, per-subject offset, and per-ROI row/column factor are drawn
# once per subject and reused in both modalities, so they cancel under
# cross-modal comparison but not within a single modality; the private
# entrywise component differs per modality and never cancels.
NOISE_ENTRY_SCALE = 3.0
NOISE_SHARED_ENTRY_SCALE = 4.0
NOISE_OFFSET_SCALE = 1.5
NOISE_ROW_SCALE = 2.0
# Every subject gets one boosted edge inside the first prior block in each
# modality, with strength ALIGNED_EDGE_SCALE * noise_sd. Class 1 reuses the
# same edge in both modalities; class 0 draws them independently. Each
# modality's marginal distribution is identical across classes, so this
# component is readable only by comparing the modalities token by token.
ALIGNED_EDGE_SCALE = 15.0


class CohortError(ValueError):
    """A cohort file is missing, malformed, or violates an invariant."""


@dataclass
class Subject:
    """One participant: functional and structural connectivity plus label."""

    id: str
    fc: np.ndarray
    sc: np.ndarray
    label: int


@dataclass
class PriorSet:
    """Named binary prior masks plus the derived uncovered-region mask."""

    names: list[str]
    masks: list[np.ndarray]
    free_mask: np.ndarray = field(init=False)

    def __post_init__(self):
        self.free_mask = derive_free_mask(self.masks, n_rois=self._n_rois())

    def _n_rois(self):
        if self.masks:
            return self.masks[0].shape[0]
        raise CohortError("PriorSet requires at least one mask")

    @property
    def n_rois(self):
        return self._n_rois()

    def __len__(self):
        return len(self.names)


@dataclass
class CohortManifest:
    n_rois: int
    subjects: list[dict]  # id, label, fc, sc, split
    priors: list[dict]  # name, path
    seed: int | None = None

    def split_ids(self, split):
        return [s["id"] for s in self.subjects if s["split"] == split]


def derive_free_mask(masks, n_rois=None):
    """Off-diagonal entries covered by no mask; 1 - max_k over the stack."""
    if not masks:
        if n_rois is None:
            raise CohortError("derive_free_mask: need n_rois when no masks given")
        free = np.ones((n_rois, n_rois))
    else:
        free = 1.0 - np.maximum.reduce([m for m in masks])
    np.fill_diagonal(free, 0.0)
    return free


def _validate_square_symmetric(mat, path, n_expected=None):
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise CohortError(f"{path}: expected a square matrix, got shape {mat.shape}")
    if n_expected is not None and mat.shape[0] != n_expected:
        raise CohortError(
            f"{path}: expected {n_expected}x{n_expected}, got {mat.shape[0]}x{mat.shape[1]}"
        )
    if np.abs(mat - mat.T).max() > SYMMETRY_TOL:
        raise CohortError(f"{path}: matrix is asymmetric beyond {SYMMETRY_TOL}")
    if np.abs(np.diag(mat)).max() > 0.0:
        raise CohortError(f"{path}: nonzero diagonal entry")


def _read_matrix(path):
    path = Path(path)
    if not path.exists():
        raise CohortError(f"{path}: missing file")
    try:
        rows = [
            [float(v) for v in line.split(",")]
            for line in path.read_text().strip().splitlines()
        ]
    except ValueError as e:
        raise CohortError(f"{path}: unparseable value ({e})") from None
    widths = {len(r) for r in rows}
    if len(widths) != 1 or widths.pop() != len(rows):
        raise CohortError(f"{path}: ragged or non-square matrix")
    return np.array(rows, dtype=np.float64)


def _write_matrix(path, mat):
    lines = [",".join(f"{v:.17g}" for v in row) for row in mat]
    Path(path).write_text("\n".join(lines) + "\n")


def load_cohort(cohort_dir):
    """Load and validate a cohort directory.

    Returns (subjects, priors, manifest). Any invariant violation raises
    CohortError naming the offending file.
    """
    cohort_dir = Path(cohort_dir)
    manifest_path = cohort_dir / "manifest.json"
    if not manifest_path.exists():
        raise CohortError(f"{manifest_path}: missing file")
    raw = json.loads(manifest_path.read_text())
    manifest = CohortManifest(
        n_rois=int(raw["n_rois"]),
        subjects=raw["subjects"],
        priors=raw["priors"],
        seed=raw.get("seed"),
    )
    n = manifest.n_rois

    masks, names = [], []
    for rec in manifest.priors:
        path = cohort_dir / rec["path"]
        mask = _read_matrix(path)
        _validate_square_symmetric(mask, path, n)
        if not np.isin(mask, (0.0, 1.0)).all():
            raise CohortError(f"{path}: non-binary prior entry")
        names.append(rec["name"])
        masks.append(mask)
    priors = PriorSet(names=names, masks=masks)

    subjects = []
    for rec in manifest.subjects:
        if rec["label"] not in (0, 1):
            raise CohortError(f"{manifest_path}: invalid label {rec['label']!r} for subject {rec['id']}")
        fc = _read_matrix(cohort_dir / rec["fc"])
        _validate_square_symmetric(fc, cohort_dir / rec["fc"], n)
        sc = _read_matrix(cohort_dir / rec["sc"])
        _validate_square_symmetric(sc, cohort_dir / rec["sc"], n)
        subjects.append(Subject(id=rec["id"], fc=fc, sc=sc, label=int(rec["label"])))
    return subjects, priors, manifest


def _block_masks(n_rois, k):
    """K disjoint within-block masks over the first 2K equal ROI blocks."""
    size = max(2, n_rois // (2 * k)) if k > 1 else max(3, n_rois // 3)
    if k * size > n_rois:
        raise CohortError(f"too many priors ({k}) for {n_rois} ROIs")
    masks = []
    for i in range(k):
        lo, hi = i * size, (i + 1) * size
        m = np.zeros((n_rois, n_rois))
        m[lo:hi, lo:hi] = 1.0
        np.fill_diagonal(m, 0.0)
        masks.append(m)
    return masks


def _sym_entry_noise(rng, n):
    entry = rng.normal(size=(n, n))
    return (entry + entry.T) / np.sqrt(2.0)


def _symmetric_noise(rng, n, noise_sd, shared, offset, rowfac):
    """Zero-mean symmetric Gaussian noise with structured confounds.

    shared, offset, and rowfac are confound draws reused by the subject's
    other modality; sharing them makes those components removable only by
    comparing the modalities against each other.
    """
    noise = (
        NOISE_ENTRY_SCALE * _sym_entry_noise(rng, n)
        + NOISE_SHARED_ENTRY_SCALE * shared
        + NOISE_OFFSET_SCALE * offset * np.ones((n, n))
        + NOISE_ROW_SCALE * (rowfac[:, None] + rowfac[None, :]) / 2.0
    )
    np.fill_diagonal(noise, 0.0)
    return noise_sd * noise


def generate_synthetic_cohort(
    out_dir,
    n_subjects,
    n_rois,
    n_priors,
    signal_strength,
    noise_sd,
    seed,
    sc_signal_block=None,
):
    """Write a planted-signal cohort to out_dir and return its manifest.

    Class-1 subjects get +signal_strength on the entries of prior block 1
    in FC, and of prior block ``sc_signal_block`` (default 2, or 1 when
    only one prior exists) in SC, before symmetric Gaussian noise. Every
    subject also gets one boosted edge inside prior block 1 per modality;
    class 1 places it at the same position in FC and SC (see
    ALIGNED_EDGE_SCALE). Deterministic per seed; classes balanced; splits
    60/20/20 stratified.
    """
    if n_rois < 6:
        raise CohortError(f"n_rois must be >= 6, got {n_rois}")
    if n_priors < 1:
        raise CohortError(f"n_priors must be >= 1, got {n_priors}")
    if n_subjects % 2 != 0 or n_subjects < 2:
        raise CohortError(f"n_subjects must be even and positive, got {n_subjects}")
    if sc_signal_block is None:
        sc_signal_block = 2 if n_priors >= 2 else 1
    if not (1 <= sc_signal_block <= n_priors):
        raise CohortError(f"sc_signal_block {sc_signal_block} out of range")

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    masks = _block_masks(n_rois, n_priors)
    fc_signal = signal_strength * masks[0]
    sc_signal = signal_strength * masks[sc_signal_block - 1]
    block1_rois = np.flatnonzero(masks[0].sum(axis=0) > 0)
    edge_pool = [
        (int(a), int(b))
        for k, a in enumerate(block1_rois)
        for b in block1_rois[k + 1:]
    ]
    edge_boost = ALIGNED_EDGE_SCALE * noise_sd

    prior_records = []
    for i, mask in enumerate(masks, start=1):
        name = f"block{i}"
        _write_matrix(out_dir / f"prior_{name}.csv", mask)
        prior_records.append({"name": name, "path": f"prior_{name}.csv"})

    labels = np.array([0, 1] * (n_subjects // 2))
    subject_records = []
    per_class = {0: [], 1: []}
    for idx in range(n_subjects):
        sid = f"s{idx:04d}"
        label = int(labels[idx])
        shared = _sym_entry_noise(rng, n_rois)
        offset = rng.normal()
        rowfac = rng.normal(size=n_rois)
        fc = _symmetric_noise(rng, n_rois, noise_sd,
                              shared=shared, offset=offset, rowfac=rowfac)
        sc = _symmetric_noise(rng, n_rois, noise_sd,
                              shared=shared, offset=offset, rowfac=rowfac)
        if label == 1:
            fc = fc + fc_signal
            sc = sc + sc_signal
        picks = rng.integers(len(edge_pool), size=2)
        fc_edge = edge_pool[picks[0]]
        sc_edge = edge_pool[picks[0] if label == 1 else picks[1]]
        for (a, b), mat in ((fc_edge, fc), (sc_edge, sc)):
            mat[a, b] += edge_boost
            mat[b, a] += edge_boost
        _write_matrix(out_dir / f"fc_{sid}.csv", fc)
        _write_matrix(out_dir / f"sc_{sid}.csv", sc)
        rec = {"id": sid, "label": label, "fc": f"fc_{sid}.csv", "sc": f"sc_{sid}.csv"}
        subject_records.append(rec)
        per_class[label].append(rec)

    # stratified 60/20/20
    for recs in per_class.values():
        order = rng.permutation(len(recs))
        n_train = int(round(0.6 * len(recs)))
        n_val = int(round(0.2 * len(recs)))
        for rank, j in enumerate(order):
            if rank < n_train:
                recs[j]["split"] = "train"
            elif rank < n_train + n_val:
                recs[j]["split"] = "val"
            else:
                recs[j]["split"] = "test"

    manifest = {
        "version": 1,
        "n_rois": n_rois,
        "seed": seed,
        "priors": prior_records,
        "subjects": subject_records,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return out_dir
