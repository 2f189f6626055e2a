"""Which prior regions does a trained model attend to?

Trains on a cohort whose signal lives only inside prior 1, then shows
that the learned gates rank prior 1 first and that the highest-gate
edges concentrate inside it.
"""
import tempfile

import numpy as np

from braintap.analysis import analyze_mrr, export_top_edges, mean_gate
from braintap.config import TrainConfig
from braintap.data import generate_synthetic_cohort, load_cohort
from braintap.pipeline import split_subjects, train

with tempfile.TemporaryDirectory(prefix="gate_demo_") as out:
    generate_synthetic_cohort(out, n_subjects=200, n_rois=12, n_priors=2,
                              signal_strength=0.6, noise_sd=0.2, seed=5,
                              sc_signal_block=1)
    subjects, priors, manifest = load_cohort(out)

cfg = TrainConfig(d=16, n_layers=2, n_heads=2, d_distill=16, z_dim=8,
                  learning_rate=3e-3, epochs=10, patience=10, seed=5,
                  hyper_lr_scale=20.0)
model, _ = train(cfg, subjects, priors, manifest)
test_set = split_subjects(subjects, manifest, "test")

report = analyze_mrr(model, test_set, priors, warn=print)
for name, score in zip(report.prior_names, report.scores):
    print("prior %-8s mean reciprocal rank %.3f" % (name, score))

rows = export_top_edges(model, test_set, priors, fraction=0.1)
print("top %d edges by mean gate:" % len(rows))
for r in rows:
    print("  (%2d,%2d) gate=%.4f label=%s" % (r["roi_i"], r["roi_j"], r["gate"], r["label"]))

avg = mean_gate(model, test_set, priors)
iu = np.triu_indices(manifest.n_rois, k=1)
for k, name in enumerate(priors.names):
    sel = priors.masks[k][iu] == 1.0
    print("mean gate inside %-8s %.4f" % (name, avg[iu][sel].mean()))
print("mean gate elsewhere       %.4f" % avg[iu][priors.free_mask[iu] == 1.0].mean())
