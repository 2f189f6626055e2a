"""Train a small model end to end and evaluate it.

Uses a deliberately small cohort and model so the script finishes in
about a minute on a laptop.
"""
import os
import tempfile

from braintap.config import TrainConfig
from braintap.data import generate_synthetic_cohort, load_cohort
from braintap.model import BrainTAP
from braintap.pipeline import evaluate_auc, split_subjects, train

with tempfile.TemporaryDirectory(prefix="train_demo_") as out:
    generate_synthetic_cohort(out, n_subjects=200, n_rois=12, n_priors=2,
                              signal_strength=0.6, noise_sd=0.2, seed=3)
    subjects, priors, manifest = load_cohort(out)

cfg = TrainConfig(d=16, n_layers=2, n_heads=2, d_distill=16, z_dim=8,
                  learning_rate=3e-3, epochs=10, patience=10, seed=3)
model, report = train(cfg, subjects, priors, manifest,
                      log=lambda msg: print("  " + msg))

print("best validation AUC: %.4f" % report.val_auc)
test_set = split_subjects(subjects, manifest, "test")
print("test AUC:            %.4f" % evaluate_auc(model, test_set, priors))

# Per-layer exchange ratios: the learned fraction of each modality's
# tokens replaced by cross-modal content.
for row in model.report_ratios():
    print("layer %d: fc_ratio=%.3f sc_ratio=%.3f"
          % (row["layer"], row["fc_ratio"], row["sc_ratio"]))

# Checkpoints round-trip through a single .npz file.
with tempfile.TemporaryDirectory(prefix="train_demo_") as out:
    ckpt = os.path.join(out, "model.npz")
    model.save(ckpt)
    restored = BrainTAP.load(ckpt)
print("restored test AUC:   %.4f" % evaluate_auc(restored, test_set, priors))
