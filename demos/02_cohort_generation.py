"""Generate a synthetic planted-signal cohort and look inside it.

Class-1 subjects carry an additive signal inside prior block 1 of FC and
prior block 2 of SC; both modalities share per-subject confound noise.
"""
import os
import tempfile

import numpy as np

from braintap.data import generate_synthetic_cohort, load_cohort

# The cohort is written to a temporary directory that is removed once loaded.
with tempfile.TemporaryDirectory(prefix="cohort_demo_") as out:
    generate_synthetic_cohort(out, n_subjects=100, n_rois=12, n_priors=2,
                              signal_strength=0.6, noise_sd=0.2, seed=1)
    subjects, priors, manifest = load_cohort(out)
    print("cohort files:", len(os.listdir(out)))

print("subjects:", len(subjects), " ROIs:", manifest.n_rois)
print("priors:", priors.names)
print("split sizes:", {s: len(manifest.split_ids(s)) for s in ("train", "val", "test")})

# The planted signal shows up as a class-mean difference inside prior 1 of FC.
iu = np.triu_indices(manifest.n_rois, k=1)
in_prior1 = priors.masks[0][iu] == 1.0
fc_stack = {lab: np.stack([s.fc[iu] for s in subjects if s.label == lab]) for lab in (0, 1)}
diff = fc_stack[1].mean(axis=0) - fc_stack[0].mean(axis=0)
print("mean FC class difference inside prior 1: %.3f" % diff[in_prior1].mean())
print("mean FC class difference elsewhere:      %.3f" % diff[~in_prior1].mean())

# The free mask covers exactly the edges no prior claims.
covered = np.maximum(priors.masks[0], priors.masks[1])
print("free mask disjoint from priors:", np.all(priors.free_mask * covered == 0.0))
