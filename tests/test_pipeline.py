import itertools

import numpy as np
import pytest

from braintap import autograd as ag
from braintap import data, pipeline
from braintap.config import TrainConfig

TINY = dict(d=8, n_layers=2, n_heads=2, z_dim=4, d_distill=8)


@pytest.fixture(scope="module")
def tiny_cohort(tmp_path_factory):
    d = data.generate_synthetic_cohort(
        tmp_path_factory.mktemp("cohort") / "c", 40, 8, 2, 0.6, 0.15, seed=7
    )
    return data.load_cohort(d)


class TestTotalLoss:
    def test_bce_at_zero_logit(self):
        loss = pipeline.total_loss(ag.Tensor([[0.0]]), 1.0, [], 1.0)
        assert abs(loss.item() - np.log(2.0)) < 1e-12

    def test_zero_weight_drops_distill(self):
        dl = [ag.Tensor([[5.0]])]
        a = pipeline.total_loss(ag.Tensor([[0.3]]), 0.0, dl, 0.0)
        b = pipeline.total_loss(ag.Tensor([[0.3]]), 0.0, [], 1.0)
        assert a.item() == b.item()

    def test_hand_sum(self):
        logit = ag.Tensor([[0.0]])
        dl = [ag.Tensor([[0.1]]), ag.Tensor([[0.2]])]
        loss = pipeline.total_loss(logit, 1.0, dl, 1.0)
        assert abs(loss.item() - (np.log(2.0) + 0.3)) < 1e-12


class TestAuc:
    def test_perfect_separation(self):
        assert pipeline.auc([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0]) == 1.0

    def test_anti_separation(self):
        assert pipeline.auc([0.9, 0.8, 0.3, 0.2], [0, 0, 1, 1]) == 0.0

    def test_tie_convention(self):
        assert pipeline.auc([0.5, 0.5], [1, 0]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(pipeline.MetricError):
            pipeline.auc([0.1, 0.2], [1, 1])

    def test_matches_brute_force_pair_counting(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = rng.integers(4, 20)
            scores = np.round(rng.random(n), 1)  # force some ties
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            pos = scores[labels == 1]
            neg = scores[labels == 0]
            brute = sum(
                1.0 if p > q else (0.5 if p == q else 0.0)
                for p, q in itertools.product(pos, neg)
            ) / (len(pos) * len(neg))
            assert pipeline.auc(scores, labels) == pytest.approx(brute, abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        scores = rng.random(12)
        labels = rng.integers(0, 2, size=12)
        labels[0], labels[1] = 0, 1
        a = pipeline.auc(scores, labels)
        b = pipeline.auc(np.exp(3 * scores), labels)
        assert a == b


class TestAdamW:
    def test_zero_lr_leaves_params_unchanged(self):
        p = ag.Tensor(np.ones((2, 2)), requires_grad=True)
        p.grad = np.ones((2, 2))
        before = p.data.copy()
        opt = pipeline.AdamW([p], lr=0.0, weight_decay=0.1)
        opt.step()
        np.testing.assert_array_equal(p.data, before)

    def test_descends_a_quadratic(self):
        p = ag.Tensor([[5.0]], requires_grad=True)
        opt = pipeline.AdamW([p], lr=0.1)
        for _ in range(200):
            p.zero_grad()
            loss = ag.hadamard(p, p)
            loss.backward()
            opt.step()
        assert abs(p.data[0, 0]) < 0.1

    def test_decoupled_weight_decay_shrinks(self):
        p = ag.Tensor([[1.0]], requires_grad=True)
        p.grad = np.zeros((1, 1))
        opt = pipeline.AdamW([p], lr=0.5, weight_decay=0.1)
        opt.step()
        assert p.data[0, 0] == pytest.approx(1.0 - 0.5 * 0.1)


class TestTrain:
    def test_smoke_two_subject(self, tmp_path):
        d = data.generate_synthetic_cohort(tmp_path / "c", 10, 8, 1, 0.5, 0.2, seed=1)
        cohort = data.load_cohort(d)
        cfg = TrainConfig(epochs=1, batch_size=4, **TINY)
        _, report = pipeline.train(cfg, *cohort)
        assert np.isfinite(report.train_losses[0])

    def test_determinism(self, tiny_cohort, tmp_path):
        cfg = TrainConfig(epochs=2, batch_size=8, learning_rate=1e-3, **TINY)
        m1, r1 = pipeline.train(cfg, *tiny_cohort, metrics_path=tmp_path / "m1.csv")
        m2, r2 = pipeline.train(cfg, *tiny_cohort, metrics_path=tmp_path / "m2.csv")
        assert r1.test_auc == r2.test_auc
        assert (tmp_path / "m1.csv").read_bytes() == (tmp_path / "m2.csv").read_bytes()
        for t1, t2 in zip(m1.params.values(), m2.params.values()):
            np.testing.assert_array_equal(t1.data, t2.data)

    def test_loss_decreases(self, tiny_cohort):
        cfg = TrainConfig(epochs=12, batch_size=8, learning_rate=3e-3, patience=50, **TINY)
        _, report = pipeline.train(cfg, *tiny_cohort)
        assert report.train_losses[-1] < report.train_losses[0]

    def test_empty_split_rejected(self, tiny_cohort):
        subjects, priors, manifest = tiny_cohort
        bad = data.CohortManifest(
            n_rois=manifest.n_rois,
            subjects=[dict(r, split="test") for r in manifest.subjects],
            priors=manifest.priors,
        )
        with pytest.raises(pipeline.TrainingError, match="empty train split"):
            pipeline.train(TrainConfig(epochs=1, **TINY), subjects, priors, bad)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_abort_names_offender(self, tiny_cohort):
        subjects, priors, manifest = tiny_cohort
        cfg = TrainConfig(epochs=1, batch_size=8, **TINY)
        poisoned = [
            data.Subject(s.id, s.fc * np.inf, s.sc, s.label) for s in subjects
        ]
        with pytest.raises(pipeline.TrainingError, match="non-finite"):
            pipeline.train(cfg, poisoned, priors, manifest)

    def test_non_finite_gradient_stops_before_the_step(self, tiny_cohort, monkeypatch):
        """A finite loss whose backward pass yields NaN gradients must abort
        the training before AdamW.step uses them, naming the parameter."""
        bce = ag.bce_with_logits

        def nan_gradient_bce(logit, y):
            out = bce(logit, y)
            backward = out._backward
            out._backward = lambda g: backward(g * np.nan)
            return out

        steps = []
        step = pipeline.AdamW.step
        monkeypatch.setattr(ag, "bce_with_logits", nan_gradient_bce)
        monkeypatch.setattr(pipeline.AdamW, "step", lambda opt: steps.append(1) or step(opt))
        cfg = TrainConfig(epochs=1, batch_size=8, **TINY)
        with pytest.raises(pipeline.TrainingError, match="gradient of enc_fc.embed.w1"):
            pipeline.train(cfg, *tiny_cohort)
        assert steps == []


class TestRunAblation:
    def test_shape_and_sanity_on_separable_cohort(self, tmp_path):
        d = data.generate_synthetic_cohort(tmp_path / "c", 40, 8, 2, 3.0, 0.05, seed=4)
        cohort = data.load_cohort(d)
        cfg = TrainConfig(epochs=6, batch_size=8, learning_rate=3e-3, **TINY)
        rows = pipeline.run_ablation(cfg, *cohort, seeds=(0,))
        assert [r["variant"] for r in rows] == [
            "full", "w/o AMD", "w/o G-SPF", "w/o P-SPF", "w/o AMD+SPF"]
        for row in rows:
            assert set(row) >= {"variant", "mean_auc", "sd_auc"}
            assert row["mean_auc"] > 0.8  # trivially separable
