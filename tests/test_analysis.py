import numpy as np
import pytest

from braintap import analysis, data
from braintap.autograd import ParameterError
from braintap.config import TrainConfig
from braintap.model import BrainTAP

TINY = dict(d=8, n_layers=2, n_heads=2, z_dim=4, d_distill=8)


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    d = data.generate_synthetic_cohort(
        tmp_path_factory.mktemp("cohort") / "c", 30, 10, 2, 0.4, 0.2, seed=3
    )
    return data.load_cohort(d)


@pytest.fixture(scope="module")
def model(cohort):
    _, priors, manifest = cohort
    m = BrainTAP(TrainConfig(**TINY), manifest.n_rois, len(priors))
    # non-trivial gates without training
    rng = np.random.default_rng(0)
    for name, w in m.params.items():
        if name.startswith("spf.wg"):
            w.data[:] = rng.normal(size=w.shape)
    return m


class TestMrr:
    def test_single_prior_is_always_one(self, tmp_path):
        d = data.generate_synthetic_cohort(tmp_path / "c", 10, 8, 1, 0.4, 0.2, seed=0)
        subjects, priors, manifest = data.load_cohort(d)
        m = BrainTAP(TrainConfig(**TINY), manifest.n_rois, 1)
        report = analysis.analyze_mrr(m, subjects, priors)
        assert report.scores == [1.0]

    def test_fixed_ranking_gives_one_and_half(self, cohort):
        subjects, priors, manifest = cohort
        m = BrainTAP(TrainConfig(**TINY), manifest.n_rois, len(priors))
        m.params["spf.wg0"].data[:] = 5.0  # prior 1 always wins
        report = analysis.analyze_mrr(m, subjects, priors)
        by_name = dict(zip(report.prior_names, report.scores))
        assert by_name["block1"] == 1.0
        assert by_name["block2"] == 0.5

    def test_subject_ranks_are_reciprocal_permutation(self, model, cohort):
        subjects, priors, _ = cohort
        gate = model.gate_for(subjects[0], priors)
        scores = analysis.prior_gate_scores(gate, priors)
        rr = analysis.reciprocal_ranks(scores)
        assert sorted(rr.values()) == [0.5, 1.0]

    def test_matches_brute_force_reranking(self, model, cohort):
        subjects, priors, _ = cohort
        report = analysis.analyze_mrr(model, subjects, priors)
        totals = {n: 0.0 for n in priors.names}
        for s in subjects:
            gate = model.gate_for(s, priors)
            vals = {}
            iu = np.triu_indices(gate.shape[0], k=1)
            for name, mask in zip(priors.names, priors.masks):
                sel = mask[iu] == 1.0
                vals[name] = gate[iu][sel].mean()
            ordered = sorted(priors.names, key=lambda n: -vals[n])
            for rank, name in enumerate(ordered, start=1):
                totals[name] += 1.0 / rank
        for name, score in zip(report.prior_names, report.scores):
            assert score == pytest.approx(totals[name] / len(subjects), abs=1e-12)

    def test_scores_within_bounds(self, model, cohort):
        subjects, priors, _ = cohort
        report = analysis.analyze_mrr(model, subjects, priors)
        for s in report.scores:
            assert 0.5 <= s <= 1.0  # K = 2

    def test_aggregator_flags(self, model, cohort):
        subjects, priors, _ = cohort
        for agg in analysis.AGGREGATORS:
            report = analysis.analyze_mrr(model, subjects, priors, aggregator=agg)
            assert len(report.scores) == 2

    def test_include_free_flag(self, model, cohort):
        subjects, priors, _ = cohort
        report = analysis.analyze_mrr(model, subjects, priors, include_free=True)
        assert "free" in report.prior_names


class TestTopEdges:
    def test_full_fraction_returns_all(self, model, cohort):
        subjects, priors, manifest = cohort
        rows = analysis.export_top_edges(model, subjects, priors, 1.0)
        n = manifest.n_rois
        assert len(rows) == n * (n - 1) // 2

    def test_tiny_fraction_ceiling(self, model, cohort):
        subjects, priors, _ = cohort
        rows = analysis.export_top_edges(model, subjects, priors, 0.0001)
        assert len(rows) == 1  # ceil(0.0001 * 45)

    def test_selection_is_descending_prefix(self, model, cohort):
        subjects, priors, _ = cohort
        small = analysis.export_top_edges(model, subjects, priors, 0.2)
        big = analysis.export_top_edges(model, subjects, priors, 0.6)
        assert big[: len(small)] == small
        gates = [r["gate"] for r in big]
        assert gates == sorted(gates, reverse=True)

    def test_upper_triangle_only(self, model, cohort):
        subjects, priors, _ = cohort
        for row in analysis.export_top_edges(model, subjects, priors, 1.0):
            assert row["roi_i"] < row["roi_j"]

    def test_labels_match_masks(self, model, cohort):
        subjects, priors, _ = cohort
        for row in analysis.export_top_edges(model, subjects, priors, 1.0):
            i, j = row["roi_i"], row["roi_j"]
            covering = [n for n, m in zip(priors.names, priors.masks) if m[i, j] == 1.0]
            assert row["label"] == (";".join(covering) if covering else "free")

    def test_fraction_out_of_range(self, model, cohort):
        subjects, priors, _ = cohort
        with pytest.raises(ParameterError):
            analysis.export_top_edges(model, subjects, priors, 0.0)
        with pytest.raises(ParameterError):
            analysis.export_top_edges(model, subjects, priors, 1.5)


def test_write_table_deterministic(tmp_path):
    rows = [{"a": 1, "b": 0.123456789}, {"a": 2, "b": 1.0 / 3.0}]
    analysis.write_table(tmp_path / "t1.csv", rows, ["a", "b"])
    analysis.write_table(tmp_path / "t2.csv", rows, ["a", "b"])
    text = (tmp_path / "t1.csv").read_text()
    assert text.splitlines()[0] == "a,b"
    assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()
