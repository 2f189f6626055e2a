"""End-to-end acceptance suite.

One test per release gate: documentation honesty, full-model gradient
correctness against finite differences, module invariants on random
instances, bit-identical ablation equivalences, the directional synthetic
benchmark with its runtime budget, the ratio-table properties, prior
recovery on a cohort with a known planted region, and byte-level
determinism of the command-line workflows.
"""
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

from braintap import analysis
from braintap import autograd as ag
from braintap import encoder as enc
from braintap import spf
from braintap.benchmark import ABLATION_VARIANTS, COHORT, SEEDS, benchmark_config
from braintap.config import TrainConfig
from braintap.data import PriorSet, derive_free_mask, generate_synthetic_cohort, load_cohort
from braintap.model import BrainTAP
from braintap.pipeline import auc, evaluate_auc, split_subjects, total_loss, train

ROOT = pathlib.Path(__file__).resolve().parents[1]

TINY = dict(d=8, n_layers=2, n_heads=2, z_dim=4, d_distill=8)
TINY_N = 6


def tiny_priors(n=TINY_N):
    m1 = np.zeros((n, n))
    m1[0 : n // 2, 0 : n // 2] = 1.0
    np.fill_diagonal(m1, 0.0)
    m2 = np.zeros((n, n))
    m2[n // 2 :, n // 2 :] = 1.0
    np.fill_diagonal(m2, 0.0)
    return PriorSet(names=["a", "b"], masks=[m1, m2])


def random_symmetric(rng, n):
    m = rng.normal(size=(n, n))
    m = (m + m.T) / 2
    np.fill_diagonal(m, 0.0)
    return m


def test_validation_is_synthetic_and_property_based():
    """Published clinical AUC figures need restricted cohort data; the README
    must say so, and nothing in this repository may depend on such data."""
    readme = (ROOT / "README.md").read_text().lower()
    assert "restricted" in readme and "synthetic" in readme
    assert "not reproduc" in readme or "cannot be reproduc" in readme


def test_full_model_gradient_matches_finite_differences():
    """Central differences (h=1e-5) on every parameter of the tiny config,
    with the detached distillation weights held at their base values."""
    start = time.time()
    rng = np.random.default_rng(7)
    cfg = TrainConfig(**TINY)
    model = BrainTAP(cfg, TINY_N, 2)
    priors = tiny_priors()
    fc, sc = random_symmetric(rng, TINY_N), random_symmetric(rng, TINY_N)
    label = 1

    # Nudge every parameter off its (often zero) init so no gradient path
    # is trivially inactive at the test point.
    for p in model.params.values():
        p.data = p.data + 0.05 * rng.normal(size=p.data.shape)

    with ag.no_grad():
        frozen = {
            l: (ag.sigmoid(model.params[f"amd{l}.raw_beta"]).item(),
                ag.sigmoid(model.params[f"amd{l}.raw_gamma"]).item())
            for l in range(cfg.n_layers)
        }

    def loss_value():
        res = model.forward(fc, sc, priors, detached_ratios=frozen)
        return total_loss(res.logit, label, res.distill_losses, 1.0)

    model.zero_grad()
    loss_value().backward()

    h = 1e-5
    worst = 0.0
    for name, p in model.params.items():
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        it = np.nditer(p.data, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p.data[idx]
            p.data[idx] = orig + h
            fp = loss_value().item()
            p.data[idx] = orig - h
            fm = loss_value().item()
            p.data[idx] = orig
            numeric = (fp - fm) / (2 * h)
            rel = abs(analytic[idx] - numeric) / max(1.0, abs(numeric))
            assert rel < 1e-4, f"{name}[{idx}]: rel err {rel:.3e}"
            worst = max(worst, rel)
            it.iternext()
    assert time.time() - start < 60.0, "gradient check exceeded its time budget"


def test_module_invariants_on_random_instances():
    rng = np.random.default_rng(11)

    # Gate: entries strictly inside (0,1), symmetric within 1e-12.
    for _ in range(100):
        n = int(rng.integers(4, 10))
        params = {}
        spf.init_spf(rng, params, "spf", n, 2, d=8, z_dim=4)
        # Perturbation kept small enough that scores stay below the ~36.7
        # threshold where float64 sigmoid rounds to exactly 1.0; the strict
        # bounds below are only meaningful while sigmoid is representable.
        for p in params.values():
            p.data = p.data + 0.1 * rng.normal(size=p.data.shape)
        z = ag.Tensor(rng.normal(size=(1, 4)))
        priors = tiny_priors(n)
        with ag.no_grad():
            g = spf.gate(spf.score_matrix(z, priors, params, "spf"), tau=1.0).data
        assert np.all(g > 0.0) and np.all(g < 1.0)
        assert np.abs(g - g.T).max() < 1e-12

    # sym0: symmetric output, zero diagonal, idempotent.
    for _ in range(100):
        n = int(rng.integers(2, 12))
        m = ag.Tensor(rng.normal(size=(n, n)))
        with ag.no_grad():
            s = ag.sym0(m)
            again = ag.sym0(s).data
        assert np.abs(s.data - s.data.T).max() == 0.0
        assert np.abs(np.diag(s.data)).max() == 0.0
        assert np.array_equal(again, s.data)

    # KL divergence: non-negative, and zero on identical rows.
    for _ in range(100):
        rows, cols = int(rng.integers(1, 6)), int(rng.integers(2, 8))
        raw = rng.random(size=(rows, cols)) + 0.1
        p = raw / raw.sum(axis=1, keepdims=True)
        with ag.no_grad():
            kl_pq = ag.kl_div(ag.Tensor(p), ag.Tensor(np.roll(p, 1, axis=1))).item()
            kl_pp = ag.kl_div(ag.Tensor(p), ag.Tensor(p.copy())).item()
        assert kl_pq >= 0.0
        assert kl_pp < 1e-14

    # Exchange ratios: sigmoid of any real raw scalar lies strictly in (0,1).
    for _ in range(100):
        raw = ag.Tensor(rng.normal(scale=5.0, size=(1, 1)))
        with ag.no_grad():
            r = ag.sigmoid(raw).item()
        assert 0.0 < r < 1.0

    # Free region is disjoint from every prior mask.
    for _ in range(100):
        n = int(rng.integers(3, 12))
        masks = [(rng.random(size=(n, n)) < 0.3).astype(float) for _ in range(3)]
        for m in masks:
            m[:] = np.maximum(m, m.T)
            np.fill_diagonal(m, 0.0)
        free = derive_free_mask(masks, n)
        for m in masks:
            assert np.all(free * m == 0.0)

    # Attention rows are probability distributions.
    for _ in range(100):
        n, d = int(rng.integers(3, 8)), 8
        layer = {}
        enc.init_encoder_layer(rng, layer, "layer", d, 2 * d)
        tokens = ag.Tensor(rng.normal(size=(n, d)))
        with ag.no_grad():
            out = enc.encoder_layer(tokens, layer, "layer", n_heads=2)
        for head in out.attention:
            assert np.abs(head.sum(axis=1) - 1.0).max() < 1e-9

    # AUC equals brute-force pair counting exactly.
    for _ in range(50):
        m = int(rng.integers(4, 30))
        scores = rng.choice([0.1, 0.4, 0.4, 0.7, 0.9], size=m)
        labels = rng.integers(0, 2, size=m)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        brute = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
        brute /= len(pos) * len(neg)
        assert auc(scores, labels) == brute


def test_ablation_flags_take_bit_identical_code_paths():
    rng = np.random.default_rng(3)
    priors = tiny_priors()
    fc, sc = random_symmetric(rng, TINY_N), random_symmetric(rng, TINY_N)

    # Exchange off: identical to two independent encoders plus the head.
    cfg = TrainConfig(amd_enabled=False, gspf_enabled=False, pspf_enabled=False, **TINY)
    model = BrainTAP(cfg, TINY_N, 2)
    with ag.no_grad():
        p = model.params
        x_fc = enc.embed_tokens(ag.Tensor(fc), p, "enc_fc")
        x_sc = enc.embed_tokens(ag.Tensor(sc), p, "enc_sc")
        for l in range(cfg.n_layers):
            x_fc = enc.encoder_layer(x_fc, p, f"enc_fc.layer{l}", cfg.n_heads).tokens
            x_sc = enc.encoder_layer(x_sc, p, f"enc_sc.layer{l}", cfg.n_heads).tokens
        manual = enc.classify(x_fc, x_sc, p, "head")
    assert model.forward(fc, sc, priors).logit.item() == manual.item()

    # Personalization off: identical to a zeroed hypernetwork output layer.
    on = BrainTAP(TrainConfig(**TINY), TINY_N, 2)
    off = BrainTAP(TrainConfig(pspf_enabled=False, **TINY), TINY_N, 2)
    off.load_state_arrays(on.state_arrays())
    on.params["spf.hyper.w2"].data[:] = 0.0
    on.params["spf.hyper.b2"].data[:] = 0.0
    ra = on.forward(fc, sc, priors)
    rb = off.forward(fc, sc, priors)
    assert ra.logit.item() == rb.logit.item()
    assert np.array_equal(ra.gate.data, rb.gate.data)

    # All prior fusion off: identical to a zero bias weight on the logits.
    off = BrainTAP(TrainConfig(gspf_enabled=False, pspf_enabled=False, **TINY), TINY_N, 2)
    eta0 = BrainTAP(TrainConfig(eta=0.0, **TINY), TINY_N, 2)
    eta0.load_state_arrays(off.state_arrays())
    assert off.forward(fc, sc, priors).logit.item() == eta0.forward(fc, sc, priors).logit.item()


@pytest.fixture(scope="session")
def benchmark_runs(tmp_path_factory):
    """Train every ablation variant on the planted-signal cohorts, one per seed."""
    aucs = {name: [] for name, _ in ABLATION_VARIANTS}
    full_models = []
    start = time.time()
    for seed in SEEDS:
        cdir = tmp_path_factory.mktemp(f"bench_seed{seed}")
        generate_synthetic_cohort(cdir, seed=seed, **COHORT)
        subjects, priors, manifest = load_cohort(cdir)
        test_set = split_subjects(subjects, manifest, "test")
        for name, flags in ABLATION_VARIANTS:
            cfg = benchmark_config(seed=seed, **flags)
            model, _ = train(cfg, subjects, priors, manifest)
            aucs[name].append(evaluate_auc(model, test_set, priors))
            if name == "full":
                full_models.append(model)
    return aucs, full_models, time.time() - start


def test_removing_any_component_degrades_benchmark_auc(benchmark_runs):
    aucs, _, elapsed = benchmark_runs
    means = {v: float(np.mean(a)) for v, a in aucs.items()}
    detail = " ".join(f"{v}={m:.4f}" for v, m in means.items())
    assert means["full"] - means["w/o AMD"] >= 0.01, detail
    assert means["full"] - means["w/o G-SPF"] >= 0.01, detail
    assert means["full"] - means["w/o P-SPF"] >= 0.01, detail
    assert means["full"] - means["w/o AMD+SPF"] >= 0.02, detail
    assert elapsed < 15 * 60, f"benchmark took {elapsed:.0f}s"


def test_ratio_table_bounded_after_training_and_half_at_init(benchmark_runs):
    _, full_models, _ = benchmark_runs
    rows = full_models[0].report_ratios()
    assert len(rows) == 3
    for row in rows:
        assert 0.0 < row["fc_ratio"] < 1.0
        assert 0.0 < row["sc_ratio"] < 1.0
    fresh = BrainTAP(benchmark_config(), COHORT["n_rois"], COHORT["n_priors"])
    for row in fresh.report_ratios():
        assert row["fc_ratio"] == 0.5
        assert row["sc_ratio"] == 0.5


def test_planted_prior_recovered_by_gate_analyses(tmp_path_factory):
    """With signal planted only inside prior 1, the learned gates must rank
    prior 1 above prior 2 and concentrate the top edges inside it."""
    mrr1, mrr2, ratios = [], [], []
    for seed in SEEDS:
        cdir = tmp_path_factory.mktemp(f"planted_seed{seed}")
        generate_synthetic_cohort(cdir, seed=seed, sc_signal_block=1, **COHORT)
        subjects, priors, manifest = load_cohort(cdir)
        model, _ = train(benchmark_config(seed=seed), subjects, priors, manifest)
        test_set = split_subjects(subjects, manifest, "test")
        report = analysis.analyze_mrr(model, test_set, priors)
        mrr1.append(report.scores[0])
        mrr2.append(report.scores[1])
        rows = analysis.export_top_edges(model, test_set, priors, 0.05)
        iu = np.triu_indices(manifest.n_rois, k=1)
        base_rate = priors.masks[0][iu].sum() / len(iu[0])
        name0 = priors.names[0]
        hit = sum(1 for r in rows if name0 in r["label"].split(";"))
        ratios.append(hit / len(rows) / base_rate)
    assert np.mean(mrr1) > np.mean(mrr2), (mrr1, mrr2)
    assert np.mean(ratios) > 1.5, ratios


def run_cli(*args):
    out = subprocess.run(
        [sys.executable, "-m", "braintap.cli", *[str(a) for a in args]],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert out.returncode == 0, out.stderr
    return out


def test_repeated_commands_are_byte_identical(tmp_path):
    cohorts = [tmp_path / "c1", tmp_path / "c2"]
    for c in cohorts:
        run_cli("generate", "--out", c, "--subjects", "40", "--rois", "8",
                "--priors", "2", "--seed", "5")
    for name in sorted(p.name for p in cohorts[0].iterdir()):
        assert (cohorts[0] / name).read_bytes() == (cohorts[1] / name).read_bytes()

    cfg = tmp_path / "cfg.json"
    cfg.write_text(TrainConfig(d=8, n_layers=2, n_heads=2, z_dim=4, d_distill=8,
                               epochs=2, patience=2).to_json())
    metrics, ckpts = [], []
    for i in range(2):
        m, k = tmp_path / f"metrics{i}.csv", tmp_path / f"model{i}.npz"
        run_cli("train", "--config", cfg, "--cohort-dir", cohorts[0],
                "--out", k, "--metrics", m)
        metrics.append(m.read_bytes())
        ckpts.append(k)
    assert metrics[0] == metrics[1]

    for sub, extra in [("ratios", []),
                       ("mrr", ["--cohort-dir", cohorts[0]]),
                       ("top-edges", ["--cohort-dir", cohorts[0], "--fraction", "0.1"])]:
        outs = []
        for i in range(2):
            o = tmp_path / f"{sub}{i}.csv"
            run_cli(sub, "--checkpoint", ckpts[0], *extra, "--out", o)
            outs.append(o.read_bytes())
        assert outs[0] == outs[1]
