import hashlib

import numpy as np
import pytest

from braintap import autograd as ag
from braintap import encoder as enc
from braintap.benchmark import benchmark_config
from braintap.config import TrainConfig
from braintap.data import PriorSet
from braintap.model import BrainTAP

TINY = dict(d=8, n_layers=2, n_heads=2, z_dim=4, d_distill=8)
N = 6


@pytest.fixture
def priors():
    m1 = np.zeros((N, N))
    m1[0:3, 0:3] = 1.0
    np.fill_diagonal(m1, 0.0)
    m2 = np.zeros((N, N))
    m2[3:N, 3:N] = 1.0
    np.fill_diagonal(m2, 0.0)
    return PriorSet(names=["a", "b"], masks=[m1, m2])


@pytest.fixture
def subject():
    rng = np.random.default_rng(21)
    def symm():
        m = rng.normal(size=(N, N))
        m = (m + m.T) / 2
        np.fill_diagonal(m, 0.0)
        return m
    return symm(), symm()


def copy_params(src, dst):
    dst.load_state_arrays(src.state_arrays())


def global_masks(model):
    """The SPF global score matrices, prior regions first, free region last."""
    return [t for name, t in model.params.items() if name.startswith("spf.wg")]


class TestAblationEquivalence:
    def test_amd_off_equals_independent_encoders(self, priors, subject):
        fc, sc = subject
        cfg = TrainConfig(amd_enabled=False, gspf_enabled=False,
                          pspf_enabled=False, **TINY)
        model = BrainTAP(cfg, N, 2)
        result = model.forward(fc, sc, priors)

        with ag.no_grad():
            p = model.params
            x_fc = enc.embed_tokens(ag.Tensor(fc), p, "enc_fc")
            x_sc = enc.embed_tokens(ag.Tensor(sc), p, "enc_sc")
            for l in range(cfg.n_layers):
                x_fc = enc.encoder_layer(x_fc, p, f"enc_fc.layer{l}", cfg.n_heads).tokens
                x_sc = enc.encoder_layer(x_sc, p, f"enc_sc.layer{l}", cfg.n_heads).tokens
            manual = enc.classify(x_fc, x_sc, p, "head")
        assert result.logit.item() == manual.item()
        assert result.distill_losses == []

    def test_amd_near_zero_ratio_matches_amd_off(self, priors, subject):
        fc, sc = subject
        on = BrainTAP(TrainConfig(**TINY), N, 2)
        for l in range(TINY["n_layers"]):
            on.params[f"amd{l}.raw_beta"].data[:] = -40.0
            on.params[f"amd{l}.raw_gamma"].data[:] = -40.0
        off = BrainTAP(TrainConfig(amd_enabled=False, **TINY), N, 2)
        copy_params(on, off)
        a = on.forward(fc, sc, priors).logit.item()
        b = off.forward(fc, sc, priors).logit.item()
        assert abs(a - b) < 1e-9

    def test_pspf_off_equals_zeroed_hypernetwork(self, priors, subject):
        fc, sc = subject
        rng = np.random.default_rng(9)
        off = BrainTAP(TrainConfig(pspf_enabled=False, **TINY), N, 2)
        for w in global_masks(off):
            w.data[:] = rng.normal(size=w.shape)
        off.params["spf.hyper.w2"].data[:] = rng.normal(size=off.params["spf.hyper.w2"].shape)

        zeroed = BrainTAP(TrainConfig(**TINY), N, 2)
        copy_params(off, zeroed)
        zeroed.params["spf.hyper.w2"].data[:] = 0.0
        zeroed.params["spf.hyper.b2"].data[:] = 0.0

        a = off.forward(fc, sc, priors)
        b = zeroed.forward(fc, sc, priors)
        assert a.logit.item() == b.logit.item()
        np.testing.assert_array_equal(a.gate.data, b.gate.data)

    def test_spf_off_equals_eta_zero(self, priors, subject):
        fc, sc = subject
        off = BrainTAP(TrainConfig(gspf_enabled=False, pspf_enabled=False, **TINY), N, 2)
        eta0 = BrainTAP(TrainConfig(eta=0.0, **TINY), N, 2)
        copy_params(off, eta0)
        rng = np.random.default_rng(13)
        for m in (off, eta0):
            for w in global_masks(m):
                w.data[:] = 1.0  # would shift attention if eta were active
        a = off.forward(fc, sc, priors)
        b = eta0.forward(fc, sc, priors)
        assert a.logit.item() == b.logit.item()
        assert a.gate is None
        assert b.gate is not None

    def test_gspf_off_zeroes_global_contribution(self, priors, subject):
        fc, sc = subject
        off = BrainTAP(TrainConfig(gspf_enabled=False, **TINY), N, 2)
        zeroed = BrainTAP(TrainConfig(**TINY), N, 2)
        copy_params(off, zeroed)
        rng = np.random.default_rng(31)
        for m in (off, zeroed):
            m.params["spf.hyper.w2"].data[:] = np.random.default_rng(1).normal(
                size=m.params["spf.hyper.w2"].shape)
        for w in global_masks(off):
            w.data[:] = rng.normal(size=w.shape)  # must be ignored
        for w in global_masks(zeroed):
            w.data[:] = 0.0
        a = off.forward(fc, sc, priors)
        b = zeroed.forward(fc, sc, priors)
        assert a.logit.item() == b.logit.item()


class TestForwardContracts:
    def test_gate_symmetric_in_unit_interval(self, priors, subject):
        fc, sc = subject
        model = BrainTAP(TrainConfig(**TINY), N, 2)
        rng = np.random.default_rng(2)
        for w in global_masks(model):
            w.data[:] = rng.normal(size=w.shape)
        for _ in range(100):
            g = model.gate_for(
                type("S", (), {"fc": fc, "sc": sc})(), priors
            )
            assert np.all(g > 0.0) and np.all(g < 1.0)
            np.testing.assert_allclose(g, g.T, atol=1e-12)

    def test_attention_rows_sum_to_one(self, priors, subject):
        fc, sc = subject
        model = BrainTAP(TrainConfig(**TINY), N, 2)
        with ag.no_grad():
            result = model.forward(fc, sc, priors, record_attention=True)
        assert len(result.attention) == 2 * 2  # modalities x layers
        for maps in result.attention.values():
            for p in maps:
                np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)

    def test_gate_for_equals_forward_gate(self, priors, subject):
        fc, sc = subject
        model = BrainTAP(TrainConfig(**TINY), N, 2)
        rng = np.random.default_rng(5)
        for p in model.params.values():
            p.data = p.data + 0.1 * rng.normal(size=p.data.shape)
        g = model.gate_for(type("S", (), {"fc": fc, "sc": sc})(), priors)
        np.testing.assert_array_equal(g, model.forward(fc, sc, priors).gate.data)

    def test_checkpoint_round_trip(self, priors, subject, tmp_path):
        fc, sc = subject
        model = BrainTAP(TrainConfig(**TINY), N, 2)
        model.save(tmp_path / "m.npz")
        loaded = BrainTAP.load(tmp_path / "m.npz")
        a = model.forward(fc, sc, priors).logit.item()
        b = loaded.forward(fc, sc, priors).logit.item()
        assert a == b


def state_digest(model):
    """(parameter count, sha256 of the names in order, sha256 of the values)."""
    state = model.state_arrays()
    values = hashlib.sha256()
    for a in state.values():
        values.update(np.ascontiguousarray(a).tobytes())
    return len(state), hashlib.sha256("\n".join(state).encode()).hexdigest(), values.hexdigest()


@pytest.mark.parametrize("cfg, n_rois, expected", [
    (TrainConfig(**TINY), N, (
        91,
        "721e751e132c76e08d9fbf8e59bd50ca01bfce4a005233abc5edb4f84f9db299",
        "5c417b6bb121c0a70026d875627b109a3ca4f7ab81752a39196743f6fc2f9b78",
    )),
    (benchmark_config(seed=0), 20, (
        125,
        "0355b3011c9ea3033bd925953fb7c433892ae5628ab91627436b68ef977f3fea",
        "6043a5d23dc008199e6215d033e4c72ce63512dfa53ba2e8d978feec65d5c38c",
    )),
], ids=["tiny", "benchmark"])
def test_seeded_init_is_pinned(cfg, n_rois, expected):
    """Parameter names, their order and every seeded initial value are fixed:
    reordering the random draws would silently change every trained model."""
    assert state_digest(BrainTAP(cfg, n_rois, 2)) == expected
