import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braintap import autograd as ag
from braintap import spf
from braintap.data import PriorSet


@pytest.fixture
def rng():
    return np.random.default_rng(17)


def make_priors(n=6):
    m1 = np.zeros((n, n))
    m1[0:3, 0:3] = 1.0
    np.fill_diagonal(m1, 0.0)
    m2 = np.zeros((n, n))
    m2[3:n, 3:n] = 1.0
    np.fill_diagonal(m2, 0.0)
    return PriorSet(names=["a", "b"], masks=[m1, m2])


@pytest.fixture
def params(rng):
    p = {}
    spf.init_spf(rng, p, "spf", n_rois=6, n_priors=2, d=8, z_dim=4)
    return p


class TestSubjectEmbedding:
    def test_deterministic_and_shaped(self, params, rng):
        x = ag.Tensor(rng.normal(size=(6, 8)))
        y = ag.Tensor(rng.normal(size=(6, 8)))
        z1 = spf.subject_embedding(x, y, params, "spf")
        z2 = spf.subject_embedding(x, y, params, "spf")
        assert z1.shape == (1, 4)
        np.testing.assert_array_equal(z1.data, z2.data)

    def test_roi_permutation_invariance(self, params, rng):
        xf = rng.normal(size=(6, 8))
        xs = rng.normal(size=(6, 8))
        perm = rng.permutation(6)
        a = spf.subject_embedding(ag.Tensor(xf), ag.Tensor(xs), params, "spf")
        b = spf.subject_embedding(ag.Tensor(xf[perm]), ag.Tensor(xs[perm]), params, "spf")
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)


class TestPersonalizedMask:
    def test_hand_case_basis_vectors(self):
        n = 4
        alpha = ag.Tensor([[2.0]])
        u_a = ag.Tensor(np.eye(n)[1:2])
        u_b = ag.Tensor(np.eye(n)[2:3])
        w = spf.personalized_mask(alpha, u_a, u_b)
        expect = np.zeros((n, n))
        expect[1, 2] = expect[2, 1] = 1.0
        np.testing.assert_array_equal(w.data, expect)

    def test_zero_alpha_zero_matrix(self, rng):
        w = spf.personalized_mask(
            ag.Tensor([[0.0]]),
            ag.Tensor(rng.normal(size=(1, 5))),
            ag.Tensor(rng.normal(size=(1, 5))),
        )
        np.testing.assert_array_equal(w.data, np.zeros((5, 5)))

    def test_symmetric_by_construction(self, rng):
        w = spf.personalized_mask(
            ag.Tensor([[rng.normal()]]),
            ag.Tensor(rng.normal(size=(1, 6))),
            ag.Tensor(rng.normal(size=(1, 6))),
        )
        np.testing.assert_allclose(w.data, w.data.T, atol=1e-14)

    def test_rank_at_most_two(self, rng):
        w = spf.personalized_mask(
            ag.Tensor([[1.3]]),
            ag.Tensor(rng.normal(size=(1, 6))),
            ag.Tensor(rng.normal(size=(1, 6))),
        )
        assert np.linalg.matrix_rank(w.data, tol=1e-10) <= 2


class TestScoreMatrix:
    def test_all_zero_weights_give_zero(self, params, rng):
        z = ag.Tensor(rng.normal(size=(1, 4)))
        s = spf.score_matrix(z, make_priors(), params, "spf")
        # global masks and hypernetwork final layer are zero-initialized
        np.testing.assert_array_equal(s.data, np.zeros((6, 6)))

    def test_symmetric_zero_diagonal(self, params, rng):
        for k in range(3):
            w = params[f"spf.wg{k}"]
            w.data[:] = rng.normal(size=w.shape)
        params["spf.hyper.w2"].data[:] = rng.normal(size=params["spf.hyper.w2"].shape)
        z = ag.Tensor(rng.normal(size=(1, 4)))
        s = spf.score_matrix(z, make_priors(), params, "spf")
        np.testing.assert_allclose(s.data, s.data.T, atol=1e-12)
        np.testing.assert_array_equal(np.diag(s.data), np.zeros(6))

    def test_free_weight_only_touches_free_region(self, params, rng):
        priors = make_priors()
        z = ag.Tensor(rng.normal(size=(1, 4)))
        base = spf.score_matrix(z, priors, params, "spf").data
        params["spf.wg2"].data[:] = rng.normal(size=(6, 6))
        changed = spf.score_matrix(z, priors, params, "spf").data
        delta = np.abs(changed - base) > 0.0
        covered = (priors.free_mask + priors.free_mask.T) > 0
        assert not delta[~covered].any()
        assert delta[covered].any()

    def test_global_mask_gradient_respects_its_prior(self, params, rng):
        priors = make_priors()
        z = ag.Tensor(rng.normal(size=(1, 4)))
        s = spf.score_matrix(z, priors, params, "spf")
        ag.sum_all(ag.hadamard(s, ag.Tensor(rng.normal(size=(6, 6))))).backward()
        g = params["spf.wg0"].grad
        outside = priors.masks[0] == 0.0
        assert np.abs(g[outside]).max() == 0.0
        assert np.abs(g[~outside]).max() > 0.0

    def test_disabled_components(self, params, rng):
        z = ag.Tensor(rng.normal(size=(1, 4)))
        assert spf.score_matrix(z, make_priors(), params, "spf", gspf=False, pspf=False) is None


class TestGate:
    def test_zero_score_gives_half(self, params):
        g = spf.gate(ag.Tensor(np.zeros((4, 4))), tau=1.0)
        np.testing.assert_array_equal(g.data, 0.5 * np.ones((4, 4)))

    def test_sharp_temperature_saturates(self):
        s = np.zeros((2, 2))
        s[0, 1] = s[1, 0] = 1.0
        g = spf.gate(ag.Tensor(s), tau=0.01)
        assert g.data[0, 1] > 0.999

    def test_entries_strictly_inside_unit_interval(self, rng):
        for _ in range(100):
            g = spf.gate(ag.Tensor(rng.normal(scale=10, size=(5, 5))), tau=1.0)
            assert np.all(g.data > 0.0) and np.all(g.data < 1.0)

    def test_bad_temperature(self):
        with pytest.raises(ag.ParameterError):
            spf.gate(ag.Tensor(np.zeros((2, 2))), tau=0.0)

    def test_attention_bias_diagonal_handling(self, rng):
        g = spf.gate(ag.Tensor(np.zeros((4, 4))), tau=1.0)
        hollow = spf.attention_bias(g)
        np.testing.assert_array_equal(np.diag(hollow.data), np.zeros(4))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_sym0_idempotent(seed):
    m = np.random.default_rng(seed).normal(size=(5, 5))
    once = ag.sym0(ag.Tensor(m)).data
    twice = ag.sym0(ag.Tensor(once)).data
    np.testing.assert_allclose(once, twice, atol=1e-14)
    np.testing.assert_allclose(once, once.T, atol=1e-14)
    assert np.abs(np.diag(once)).max() == 0.0
