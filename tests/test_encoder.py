import numpy as np
import pytest

from braintap import autograd as ag
from braintap import encoder as enc
from braintap.nn import mlp


@pytest.fixture
def rng():
    return np.random.default_rng(11)


@pytest.fixture
def params(rng):
    p = {}
    enc.init_encoder(rng, p, "enc", n_rois=6, d=8, d_ff=16, n_layers=2)
    return p


def head_params(rng, d):
    p = {}
    enc.init_head(rng, p, "head", d)
    return p


def random_adj(rng, n=6):
    m = rng.normal(size=(n, n))
    m = (m + m.T) / 2
    np.fill_diagonal(m, 0.0)
    return m


class TestEmbedTokens:
    def test_shape(self, rng, params):
        tokens = enc.embed_tokens(ag.Tensor(random_adj(rng)), params, "enc")
        assert tokens.shape == (6, 8)

    def test_zero_input_zero_weights(self, rng):
        p = {}
        enc.init_encoder(rng, p, "enc", 4, 8, 16, 1)
        p["enc.embed.w1"].data[:] = 0.0
        tokens = enc.embed_tokens(ag.Tensor(np.zeros((4, 4))), p, "enc")
        np.testing.assert_array_equal(tokens.data, np.zeros((4, 8)))

    def test_permutation_equivariance(self, rng, params):
        adj = random_adj(rng)
        perm = rng.permutation(6)
        base = enc.embed_tokens(ag.Tensor(adj), params, "enc").data
        # permuting rows+cols of adj permutes tokens iff embed weights are
        # symmetric over input ROIs; row-permutation alone permutes rows
        permuted = enc.embed_tokens(ag.Tensor(adj[perm, :]), params, "enc").data
        np.testing.assert_allclose(permuted, base[perm, :], atol=1e-12)

    def test_rejects_nonsquare(self, params):
        with pytest.raises(ag.DimensionError):
            enc.embed_tokens(ag.Tensor(np.zeros((4, 6))), params, "enc")


class TestEncoderLayer:
    def test_attention_rows_sum_to_one(self, rng, params):
        tokens = ag.Tensor(rng.normal(size=(6, 8)))
        out = enc.encoder_layer(tokens, params, "enc.layer0", n_heads=2)
        for p in out.attention:
            np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)

    def test_zero_eta_matches_no_bias_bitwise(self, rng, params):
        tokens = ag.Tensor(rng.normal(size=(6, 8)))
        bias = ag.Tensor(rng.normal(size=(6, 6)))
        a = enc.encoder_layer(tokens, params, "enc.layer0", 2, bias=None)
        b = enc.encoder_layer(tokens, params, "enc.layer0", 2, bias=bias, eta=0.0)
        np.testing.assert_array_equal(a.tokens.data, b.tokens.data)

    def test_constant_bias_is_noop_on_attention(self, rng, params):
        tokens = ag.Tensor(rng.normal(size=(6, 8)))
        flat = ag.Tensor(3.7 * np.ones((6, 6)))
        a = enc.encoder_layer(tokens, params, "enc.layer0", 2)
        b = enc.encoder_layer(tokens, params, "enc.layer0", 2, bias=flat, eta=1.0)
        for pa, pb in zip(a.attention, b.attention):
            np.testing.assert_allclose(pa, pb, atol=1e-12)

    def test_positive_bias_increases_attention(self, rng, params):
        tokens = ag.Tensor(rng.normal(size=(6, 8)))
        bias = np.zeros((6, 6))
        bias[2, 4] = 10.0
        a = enc.encoder_layer(tokens, params, "enc.layer0", 2)
        b = enc.encoder_layer(tokens, params, "enc.layer0", 2, bias=ag.Tensor(bias), eta=1.0)
        for pa, pb in zip(a.attention, b.attention):
            assert pb[2, 4] > pa[2, 4]

    def test_head_count_must_divide(self, rng, params):
        with pytest.raises(ag.DimensionError):
            enc.encoder_layer(ag.Tensor(rng.normal(size=(6, 8))), params, "enc.layer0", 3)


class TestClassify:
    def test_equal_modalities_average_is_identity(self, rng):
        head = head_params(rng, 8)
        x = ag.Tensor(rng.normal(size=(6, 8)))
        both = enc.classify(x, x, head, "head").item()
        pooled = ag.mean_rows(x)
        direct = mlp(head, "head.mlp", pooled).item()
        assert both == direct

    def test_permutation_invariance(self, rng):
        head = head_params(rng, 8)
        xf = rng.normal(size=(6, 8))
        xs = rng.normal(size=(6, 8))
        perm = rng.permutation(6)
        a = enc.classify(ag.Tensor(xf), ag.Tensor(xs), head, "head").item()
        b = enc.classify(ag.Tensor(xf[perm]), ag.Tensor(xs[perm]), head, "head").item()
        assert abs(a - b) < 1e-12

    def test_zero_inputs_zero_weights_gives_bias(self, rng):
        head = head_params(rng, 8)
        head["head.mlp.w1"].data[:] = 0.0
        head["head.mlp.w2"].data[:] = 0.0
        head["head.mlp.b2"].data[:] = 1.25
        z = ag.Tensor(np.zeros((6, 8)))
        assert enc.classify(z, z, head, "head").item() == 1.25


def test_all_layers_receive_gradient(rng, params):
    """Loss depends on every layer's weights."""
    adj = random_adj(rng)
    tokens = enc.embed_tokens(ag.Tensor(adj), params, "enc")
    for l in range(2):
        tokens = enc.encoder_layer(tokens, params, f"enc.layer{l}", 2).tokens
    ag.sum_all(tokens).backward()
    for l in range(2):
        wq = params[f"enc.layer{l}.wq"]
        assert wq.grad is not None
        assert np.abs(wq.grad).max() > 0.0
