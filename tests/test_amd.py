import numpy as np
import pytest

from braintap import amd
from braintap import autograd as ag
from braintap.nn import mlp


@pytest.fixture
def rng():
    return np.random.default_rng(5)


@pytest.fixture
def params(rng):
    p = {}
    amd.init_amd_layer(rng, p, "amd", d=8, d_distill=8)
    return p


def amd_layers(rng, count):
    """Parameters of `count` exchanges and their prefixes."""
    p = {}
    prefixes = [f"amd{l}" for l in range(count)]
    for prefix in prefixes:
        amd.init_amd_layer(rng, p, prefix, 8, 8)
    return p, prefixes


def scalar_loss_oracle(z_fc, z_sc, tau, beta, gamma):
    """Independent elementwise re-implementation of the distillation loss."""
    def softmax_row(v):
        e = np.exp(v / tau - max(v / tau))
        return e / e.sum()

    n = z_fc.shape[0]
    total = 0.0
    for i in range(n):
        p = softmax_row(z_fc[i])
        q = softmax_row(z_sc[i])
        kl_pq = sum(p[j] * np.log(p[j] / q[j]) for j in range(len(p)))
        kl_qp = sum(q[j] * np.log(q[j] / p[j]) for j in range(len(p)))
        total += beta * kl_pq + gamma * kl_qp
    return total / n


class TestAmdExchange:
    def test_near_zero_ratios_are_identity(self, params, rng):
        params["amd.raw_beta"].data[:] = -30.0
        params["amd.raw_gamma"].data[:] = -30.0
        x_fc = ag.Tensor(rng.normal(size=(6, 8)))
        x_sc = ag.Tensor(rng.normal(size=(6, 8)))
        out = amd.amd_exchange(x_fc, x_sc, params, "amd", tau=1.0)
        np.testing.assert_allclose(out.x_fc.data, x_fc.data, atol=1e-9)
        np.testing.assert_allclose(out.x_sc.data, x_sc.data, atol=1e-9)
        assert out.loss.item() < 1e-9

    def test_identical_projections_zero_loss(self, params, rng):
        for w in ("w1", "b1", "w2", "b2"):
            params[f"amd.g_sc.{w}"] = params[f"amd.g_fc.{w}"]
        x = ag.Tensor(rng.normal(size=(6, 8)))
        out = amd.amd_exchange(x, ag.Tensor(x.data.copy()), params, "amd", tau=1.0)
        assert out.loss.item() < 1e-14

    def test_loss_matches_scalar_oracle(self, params, rng):
        x_fc = ag.Tensor(rng.normal(size=(6, 8)))
        x_sc = ag.Tensor(rng.normal(size=(6, 8)))
        out = amd.amd_exchange(x_fc, x_sc, params, "amd", tau=0.8)
        with ag.no_grad():
            z_fc = mlp(params, "amd.g_fc", x_fc).data
            z_sc = mlp(params, "amd.g_sc", x_sc).data
        expect = scalar_loss_oracle(z_fc, z_sc, 0.8, out.beta, out.gamma)
        assert abs(out.loss.item() - expect) < 1e-12

    def test_loss_nonnegative(self, params, rng):
        for _ in range(20):
            out = amd.amd_exchange(
                ag.Tensor(rng.normal(size=(5, 8))),
                ag.Tensor(rng.normal(size=(5, 8))),
                params, "amd", tau=1.0,
            )
            assert out.loss.item() >= 0.0

    def test_convex_combination_identity(self, params, rng):
        x_fc = ag.Tensor(rng.normal(size=(6, 8)))
        x_sc = ag.Tensor(rng.normal(size=(6, 8)))
        out = amd.amd_exchange(x_fc, x_sc, params, "amd", tau=1.0)
        with ag.no_grad():
            injected = mlp(params, "amd.h_fc", mlp(params, "amd.g_sc", x_sc)).data
        expect = (1 - out.gamma) * x_fc.data + out.gamma * injected
        np.testing.assert_allclose(out.x_fc.data, expect, atol=1e-12)

    def test_shape_mismatch(self, params, rng):
        with pytest.raises(ag.DimensionError):
            amd.amd_exchange(
                ag.Tensor(rng.normal(size=(6, 8))),
                ag.Tensor(rng.normal(size=(5, 8))),
                params, "amd", tau=1.0,
            )

    def test_raw_scalars_get_gradient_through_residual(self, params, rng):
        x_fc = ag.Tensor(rng.normal(size=(6, 8)))
        x_sc = ag.Tensor(rng.normal(size=(6, 8)))
        out = amd.amd_exchange(x_fc, x_sc, params, "amd", tau=1.0)
        ag.sum_all(ag.add(out.x_fc, out.x_sc)).backward()
        assert abs(params["amd.raw_beta"].grad[0, 0]) > 0.0
        assert abs(params["amd.raw_gamma"].grad[0, 0]) > 0.0

    def test_detached_ratio_overrides_enter_loss_linearly(self, params, rng):
        x_fc = ag.Tensor(rng.normal(size=(6, 8)))
        x_sc = ag.Tensor(rng.normal(size=(6, 8)))
        a = amd.amd_exchange(x_fc, x_sc, params, "amd", 1.0, detached_ratios=(1.0, 0.0))
        b = amd.amd_exchange(x_fc, x_sc, params, "amd", 1.0, detached_ratios=(0.0, 1.0))
        c = amd.amd_exchange(x_fc, x_sc, params, "amd", 1.0, detached_ratios=(0.5, 0.5))
        assert abs(0.5 * (a.loss.item() + b.loss.item()) - c.loss.item()) < 1e-12


class TestReportRatios:
    def test_zero_raw_scalars_give_half(self, rng):
        params, prefixes = amd_layers(rng, 3)
        rows = amd.report_ratios(params, prefixes)
        assert len(rows) == 3
        for row in rows:
            assert row["fc_ratio"] == 0.5
            assert row["sc_ratio"] == 0.5

    def test_values_in_open_unit_interval(self, rng):
        params, prefixes = amd_layers(rng, 2)
        params["amd0.raw_beta"].data[:] = 4.2
        params["amd1.raw_gamma"].data[:] = -3.0
        for row in amd.report_ratios(params, prefixes):
            assert 0.0 < row["fc_ratio"] < 1.0
            assert 0.0 < row["sc_ratio"] < 1.0

    def test_fc_column_is_gamma(self, rng):
        params, prefixes = amd_layers(rng, 1)
        params["amd0.raw_gamma"].data[:] = 2.0
        row = amd.report_ratios(params, prefixes)[0]
        assert abs(row["fc_ratio"] - 1.0 / (1.0 + np.exp(-2.0))) < 1e-12
        assert row["sc_ratio"] == 0.5
