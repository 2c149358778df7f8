"""Training objectives: frozen values, oracles, scale invariance, gradients."""

import numpy as np
import pytest
from oracles import mc_kl, numeric_gradient, softmax_ce

from uenl.gradcheck import finite_diff_check
from uenl.losses import (
    NORM_EPSILON,
    UHAT_FLOOR,
    ce_with_temperature,
    kl_regularizer,
    logitnorm_ce,
    normalize_logits,
    plain_ce,
    resample_uncertainty,
    uenl_total,
)
from uenl.rng import RngStream
from uenl.tensor import backward, leaf, mul, reduce_mean, reduce_sum


class TestNormalizeLogits:
    def test_three_four_five(self):
        out = normalize_logits(leaf([[3.0, 4.0]])).value.array
        np.testing.assert_allclose(out, [[0.6, 0.8]], atol=1e-15)

    def test_zero_row_no_nan(self):
        out = normalize_logits(leaf([[0.0, 0.0, 0.0]])).value.array
        np.testing.assert_array_equal(out, [[0.0, 0.0, 0.0]])

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        p = rng.normal(size=(8, 5))
        base = normalize_logits(leaf(p)).value.array
        for c in (0.1, 10.0, 1000.0):
            scaled = normalize_logits(leaf(c * p)).value.array
            np.testing.assert_allclose(scaled, base, atol=1e-9)

    def test_unit_norm_above_floor(self):
        rng = np.random.default_rng(1)
        p = rng.normal(size=(20, 4)) * 1e-3  # small but well above 1e-6
        norms = np.linalg.norm(normalize_logits(leaf(p)).value.array, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            normalize_logits(leaf([1.0, 2.0]))

    def test_differentiable(self):
        res = finite_diff_check(
            lambda p: reduce_sum(mul(normalize_logits(p), leaf([[0.3, -1.2, 0.4]]))),
            [[1.0, -2.0, 0.5]],
        )
        assert res.max_rel_err < 1e-6


class TestResampleUncertainty:
    def test_forced_ones_epsilon_gives_delta(self):
        u = leaf(np.ones((3, 32)))
        uhat, eps = resample_uncertainty(u, epsilon=np.ones((3, 32)))
        np.testing.assert_array_equal(uhat.value.array, 32.0)
        np.testing.assert_array_equal(eps, 1.0)

    def test_monte_carlo_mean_near_delta(self):
        # E[u_hat] = sum_i u_i = 32 for unit u; 1e5 draws concentrate tightly.
        draws = 100_000
        u = leaf(np.ones((draws, 32)))
        uhat, _ = resample_uncertainty(u, RngStream(7))
        mean = uhat.value.array.mean()
        assert 31.4 <= mean <= 32.6

    def test_gradient_is_epsilon_squared(self):
        rng = np.random.default_rng(5)
        eps = rng.normal(size=(4, 6))

        def f(u):
            uhat, _ = resample_uncertainty(u, epsilon=eps)
            return reduce_sum(uhat)

        point = rng.uniform(0.5, 2.0, size=(4, 6))
        res = finite_diff_check(f, point)
        assert res.max_rel_err < 1e-8
        np.testing.assert_allclose(res.analytic, eps * eps, rtol=1e-12)

    def test_replay_with_returned_epsilon(self):
        u = leaf(np.full((5, 8), 1.3))
        uhat1, eps = resample_uncertainty(u, RngStream(9))
        uhat2, _ = resample_uncertainty(u, epsilon=eps)
        np.testing.assert_array_equal(uhat1.value.array, uhat2.value.array)

    def test_scalar_uncertainty_broadcast(self):
        eps = np.ones((2, 8)) * 2.0  # eps^2 = 4 in every dim
        uhat, _ = resample_uncertainty(leaf([[0.5], [1.0]]), epsilon=eps, n_dims=8)
        np.testing.assert_allclose(uhat.value.array, [[16.0], [32.0]], rtol=1e-15)

    def test_floor_engages_on_zero_epsilon(self):
        uhat, _ = resample_uncertainty(leaf(np.ones((2, 4))), epsilon=np.zeros((2, 4)))
        np.testing.assert_array_equal(uhat.value.array, UHAT_FLOOR)

    def test_errors(self):
        with pytest.raises(ValueError):
            resample_uncertainty(leaf([[0.0, 1.0]]), epsilon=np.ones((1, 2)))
        with pytest.raises(ValueError):
            resample_uncertainty(leaf([[1.0, 1.0]]))  # no rng, no epsilon
        with pytest.raises(ValueError):
            resample_uncertainty(leaf([[1.0, 1.0]]), epsilon=np.ones((2, 2)))
        with pytest.raises(ValueError):
            resample_uncertainty(leaf([1.0, 1.0]), epsilon=np.ones((1, 2)))
        with pytest.raises(ValueError):
            resample_uncertainty(leaf([[1.0, 1.0]]), epsilon=np.ones((1, 3)), n_dims=3)


class TestCeWithTemperature:
    def test_uniform_rows_give_ln_k(self):
        k = 10
        p_bar = leaf(np.full((4, k), 1.0 / np.sqrt(k)))  # equal entries, unit norm
        for uhat in (np.full(4, 0.04), np.ones(4), np.full(4, 50.0)):
            loss = ce_with_temperature(p_bar, uhat, [1, 4, 7, 10])
            assert loss.value.item() == pytest.approx(2.302585, abs=1e-6)

    def test_two_class_frozen_value(self):
        # p_bar = [1, 0], u_hat = 1, true class 1: loss = ln(1 + e^{-1}).
        loss = ce_with_temperature(leaf([[1.0, 0.0]]), [1.0], [1])
        assert loss.value.item() == pytest.approx(0.313262, abs=1e-6)
        assert loss.value.item() == pytest.approx(np.log(1.0 + np.exp(-1.0)), abs=1e-12)

    def test_large_temperature_approaches_ln_k_monotonically(self):
        p_bar = normalize_logits(leaf([[2.0, 0.5, -1.0]]))  # correctly ordered
        losses = [
            ce_with_temperature(p_bar, [t], [1]).value.item() for t in (1.0, 10.0, 100.0, 1000.0)
        ]
        assert all(a < b for a, b in zip(losses, losses[1:]))
        assert all(v < np.log(3.0) for v in losses)
        assert losses[-1] == pytest.approx(np.log(3.0), abs=1e-3)

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n, k = 6, 4
            p = rng.normal(size=(n, k))
            p_bar = p / np.linalg.norm(p, axis=1, keepdims=True)
            uhat = rng.uniform(0.05, 3.0, size=n)
            y = rng.integers(1, k + 1, size=n)
            ours = ce_with_temperature(leaf(p_bar), uhat, y).value.item()
            oracle = softmax_ce(p_bar / uhat[:, None], y)
            assert ours == pytest.approx(oracle, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(12)
        p_bar = normalize_logits(leaf(rng.normal(size=(30, 5)))).value.array
        loss = ce_with_temperature(leaf(p_bar), rng.uniform(0.1, 2.0, 30), rng.integers(1, 6, 30))
        assert loss.value.item() >= 0.0

    def test_rejects_unnormalized_logits(self):
        with pytest.raises(ValueError):
            ce_with_temperature(leaf([[3.0, 4.0]]), [1.0], [1])

    def test_rejects_bad_labels_and_temperatures(self):
        p_bar = leaf([[1.0, 0.0]])
        with pytest.raises(ValueError):
            ce_with_temperature(p_bar, [1.0], [0])  # labels are 1-based
        with pytest.raises(ValueError):
            ce_with_temperature(p_bar, [1.0], [3])
        with pytest.raises(ValueError):
            ce_with_temperature(p_bar, [0.0], [1])
        with pytest.raises(ValueError):
            ce_with_temperature(p_bar, [[1.0], [1.0]], [1])


class TestKlRegularizer:
    def test_unit_uncertainty_is_exactly_zero(self):
        assert kl_regularizer(leaf(np.ones((5, 32)))).value.item() == 0.0

    def test_single_dim_at_e(self):
        # Variance form: 0.5 * (e - ln e - 1) = 0.5 * (e - 2).
        val = kl_regularizer(leaf([[np.e]])).value.item()
        assert val == pytest.approx(0.359141, abs=1e-6)
        assert val == pytest.approx(0.5 * (np.e - 2.0), abs=1e-12)

    def test_std_form_closed_form(self):
        # Std form: 0.5 * (u^2 - 2 ln u - 1); at u = e this is 0.5 (e^2 - 3).
        val = kl_regularizer(leaf([[np.e]]), form="std").value.item()
        assert val == pytest.approx(0.5 * (np.e**2 - 3.0), abs=1e-12)

    @pytest.mark.parametrize("form", ["variance", "std"])
    @pytest.mark.parametrize("u", [0.5, 1.0, 2.0])
    def test_against_monte_carlo_oracle(self, form, u):
        closed = kl_regularizer(leaf([[u]]), form=form).value.item()
        estimate = mc_kl(u, form, n=1_000_000, seed=17)
        assert closed == pytest.approx(estimate, abs=1e-2)

    def test_nonnegative_and_zero_only_at_one(self):
        rng = np.random.default_rng(3)
        u = rng.uniform(0.2, 3.0, size=(10, 6))
        u[u == 1.0] = 1.1
        assert kl_regularizer(leaf(u)).value.item() > 0.0

    def test_convex_in_each_coordinate(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a, b = rng.uniform(0.05, 5.0, size=2)
            mid = kl_regularizer(leaf([[(a + b) / 2.0]])).value.item()
            avg = 0.5 * (
                kl_regularizer(leaf([[a]])).value.item()
                + kl_regularizer(leaf([[b]])).value.item()
            )
            assert mid <= avg + 1e-12

    def test_errors(self):
        with pytest.raises(ValueError):
            kl_regularizer(leaf([[0.0]]))
        with pytest.raises(ValueError):
            kl_regularizer(leaf([1.0, 2.0]))
        with pytest.raises(ValueError):
            kl_regularizer(leaf([[1.0]]), form="precision")


class TestUenlTotal:
    def test_zero_weight_total_is_ce(self):
        rng = np.random.default_rng(21)
        p = rng.normal(size=(6, 3))
        u = rng.uniform(0.5, 2.0, size=(6, 8))
        out = uenl_total(p, u, [1, 2, 3, 1, 2, 3], 0.0, RngStream(5))
        assert out.kl_term is None
        assert out.total is out.ce_term

    def test_unit_uncertainty_zeroes_kl(self):
        rng = np.random.default_rng(22)
        p = rng.normal(size=(4, 3))
        out = uenl_total(p, np.ones((4, 8)), [1, 2, 3, 1], 0.7, RngStream(6))
        assert out.kl_term.value.item() == 0.0
        assert out.total.value.item() == out.ce_term.value.item()

    def test_composition_identity_exact(self):
        rng = np.random.default_rng(23)
        p = rng.normal(size=(5, 4))
        u = rng.uniform(0.3, 3.0, size=(5, 8))
        out = uenl_total(p, u, [1, 2, 3, 4, 1], 0.1, RngStream(7))
        assert out.total.value.item() == out.ce_term.value.item() + 0.1 * out.kl_term.value.item()
        assert out.ce_term.value.item() >= 0.0
        assert out.kl_term.value.item() >= 0.0
        assert out.kl_weight == 0.1

    def test_scale_invariance_in_logits(self):
        rng = np.random.default_rng(24)
        p = rng.normal(size=(6, 3))
        u = rng.uniform(0.5, 2.0, size=(6, 8))
        y = [1, 2, 3, 1, 2, 3]
        eps = rng.normal(size=(6, 8))
        base = uenl_total(p, u, y, 0.1, epsilon=eps).total.value.item()
        for c in (0.1, 10.0, 1000.0):
            scaled = uenl_total(c * p, u, y, 0.1, epsilon=eps).total.value.item()
            assert scaled == pytest.approx(base, abs=1e-9)

    def test_uhat_field_matches_manual_sum(self):
        rng = np.random.default_rng(25)
        u = rng.uniform(0.5, 2.0, size=(4, 6))
        eps = rng.normal(size=(4, 6))
        out = uenl_total(rng.normal(size=(4, 3)), u, [1, 2, 3, 1], 0.1, epsilon=eps)
        np.testing.assert_allclose(out.uhat, (u * eps * eps).sum(axis=1), rtol=1e-12)

    def test_uhat_scale_rescales_temperature(self):
        rng = np.random.default_rng(26)
        p = rng.normal(size=(4, 3))
        u = rng.uniform(0.5, 2.0, size=(4, 6))
        eps = rng.normal(size=(4, 6))
        y = [1, 2, 3, 1]
        scaled = uenl_total(p, u, y, 0.0, epsilon=eps, uhat_scale=0.25)
        manual_uhat = 0.25 * (u * eps * eps).sum(axis=1)
        manual = ce_with_temperature(normalize_logits(leaf(p)), manual_uhat, y)
        assert scaled.ce_term.value.item() == pytest.approx(manual.value.item(), abs=1e-12)

    def test_kl_form_plumbed_through(self):
        rng = np.random.default_rng(27)
        u = rng.uniform(0.5, 2.0, size=(3, 4))
        eps = rng.normal(size=(3, 4))
        p = rng.normal(size=(3, 2))
        out = uenl_total(p, u, [1, 2, 1], 1.0, epsilon=eps, kl_form="std")
        expected = kl_regularizer(leaf(u), form="std").value.item()
        assert out.kl_term.value.item() == pytest.approx(expected, abs=1e-15)

    def test_end_to_end_gradient_per_parameter(self):
        # Numeric check of d total / d p and d total / d u on a 3-class toy
        # batch with frozen epsilon, against the central-difference oracle.
        rng = np.random.default_rng(29)
        p0 = rng.normal(size=(2, 3))
        u0 = rng.uniform(0.5, 2.0, size=(2, 4))
        eps = rng.normal(size=(2, 4))
        y = [1, 3]

        p_leaf = leaf(p0)
        u_leaf = leaf(u0)
        out = uenl_total(p_leaf, u_leaf, y, 0.1, epsilon=eps)
        grads = backward(out.total)

        def loss_at(p, u):
            return uenl_total(p, u, y, 0.1, epsilon=eps).total.value.item()

        num_p = numeric_gradient(lambda q: loss_at(q.reshape(2, 3), u0), p0.ravel()).reshape(2, 3)
        num_u = numeric_gradient(lambda q: loss_at(p0, q.reshape(2, 4)), u0.ravel()).reshape(2, 4)
        np.testing.assert_allclose(grads[p_leaf].array, num_p, rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(grads[u_leaf].array, num_u, rtol=1e-5, atol=1e-8)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            uenl_total(np.ones((1, 2)), np.ones((1, 2)), [1], -0.1, RngStream(0))
        with pytest.raises(ValueError):
            uenl_total(np.ones((1, 2)), np.ones((1, 2)), [1], 0.1, RngStream(0), uhat_scale=0.0)


class TestBaselines:
    def test_plain_ce_uniform_logits(self):
        loss = plain_ce(leaf(np.zeros((3, 10))), [1, 5, 10])
        assert loss.value.item() == pytest.approx(2.302585, abs=1e-6)

    def test_plain_ce_matches_oracle(self):
        rng = np.random.default_rng(31)
        p = rng.normal(size=(12, 5)) * 3.0
        y = rng.integers(1, 6, size=12)
        assert plain_ce(leaf(p), y).value.item() == pytest.approx(softmax_ce(p, y), abs=1e-12)

    def test_logitnorm_definitional_identity(self):
        rng = np.random.default_rng(32)
        p = rng.normal(size=(7, 4))
        y = rng.integers(1, 5, size=7)
        direct = logitnorm_ce(leaf(p), y, temperature=0.04).value.item()
        composed = ce_with_temperature(
            normalize_logits(leaf(p)), np.full(7, 0.04), y
        ).value.item()
        assert direct == composed

    def test_logitnorm_scale_invariance(self):
        rng = np.random.default_rng(33)
        p = rng.normal(size=(5, 3))
        y = [1, 2, 3, 1, 2]
        base = logitnorm_ce(leaf(p), y).value.item()
        for c in (0.5, 20.0, 500.0):
            assert logitnorm_ce(leaf(c * p), y).value.item() == pytest.approx(base, abs=1e-9)

    def test_errors(self):
        with pytest.raises(ValueError):
            logitnorm_ce(leaf([[1.0, 0.0]]), [1], temperature=0.0)
        with pytest.raises(ValueError):
            plain_ce(leaf([[1.0, 0.0]]), [2, 1])
        with pytest.raises(ValueError):
            plain_ce(leaf([[1.0, 0.0]]), [0])
        with pytest.raises(ValueError):
            plain_ce(leaf([1.0, 0.0]), [1])

    def test_constants_exported(self):
        assert NORM_EPSILON == 1e-7
        assert UHAT_FLOOR == 1e-6
