"""Training objectives: frozen values, oracles, scale invariance, gradients.

The normalization, resampling, tempered CE and KL are the ``tempered_ce``,
``resample`` and ``kl`` primitives; ``losses`` composes them into
``uenl_total`` and the two baselines."""

import numpy as np
import pytest
from conftest import uenl_terms
from oracles import mc_kl, numeric_gradient, softmax_ce

from uenl.gradcheck import finite_diff_check
from uenl.losses import NORM_EPSILON, UHAT_FLOOR, logitnorm_ce, plain_ce, uenl_total
from uenl.rng import RngStream
from uenl.tensor import as_node, backward, kl, leaf, mul, reduce_sum, resample, tempered_ce


def _normalize(p):
    """p / max(||p||, NORM_EPSILON) row by row: a label-free tempered_ce node
    at temperature 1."""
    p = as_node(p)
    return tempered_ce(p, np.ones((p.value.shape[0], 1)), norm_floor=NORM_EPSILON)


def _ce_at(p_bar, uhat, y):
    """Mean cross-entropy of softmax(p_bar / uhat) against 1-based labels."""
    p_bar = as_node(p_bar)
    n, k = p_bar.value.shape
    return tempered_ce(p_bar, np.reshape(uhat, (n, 1)), np.eye(k)[np.asarray(y) - 1])


class TestNormalizeLogits:
    def test_three_four_five(self):
        out = _normalize(leaf([[3.0, 4.0]])).value.array
        np.testing.assert_allclose(out, [[0.6, 0.8]], atol=1e-15)

    def test_zero_row_no_nan(self):
        out = _normalize(leaf([[0.0, 0.0, 0.0]])).value.array
        np.testing.assert_array_equal(out, [[0.0, 0.0, 0.0]])

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        p = rng.normal(size=(8, 5))
        base = _normalize(leaf(p)).value.array
        for c in (0.1, 10.0, 1000.0):
            scaled = _normalize(leaf(c * p)).value.array
            np.testing.assert_allclose(scaled, base, atol=1e-9)

    def test_unit_norm_above_floor(self):
        rng = np.random.default_rng(1)
        p = rng.normal(size=(20, 4)) * 1e-3  # small but well above 1e-6
        norms = np.linalg.norm(_normalize(leaf(p)).value.array, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            _normalize(leaf([1.0, 2.0]))
        with pytest.raises(ValueError):
            logitnorm_ce(leaf([1.0, 2.0]), [1])

    def test_differentiable(self):
        res = finite_diff_check(
            lambda p: reduce_sum(mul(_normalize(p), leaf([[0.3, -1.2, 0.4]]))),
            [[1.0, -2.0, 0.5]],
        )
        assert res.max_rel_err < 1e-6


class TestResampleUncertainty:
    def test_forced_ones_epsilon_gives_delta(self):
        total = uenl_total(np.ones((3, 2)), np.ones((3, 32)), [1, 2, 1], 0.0, epsilon=np.ones((3, 32)))
        np.testing.assert_array_equal(uenl_terms(total)[2], 32.0)
        np.testing.assert_array_equal(total.parents[1].attrs["weights"], 1.0)

    def test_monte_carlo_mean_near_delta(self):
        # E[u_hat] = sum_i u_i = 32 for unit u; 1e5 draws concentrate tightly.
        draws = 100_000
        eps = RngStream(7).normal((draws, 32))
        uhat = resample(leaf(np.ones((draws, 32))), eps * eps, UHAT_FLOOR)
        mean = uhat.value.array.mean()
        assert 31.4 <= mean <= 32.6

    def test_gradient_is_epsilon_squared(self):
        rng = np.random.default_rng(5)
        eps = rng.normal(size=(4, 6))

        def f(u):
            return reduce_sum(resample(u, eps * eps, UHAT_FLOOR))

        point = rng.uniform(0.5, 2.0, size=(4, 6))
        res = finite_diff_check(f, point)
        assert res.max_rel_err < 1e-8
        np.testing.assert_allclose(res.analytic, eps * eps, rtol=1e-12)

    def test_replay_with_returned_epsilon(self):
        # uenl_total draws its epsilon as rng.normal((batch, dims)), so the
        # same stream's draw replays the step bit for bit.
        p, u, y = np.ones((5, 2)), np.full((5, 8), 1.3), [1, 2, 1, 2, 1]
        drawn = uenl_total(p, u, y, 0.1, RngStream(9))
        replayed = uenl_total(p, u, y, 0.1, epsilon=RngStream(9).normal((5, 8)))
        np.testing.assert_array_equal(uenl_terms(drawn)[2], uenl_terms(replayed)[2])
        assert drawn.item() == replayed.item()

    def test_scalar_uncertainty_broadcast(self):
        eps = np.ones((2, 8)) * 2.0  # eps^2 = 4 in every dim
        total = uenl_total(np.ones((2, 2)), leaf([[0.5], [1.0]]), [1, 2], 0.0, epsilon=eps, n_dims=8)
        np.testing.assert_allclose(uenl_terms(total)[2], [16.0, 32.0], rtol=1e-15)

    def test_floor_engages_on_zero_epsilon(self):
        uhat = resample(leaf(np.ones((2, 4))), np.zeros((2, 4)), UHAT_FLOOR)
        np.testing.assert_array_equal(uhat.value.array, UHAT_FLOOR)

    def test_errors(self):
        p, y = np.ones((1, 2)), [1]
        with pytest.raises(ValueError):
            uenl_total(p, leaf([[0.0, 1.0]]), y, 0.1, epsilon=np.ones((1, 2)))
        with pytest.raises(ValueError):
            uenl_total(p, leaf([[1.0, 1.0]]), y, 0.1)  # no rng, no epsilon
        with pytest.raises(ValueError):
            uenl_total(p, leaf([[1.0, 1.0]]), y, 0.1, epsilon=np.ones((2, 2)))
        with pytest.raises(ValueError):
            uenl_total(p, leaf([1.0, 1.0]), y, 0.1, epsilon=np.ones((1, 2)))
        with pytest.raises(ValueError):
            uenl_total(p, leaf([[1.0, 1.0]]), y, 0.1, epsilon=np.ones((1, 3)), n_dims=3)


class TestCeWithTemperature:
    def test_uniform_rows_give_ln_k(self):
        k = 10
        p_bar = leaf(np.full((4, k), 1.0 / np.sqrt(k)))  # equal entries, unit norm
        for uhat in (np.full(4, 0.04), np.ones(4), np.full(4, 50.0)):
            loss = _ce_at(p_bar, uhat, [1, 4, 7, 10])
            assert loss.value.item() == pytest.approx(2.302585, abs=1e-6)

    def test_two_class_frozen_value(self):
        # p_bar = [1, 0], u_hat = 1, true class 1: loss = ln(1 + e^{-1}).
        loss = _ce_at(leaf([[1.0, 0.0]]), [1.0], [1])
        assert loss.value.item() == pytest.approx(0.313262, abs=1e-6)
        assert loss.value.item() == pytest.approx(np.log(1.0 + np.exp(-1.0)), abs=1e-12)

    def test_large_temperature_approaches_ln_k_monotonically(self):
        p = leaf([[2.0, 0.5, -1.0]])  # correctly ordered
        losses = [logitnorm_ce(p, [1], t).value.item() for t in (1.0, 10.0, 100.0, 1000.0)]
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
            ours = _ce_at(leaf(p_bar), uhat, y).value.item()
            oracle = softmax_ce(p_bar / uhat[:, None], y)
            assert ours == pytest.approx(oracle, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(12)
        p_bar = _normalize(leaf(rng.normal(size=(30, 5)))).value.array
        loss = _ce_at(leaf(p_bar), rng.uniform(0.1, 2.0, 30), rng.integers(1, 6, 30))
        assert loss.value.item() >= 0.0

    def test_rejects_bad_labels_and_temperatures(self):
        p = leaf([[1.0, 0.0]])
        with pytest.raises(ValueError):
            logitnorm_ce(p, [0], 1.0)  # labels are 1-based
        with pytest.raises(ValueError):
            logitnorm_ce(p, [3], 1.0)
        with pytest.raises(ValueError):
            logitnorm_ce(p, [1], 0.0)
        with pytest.raises(ValueError):
            tempered_ce(p, np.ones((2, 1)), np.eye(2)[:1])


class TestKlRegularizer:
    def test_unit_uncertainty_is_exactly_zero(self):
        assert kl(leaf(np.ones((5, 32)))).value.item() == 0.0

    def test_single_dim_at_e(self):
        # Variance form: 0.5 * (e - ln e - 1) = 0.5 * (e - 2).
        val = kl(leaf([[np.e]])).value.item()
        assert val == pytest.approx(0.359141, abs=1e-6)
        assert val == pytest.approx(0.5 * (np.e - 2.0), abs=1e-12)

    def test_std_form_closed_form(self):
        # Std form: 0.5 * (u^2 - 2 ln u - 1); at u = e this is 0.5 (e^2 - 3).
        val = kl(leaf([[np.e]]), form="std").value.item()
        assert val == pytest.approx(0.5 * (np.e**2 - 3.0), abs=1e-12)

    @pytest.mark.parametrize("form", ["variance", "std"])
    @pytest.mark.parametrize("u", [0.5, 1.0, 2.0])
    def test_against_monte_carlo_oracle(self, form, u):
        closed = kl(leaf([[u]]), form=form).value.item()
        estimate = mc_kl(u, form, n=1_000_000, seed=17)
        assert closed == pytest.approx(estimate, abs=1e-2)

    def test_nonnegative_and_zero_only_at_one(self):
        rng = np.random.default_rng(3)
        u = rng.uniform(0.2, 3.0, size=(10, 6))
        u[u == 1.0] = 1.1
        assert kl(leaf(u)).value.item() > 0.0

    def test_convex_in_each_coordinate(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a, b = rng.uniform(0.05, 5.0, size=2)
            mid = kl(leaf([[(a + b) / 2.0]])).value.item()
            avg = 0.5 * (kl(leaf([[a]])).value.item() + kl(leaf([[b]])).value.item())
            assert mid <= avg + 1e-12

    def test_errors(self):
        with pytest.raises(ValueError):
            kl(leaf([[0.0]]))
        with pytest.raises(ValueError):
            kl(leaf([1.0, 2.0]))
        with pytest.raises(ValueError):
            kl(leaf([[1.0]]), form="precision")


class TestUenlTotal:
    def test_zero_weight_total_is_ce(self):
        rng = np.random.default_rng(21)
        p = rng.normal(size=(6, 3))
        u = rng.uniform(0.5, 2.0, size=(6, 8))
        total = uenl_total(p, u, [1, 2, 3, 1, 2, 3], 0.0, RngStream(5))
        assert total.op == "tempered_ce"
        ce, kl_term, _ = uenl_terms(total)
        assert kl_term is None
        assert total.item() == ce

    def test_unit_uncertainty_zeroes_kl(self):
        rng = np.random.default_rng(22)
        p = rng.normal(size=(4, 3))
        total = uenl_total(p, np.ones((4, 8)), [1, 2, 3, 1], 0.7, RngStream(6))
        ce, kl_term, _ = uenl_terms(total)
        assert kl_term == 0.0
        assert total.item() == ce

    def test_composition_identity_exact(self):
        rng = np.random.default_rng(23)
        p = rng.normal(size=(5, 4))
        u = rng.uniform(0.3, 3.0, size=(5, 8))
        total = uenl_total(p, u, [1, 2, 3, 4, 1], 0.1, RngStream(7))
        ce, kl_term, _ = uenl_terms(total)
        assert total.item() == ce + 0.1 * kl_term
        assert ce >= 0.0
        assert kl_term >= 0.0
        assert total.parents[1].attrs["constant"] == 0.1

    def test_scale_invariance_in_logits(self):
        rng = np.random.default_rng(24)
        p = rng.normal(size=(6, 3))
        u = rng.uniform(0.5, 2.0, size=(6, 8))
        y = [1, 2, 3, 1, 2, 3]
        eps = rng.normal(size=(6, 8))
        base = uenl_total(p, u, y, 0.1, epsilon=eps).item()
        for c in (0.1, 10.0, 1000.0):
            scaled = uenl_total(c * p, u, y, 0.1, epsilon=eps).item()
            assert scaled == pytest.approx(base, abs=1e-9)

    def test_uhat_field_matches_manual_sum(self):
        rng = np.random.default_rng(25)
        u = rng.uniform(0.5, 2.0, size=(4, 6))
        eps = rng.normal(size=(4, 6))
        total = uenl_total(rng.normal(size=(4, 3)), u, [1, 2, 3, 1], 0.1, epsilon=eps)
        np.testing.assert_allclose(uenl_terms(total)[2], (u * eps * eps).sum(axis=1), rtol=1e-12)

    def test_uhat_scale_rescales_temperature(self):
        rng = np.random.default_rng(26)
        p = rng.normal(size=(4, 3))
        u = rng.uniform(0.5, 2.0, size=(4, 6))
        eps = rng.normal(size=(4, 6))
        y = [1, 2, 3, 1]
        scaled = uenl_total(p, u, y, 0.0, epsilon=eps, uhat_scale=0.25)
        manual_uhat = 0.25 * (u * eps * eps).sum(axis=1)
        manual = _ce_at(_normalize(leaf(p)), manual_uhat, y)
        assert uenl_terms(scaled)[0] == pytest.approx(manual.value.item(), abs=1e-12)

    def test_kl_form_plumbed_through(self):
        rng = np.random.default_rng(27)
        u = rng.uniform(0.5, 2.0, size=(3, 4))
        eps = rng.normal(size=(3, 4))
        p = rng.normal(size=(3, 2))
        total = uenl_total(p, u, [1, 2, 1], 1.0, epsilon=eps, kl_form="std")
        expected = kl(leaf(u), form="std").value.item()
        assert uenl_terms(total)[1] == pytest.approx(expected, abs=1e-15)

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
        grads = backward(uenl_total(p_leaf, u_leaf, y, 0.1, epsilon=eps))

        def loss_at(p, u):
            return uenl_total(p, u, y, 0.1, epsilon=eps).value.item()

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
        composed = _ce_at(_normalize(leaf(p)), np.full(7, 0.04), y).value.item()
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


# Every input that the removed wrappers (normalize_logits,
# resample_uncertainty, ce_with_temperature, kl_regularizer) rejected still
# raises ValueError through the three public objectives.
_P, _U, _Y, _EPS = np.arange(6.0).reshape(2, 3), np.ones((2, 4)), [1, 2], np.ones((2, 4))


def _uenl(p=_P, u=_U, y=_Y, kl_weight=0.1, **kw):
    return lambda: uenl_total(p, u, y, kl_weight, **({"epsilon": _EPS} | kw))


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(_uenl(p=np.ones(3)), id="uenl-logits-1d"),
        pytest.param(lambda: plain_ce(np.ones(3), [1]), id="plain-logits-1d"),
        pytest.param(lambda: logitnorm_ce(np.ones((2, 3, 1)), _Y), id="logitnorm-logits-3d"),
        pytest.param(_uenl(y=[1, 2, 3]), id="uenl-label-shape"),
        pytest.param(lambda: plain_ce(_P, [[1], [2]]), id="plain-label-shape"),
        pytest.param(lambda: plain_ce(_P, [1.5, 2.0]), id="plain-label-non-integer"),
        pytest.param(lambda: logitnorm_ce(_P, [0, 1]), id="logitnorm-label-below-1"),
        pytest.param(_uenl(y=[1, 4]), id="uenl-label-above-k"),
        pytest.param(lambda: logitnorm_ce(_P, _Y, 0.0), id="temperature-zero"),
        pytest.param(lambda: logitnorm_ce(_P, _Y, -0.04), id="temperature-negative"),
        pytest.param(_uenl(kl_weight=-0.1), id="kl-weight-negative"),
        pytest.param(_uenl(uhat_scale=0.0), id="uhat-scale-zero"),
        pytest.param(_uenl(uhat_scale=-1.0), id="uhat-scale-negative"),
        pytest.param(_uenl(u=np.ones(4)), id="u-1d"),
        pytest.param(_uenl(u=np.zeros((2, 4))), id="u-zero"),
        pytest.param(_uenl(epsilon=np.ones((3, 4))), id="epsilon-rows"),
        pytest.param(_uenl(epsilon=np.ones((2, 3))), id="epsilon-dims"),
        pytest.param(_uenl(u=np.ones((2, 1)), n_dims=8), id="epsilon-vs-n-dims"),
        pytest.param(_uenl(u=np.ones((2, 3)), n_dims=4), id="u-width-vs-n-dims"),
        pytest.param(_uenl(u=np.ones((2, 3)), n_dims=4, epsilon=None, rng=RngStream(0)), id="u-width-vs-drawn"),
        pytest.param(_uenl(epsilon=None), id="no-rng-no-epsilon"),
    ],
)
def test_wrapper_checks_still_raise(call):
    with pytest.raises(ValueError):
        call()
