"""Finite-difference checker: frozen cases, kink handling, error contracts."""

import numpy as np
import pytest
from gradcheck import GradCheckResult, finite_diff_check

from uenl.tensor import add, leaf, logsumexp, l2norm, mul, reduce_mean, reduce_sum, relu, square


class TestFrozenCases:
    def test_quadratic_exact(self):
        # f(x) = sum(x^2) at [1, 2]: analytic gradient is [2, 4] and central
        # differences are exact to second order, so the error is tiny.
        res = finite_diff_check(lambda x: reduce_sum(square(x)), [1.0, 2.0], step=1e-6)
        np.testing.assert_allclose(res.analytic, [2.0, 4.0], atol=1e-14)
        assert res.max_rel_err < 1e-8
        assert not res.kinks.any()

    def test_logsumexp_random_points(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            point = rng.normal(size=7)
            res = finite_diff_check(lambda x: logsumexp(x), point)
            assert res.max_rel_err < 1e-6

    def test_relu_kink_at_zero_flagged(self):
        res = finite_diff_check(lambda x: reduce_sum(relu(x)), [-1.0, 0.0, 2.0])
        assert res.kinks.tolist() == [False, True, False]
        # The kinked coordinate is excluded: rel_err is NaN there and the max
        # is taken over the smooth coordinates only.
        assert np.isnan(res.rel_err[1])
        assert res.max_rel_err < 1e-8
        assert res.n_checked == 2

    def test_smooth_relu_coordinates_match_subgradient(self):
        res = finite_diff_check(lambda x: reduce_sum(relu(x)), [-1.0, 2.0])
        np.testing.assert_allclose(res.analytic, [0.0, 1.0], atol=1e-14)
        assert res.max_rel_err < 1e-8


class TestResultShape:
    def test_matrix_point_keeps_shape(self):
        point = np.arange(6, dtype=float).reshape(2, 3) + 1.0
        res = finite_diff_check(lambda x: l2norm(x), point)
        assert res.analytic.shape == (2, 3)
        assert res.numeric.shape == (2, 3)
        assert res.kinks.shape == (2, 3)
        assert res.max_rel_err < 1e-6

    def test_disconnected_input_gets_zero_gradient(self):
        # f ignores x entirely; analytic is all zeros and so is numeric.
        res = finite_diff_check(lambda x: reduce_mean(square(leaf([3.0]))), [1.0, 2.0])
        np.testing.assert_array_equal(res.analytic, [0.0, 0.0])
        np.testing.assert_array_equal(res.numeric, [0.0, 0.0])
        assert res.max_rel_err == 0.0

    def test_all_kinks_reports_zero_error(self):
        res = finite_diff_check(lambda x: reduce_sum(relu(x)), [0.0])
        assert res.kinks.all()
        assert res.n_checked == 0
        assert res.max_rel_err == 0.0


class TestErrors:
    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValueError):
            finite_diff_check(lambda x: reduce_sum(x), [1.0], step=0.0)
        with pytest.raises(ValueError):
            finite_diff_check(lambda x: reduce_sum(x), [1.0], step=-1e-6)

    def test_nonfinite_point_rejected(self):
        with pytest.raises(ValueError):
            finite_diff_check(lambda x: reduce_sum(x), [np.nan])

    def test_nonscalar_function_rejected(self):
        with pytest.raises(ValueError):
            finite_diff_check(lambda x: square(x), [1.0, 2.0])

    def test_non_node_return_rejected(self):
        with pytest.raises(TypeError):
            finite_diff_check(lambda x: 1.0, [1.0])


class TestAgainstIndependentOracle:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_smooth_composition(self, seed):
        # Weighted smooth composite checked against both finite_diff_check's
        # internal numeric column and this test's own oracle loop.
        from oracles import numeric_gradient

        rng = np.random.default_rng(100 + seed)
        point = rng.normal(size=4) + 3.0  # keep away from ln/relu trouble
        w = rng.normal(size=4)

        def f(x):
            return add(reduce_sum(mul(square(x), leaf(w))), logsumexp(x))

        def f_np(arr):
            return float(np.sum(arr * arr * w) + np.log(np.sum(np.exp(arr))))

        res = finite_diff_check(f, point)
        oracle = numeric_gradient(f_np, point)
        assert res.max_rel_err < 1e-6
        np.testing.assert_allclose(res.analytic, oracle, rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(res.numeric, oracle, rtol=1e-6, atol=1e-8)

    def test_result_dataclass_fields(self):
        res = finite_diff_check(lambda x: reduce_sum(square(x)), [1.0])
        assert isinstance(res, GradCheckResult)
        assert isinstance(res.max_rel_err, float)
