"""Detection scores: frozen values, orientation, ODIN mechanics, CSV export."""

import csv

import numpy as np
import pytest

from uenl.model import ModelConfig, forward, init_params
from uenl.rng import RngStream
from uenl.scoring import (
    SCORE_METHODS,
    ScoreSet,
    _odin_perturbed,
    energy_score,
    msp_score,
    odin_score,
    uncertainty_score,
    write_scores_csv,
)


class TestMsp:
    def test_uniform_logits(self):
        assert msp_score(np.zeros(10)) == pytest.approx(0.1, abs=1e-12)

    def test_two_class_frozen_value(self):
        # softmax([1, 0])[0] = e / (e + 1).
        assert msp_score([1.0, 0.0]) == pytest.approx(0.731059, abs=1e-6)
        assert msp_score([1.0, 0.0]) == pytest.approx(np.e / (np.e + 1.0), abs=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=12)
        base = msp_score(logits)
        for c in (-100.0, 0.3, 57.0):
            assert msp_score(logits + c) == pytest.approx(base, abs=1e-12)

    def test_batch_and_range(self):
        rng = np.random.default_rng(1)
        scores = msp_score(rng.normal(size=(40, 6)))
        assert scores.shape == (40,)
        assert ((scores > 0.0) & (scores <= 1.0)).all()

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            msp_score(np.zeros((2, 2, 2)))


class TestEnergy:
    def test_ln_two(self):
        assert energy_score([0.0, 0.0], temperature=1.0) == pytest.approx(0.693147, abs=1e-6)

    def test_ten_zero_frozen_value(self):
        # T = 1: logsumexp([10, 0]) = 10 + ln(1 + e^{-10}).
        val = energy_score([10.0, 0.0], temperature=1.0)
        assert val == pytest.approx(10.0000454, abs=1e-7)
        assert val == pytest.approx(10.0 + np.log1p(np.exp(-10.0)), abs=1e-12)

    def test_shift_equivariance_and_rank_invariance(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(30, 5))
        base = energy_score(logits, temperature=1.0)
        shifted = energy_score(logits + 3.7, temperature=1.0)
        np.testing.assert_allclose(shifted, base + 3.7, atol=1e-12)
        # At other temperatures a constant shift still adds c, so ranks hold.
        b01 = energy_score(logits, temperature=0.1)
        s01 = energy_score(logits + 3.7, temperature=0.1)
        np.testing.assert_array_equal(np.argsort(b01), np.argsort(s01))

    def test_small_temperature_approaches_max(self):
        logits = np.array([2.0, -1.0, 0.5])
        assert energy_score(logits, temperature=1e-4) == pytest.approx(2.0, abs=1e-3)

    def test_overflow_safe(self):
        assert energy_score([1000.0, 1000.0], 1.0) == pytest.approx(1000.0 + np.log(2.0), abs=1e-9)

    def test_temperature_validation(self):
        with pytest.raises(ValueError):
            energy_score([1.0, 0.0], temperature=0.0)
        with pytest.raises(ValueError):
            energy_score([1.0, 0.0], temperature=-1.0)


class TestOdin:
    def test_no_perturbation_unit_temperature_equals_msp(self, small_params):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(100, 5))
        logits = forward(small_params, x, "eval").logits.array
        odin = odin_score(small_params, x, temperature=1.0, epsilon=0.0)
        np.testing.assert_array_equal(odin, msp_score(logits))

    def test_no_perturbation_scaled_temperature(self, small_params):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(20, 5))
        logits = forward(small_params, x, "eval").logits.array
        odin = odin_score(small_params, x, temperature=1000.0, epsilon=0.0)
        np.testing.assert_array_equal(odin, msp_score(logits / 1000.0))
        # Temperature scaling preserves each sample's argmax class.
        np.testing.assert_array_equal(
            np.argmax(logits, axis=1), np.argmax(logits / 1000.0, axis=1)
        )

    def test_perturbation_is_exact_sign_step(self, small_params):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(30, 5))
        eps = 0.0014
        x_tilde = _odin_perturbed(forward(small_params, x, "eval"), 1000.0, eps, None)
        moves = np.abs(x_tilde - x)
        # Where the input gradient is nonzero the step is exactly epsilon.
        assert (np.max(moves, axis=1) <= eps + 1e-15).all()
        assert (np.isclose(moves, eps) | np.isclose(moves, 0.0)).all()
        assert np.isclose(np.max(np.abs(x_tilde - x)), eps)

    def test_clip_range_bounds_perturbed_input(self, small_params):
        rng = np.random.default_rng(6)
        x = rng.uniform(-1.0, 1.0, size=(15, 5))
        x_tilde = _odin_perturbed(forward(small_params, x, "eval"), 1000.0, 0.5, (-1.0, 1.0))
        assert x_tilde.min() >= -1.0 and x_tilde.max() <= 1.0

    def test_bad_clip_range(self, small_params):
        with pytest.raises(ValueError):
            odin_score(small_params, np.zeros((2, 5)), epsilon=0.1, clip_range=(1.0, -1.0))

    def test_batch_matches_per_sample(self, small_params):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 5))
        batch = odin_score(small_params, x, temperature=10.0, epsilon=0.01)
        singles = np.array(
            [odin_score(small_params, x[i], temperature=10.0, epsilon=0.01) for i in range(6)]
        )
        np.testing.assert_allclose(batch, singles, atol=1e-12)

    def test_single_input_returns_float(self, small_params):
        out = odin_score(small_params, np.zeros(5), temperature=1.0, epsilon=0.0)
        assert isinstance(out, float)

    def test_parameter_validation(self, small_params):
        with pytest.raises(ValueError):
            odin_score(small_params, np.zeros(5), temperature=0.0)
        with pytest.raises(ValueError):
            odin_score(small_params, np.zeros(5), epsilon=-0.1)


class TestUncertaintyScore:
    def test_fresh_head_scores_minus_delta(self):
        config = ModelConfig(input_dim=5, hidden_dims=(12, 6), num_classes=3, delta=32, dropout_rate=0.0)
        params = init_params(config, RngStream(1))
        rng = np.random.default_rng(8)
        scores = uncertainty_score(params, rng.normal(size=(10, 5)))
        np.testing.assert_array_equal(scores, -32.0)

    def test_deterministic(self, small_params):
        x = np.random.default_rng(9).normal(size=(7, 5))
        a = uncertainty_score(small_params, x)
        b = uncertainty_score(small_params, x)
        np.testing.assert_array_equal(a, b)

    def test_matches_monte_carlo_resampling_mean(self, small_params):
        # E[u_hat] = sum_i u_i = -score; 1e4 epsilon draws land within 2%.
        from uenl.model import uncertainty_forward
        from uenl.tensor import Tensor

        small_params.weights["head.w"] = Tensor(RngStream(10).normal((6, 8)) * 0.3)
        x = np.random.default_rng(11).normal(size=(1, 5))
        score = uncertainty_score(small_params, x)[0]
        emb = forward(small_params, x, "eval").embedding.array
        u = uncertainty_forward(small_params, emb, "eval").u.array[0]
        eps = RngStream(12).normal((10_000, u.shape[0]))
        mc_mean = (u * eps * eps).sum(axis=1).mean()
        assert abs(mc_mean - (-score)) / (-score) < 0.02

    def test_single_input_returns_float(self, small_params):
        assert isinstance(uncertainty_score(small_params, np.zeros(5)), float)


class TestScoreExport:
    def test_methods_tuple(self):
        assert SCORE_METHODS == ("msp", "energy", "odin", "uncertainty")

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        sets = [
            ScoreSet("msp", rng.uniform(size=3), {"uniform": rng.uniform(size=2)}),
            ScoreSet("energy", rng.normal(size=3), {"uniform": rng.normal(size=2)}),
        ]
        path = tmp_path / "scores.csv"
        write_scores_csv(sets, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10
        assert set(rows[0]) == {"dataset", "sample_index", "method", "score"}
        # repr round-trip keeps float64 values exact
        first = [r for r in rows if r["dataset"] == "id" and r["method"] == "msp"]
        np.testing.assert_array_equal(
            np.array([float(r["score"]) for r in first]), sets[0].id_scores
        )
        assert {r["dataset"] for r in rows} == {"id", "uniform"}
