"""Detection scores: frozen values, orientation, ODIN mechanics, CSV export."""

import csv

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import uenl.scoring
from conftest import model_arch
from uenl.model import forward, init_params
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
from uenl.tensor import Tensor, backward, tempered_ce


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


@st.composite
def logit_matrices(draw):
    """Logit rows up to +-1e3, some with tied maxima (integer grids, a row
    maximum copied into other columns) or one entry far above the rest."""
    n, k = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    value = st.one_of(st.floats(-1e3, 1e3), st.integers(-3, 3).map(float))
    z = np.array(draw(st.lists(value, min_size=n * k, max_size=n * k))).reshape(n, k)
    shape = draw(st.sampled_from(["plain", "tied_max", "dominant"]))
    if shape == "tied_max":
        z[:, draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=k))] = z.max(axis=1, keepdims=True)
    elif shape == "dominant":
        z[:, draw(st.integers(0, k - 1))] = np.minimum(z.max(axis=1) + draw(st.floats(1.0, 1e3)), 1e3)
    return z


class TestScipyReference:
    """The numpy kernels repeat scipy.special's order of operations, so their
    bits are scipy's."""

    @settings(max_examples=100)
    @given(logit_matrices())
    def test_msp_is_scipy_softmax_max(self, z):
        assert np.array_equal(msp_score(z), scipy.special.softmax(z, axis=-1).max(axis=-1))

    @settings(max_examples=100)
    @given(logit_matrices(), st.sampled_from([0.1, 1000.0]))
    def test_energy_is_scipy_logsumexp(self, z, temperature):
        expected = temperature * scipy.special.logsumexp(z / temperature, axis=-1)
        assert np.array_equal(energy_score(z, temperature), expected)


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


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


class TestOdinPerturbationBits:
    """_odin_perturbed builds x' in one buffer; it must equal the plain
    expression np.clip(x - eps * np.sign(g), lo, hi) bit for bit."""

    @staticmethod
    def reference(x, g, eps, clip_range):
        x_tilde = x - eps * np.sign(g)
        return x_tilde if clip_range is None else np.clip(x_tilde, *clip_range)

    @pytest.mark.parametrize("clip_range", [None, (-0.5, 0.5), (0.0, 1.0), (-1.0, -0.0)])
    @pytest.mark.parametrize("eps", [0.0014, 0.5, 0.0])
    def test_signed_zeros_and_zero_gradients(self, small_params, monkeypatch, clip_range, eps):
        # Every pairing of x in {+-0, +-0.3, +-eps, +-1} with a gradient in
        # {+-0, +-1e-300, +-2}; the gradient is planted, since a real one
        # rarely holds signed zeros.
        xs = np.array([0.0, -0.0, 0.3, -0.3, eps, -eps, 1.0, -1.0])
        gs = np.array([0.0, -0.0, 1e-300, -1e-300, 2.0, -2.0])
        x = np.repeat(xs, gs.size)[:40].reshape(8, 5)
        g = np.tile(gs, xs.size)[:40].reshape(8, 5)
        out = forward(small_params, x, "eval")
        monkeypatch.setattr(uenl.scoring, "backward", lambda loss, wrt: {wrt[0]: Tensor(g)})
        got = _odin_perturbed(out, 1000.0, eps, clip_range)
        np.testing.assert_array_equal(_bits(got), _bits(self.reference(x, g, eps, clip_range)))

    @pytest.mark.parametrize("clip_range", [None, (-1.0, 1.0)])
    def test_real_gradient(self, small_params, clip_range):
        x = np.random.default_rng(13).uniform(-1.2, 1.2, size=(70, 5))
        x[::3, 1], x[1::3, 2] = 0.0, -0.0
        out = forward(small_params, x, "eval")
        g = backward(
            tempered_ce(out.logits, np.full((70, 1), 1000.0), np.eye(3)[out.logits.array.argmax(axis=1)], reduction="sum"),
            wrt=[out.x],
        )[out.x].array
        got = _odin_perturbed(out, 1000.0, 0.0014, clip_range)
        np.testing.assert_array_equal(_bits(got), _bits(self.reference(x, g, 0.0014, clip_range)))


class TestUncertaintyScore:
    def test_fresh_head_scores_minus_delta(self):
        config = model_arch(5, (12, 6), 3, delta=32, dropout=0.0)
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


@pytest.mark.parametrize("score", [odin_score, uncertainty_score])
@pytest.mark.parametrize("shape", [(), (2, 2, 5)])
def test_inputs_must_be_one_row_or_a_matrix(small_params, score, shape):
    with pytest.raises(ValueError, match=r"x must be 1-d or 2-d, got shape"):
        score(small_params, np.zeros(shape))


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
