"""Detection scores: frozen values, orientation, ODIN mechanics, CSV export."""

import csv
import zlib

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import uenl.model
import uenl.scoring
from conftest import awkward_rows, frozen, model_arch, trained_like
from uenl.harness import write_files
from uenl.model import forward, init_params
from uenl.rng import RngStream
from uenl.scoring import (
    SCORE_METHODS,
    ScoreSet,
    _odin_perturbed,
    energy_score,
    eval_pass,
    msp_score,
    odin_from_pass,
    scores_csv,
)
from uenl.tensor import backward, tempered_ce


def odin(params, x, temperature=1000.0, epsilon=0.0014, clip_range=None):
    """ODIN scores of the rows of ``x``, on one fold of ``params``, as the
    harness computes them."""
    model = params.fold()
    return np.concatenate(eval_pass(model, x, lambda chunk: odin_from_pass(model, chunk, temperature, epsilon, clip_range)))


def one_chunk(params, x):
    """The EvalChunk of all rows of ``x`` on one fold of ``params``."""
    (chunk,) = eval_pass(params, x, lambda chunk: chunk, chunk=len(x))
    return chunk


def uncertainty(params, x):
    """The uncertainty score -sum_i u_i of each row of ``x``, from eval_pass."""
    return -np.concatenate(eval_pass(params, x, lambda chunk: chunk.u_total))


class TestMsp:
    def test_uniform_logits(self):
        assert msp_score(np.zeros((1, 10)))[0] == pytest.approx(0.1, abs=1e-12)

    def test_two_class_frozen_value(self):
        # softmax([1, 0])[0] = e / (e + 1).
        assert msp_score([[1.0, 0.0]])[0] == pytest.approx(0.731059, abs=1e-6)
        assert msp_score([[1.0, 0.0]])[0] == pytest.approx(np.e / (np.e + 1.0), abs=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(1, 12))
        base = msp_score(logits)[0]
        for c in (-100.0, 0.3, 57.0):
            assert msp_score(logits + c)[0] == pytest.approx(base, abs=1e-12)

    def test_batch_and_range(self):
        rng = np.random.default_rng(1)
        scores = msp_score(rng.normal(size=(40, 6)))
        assert scores.shape == (40,)
        assert ((scores > 0.0) & (scores <= 1.0)).all()

    def test_bad_shape(self):
        # Only (n, k) logit rows: a single row is [[...]].
        for shape in ((), (10,), (2, 2, 2)):
            with pytest.raises(ValueError, match=r"logits must be 2-d \(rows, classes\), got shape"):
                msp_score(np.zeros(shape))


class TestEnergy:
    def test_ln_two(self):
        assert energy_score([[0.0, 0.0]], temperature=1.0)[0] == pytest.approx(0.693147, abs=1e-6)

    def test_ten_zero_frozen_value(self):
        # T = 1: logsumexp([10, 0]) = 10 + ln(1 + e^{-10}).
        val = energy_score([[10.0, 0.0]], temperature=1.0)[0]
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
        logits = np.array([[2.0, -1.0, 0.5]])
        assert energy_score(logits, temperature=1e-4)[0] == pytest.approx(2.0, abs=1e-3)

    def test_overflow_safe(self):
        assert energy_score([[1000.0, 1000.0]], 1.0)[0] == pytest.approx(1000.0 + np.log(2.0), abs=1e-9)

    def test_temperature_validation(self):
        with pytest.raises(ValueError):
            energy_score([[1.0, 0.0]], temperature=0.0)
        with pytest.raises(ValueError):
            energy_score([[1.0, 0.0]], temperature=-1.0)

    def test_bad_shape(self):
        for shape in ((), (10,), (2, 2, 2)):
            with pytest.raises(ValueError, match=r"logits must be 2-d \(rows, classes\), got shape"):
                energy_score(np.zeros(shape), temperature=1.0)


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


class TestColumnPasses:
    """msp_score and energy_score give the bits of their expressions with
    numpy's row reductions (oracles), on both sides of the 8-column switch."""

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 7, 8, 10, 32])
    @pytest.mark.parametrize("n", [1, 92, 513])
    def test_msp_and_energy(self, n, k):
        logits = awkward_rows(zlib.crc32(f"scores{n}x{k}".encode()), n, k)
        if n > 1 and k > 1:
            assert ((logits == logits.max(axis=1, keepdims=True)).sum(axis=1) > 1).any()  # tied maxima
        assert msp_score(logits).tobytes() == oracles.msp_numpy(logits).tobytes()
        # At 1e-300, logits / T overflows on most rows: their inf and NaN
        # scores keep numpy's bits too.
        for temperature in (0.1, 1.0, 1000.0, 1e-300):
            with np.errstate(over="ignore", invalid="ignore"):
                got, want = energy_score(logits, temperature), oracles.energy_numpy(logits, temperature)
            assert got.tobytes() == want.tobytes(), temperature

    def test_tied_maxima_and_signed_zeros(self):
        logits = np.array([[2.0, 2.0, -1.0], [0.0, -0.0, -0.0], [-0.0, -0.0, -0.0], [5.0, 5.0, 5.0], [-3.0, 1.0, 1.0]])
        assert msp_score(logits).tobytes() == oracles.msp_numpy(logits).tobytes()
        assert energy_score(logits, 1.0).tobytes() == oracles.energy_numpy(logits, 1.0).tobytes()
        assert energy_score(logits, 1.0)[3] == 5.0 + np.log(3.0)


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
        model = small_params.fold()
        chunk = one_chunk(model, x)
        odin_scores = odin_from_pass(model, chunk, temperature=1.0, epsilon=0.0)
        np.testing.assert_array_equal(odin_scores, msp_score(chunk.logits))

    def test_no_perturbation_scaled_temperature(self, small_params):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(20, 5))
        model = small_params.fold()
        chunk = one_chunk(model, x)
        logits = chunk.logits
        odin_scores = odin_from_pass(model, chunk, temperature=1000.0, epsilon=0.0)
        np.testing.assert_array_equal(odin_scores, msp_score(logits / 1000.0))
        # Temperature scaling preserves each sample's argmax class.
        np.testing.assert_array_equal(
            np.argmax(logits, axis=1), np.argmax(logits / 1000.0, axis=1)
        )

    def test_perturbation_is_exact_sign_step(self, small_params):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(30, 5))
        eps = 0.0014
        x_tilde = _odin_perturbed(one_chunk(small_params, x), 1000.0, eps, None)
        moves = np.abs(x_tilde - x)
        # Where the input gradient is nonzero the step is exactly epsilon.
        assert (np.max(moves, axis=1) <= eps + 1e-15).all()
        assert (np.isclose(moves, eps) | np.isclose(moves, 0.0)).all()
        assert np.isclose(np.max(np.abs(x_tilde - x)), eps)

    def test_clip_range_bounds_perturbed_input(self, small_params):
        rng = np.random.default_rng(6)
        x = rng.uniform(-1.0, 1.0, size=(15, 5))
        x_tilde = _odin_perturbed(one_chunk(small_params, x), 1000.0, 0.5, (-1.0, 1.0))
        assert x_tilde.min() >= -1.0 and x_tilde.max() <= 1.0

    def test_bad_clip_range(self, small_params):
        with pytest.raises(ValueError, match="clip_range must satisfy hi > lo"):
            odin(small_params, np.zeros((2, 5)), epsilon=0.1, clip_range=(1.0, -1.0))

    def test_batch_matches_per_sample(self, small_params):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 5))
        batch = odin(small_params, x, temperature=10.0, epsilon=0.01)
        singles = np.array(
            [odin(small_params, x[i : i + 1], temperature=10.0, epsilon=0.01)[0] for i in range(6)]
        )
        np.testing.assert_allclose(batch, singles, atol=1e-12)

    def test_parameters_score_as_their_fold(self, small_params):
        # Given ModelParams, the perturbed forward still runs in eval mode.
        x = np.random.default_rng(15).normal(size=(9, 5))
        model = small_params.fold()
        want = odin_from_pass(model, one_chunk(model, x), 1000.0, 0.0014)
        np.testing.assert_array_equal(odin_from_pass(small_params, one_chunk(model, x), 1000.0, 0.0014), want)

    def test_parameter_validation(self, small_params):
        with pytest.raises(ValueError, match="temperature must be positive"):
            odin(small_params, np.zeros((1, 5)), temperature=0.0)
        with pytest.raises(ValueError, match="epsilon must be non-negative"):
            odin(small_params, np.zeros((1, 5)), epsilon=-0.1)


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
        chunk = one_chunk(small_params, x)
        monkeypatch.setattr(uenl.scoring, "_input_gradient", lambda chunk, temperature: g.copy())
        got = _odin_perturbed(chunk, 1000.0, eps, clip_range)
        np.testing.assert_array_equal(_bits(got), _bits(self.reference(x, g, eps, clip_range)))

    @pytest.mark.parametrize("clip_range", [None, (-1.0, 1.0)])
    def test_real_gradient(self, small_params, clip_range):
        x = np.random.default_rng(13).uniform(-1.2, 1.2, size=(70, 5))
        x[::3, 1], x[1::3, 2] = 0.0, -0.0
        out = forward(small_params.fold(), x)
        g = backward(
            tempered_ce(out.logits, np.full((70, 1), 1000.0), np.eye(3)[out.logits.value.argmax(axis=1)], reduction="sum"),
            wrt=[out.x],
        )[out.x]
        got = _odin_perturbed(one_chunk(small_params, x), 1000.0, 0.0014, clip_range)
        np.testing.assert_array_equal(_bits(got), _bits(self.reference(x, g, 0.0014, clip_range)))


class TestEvalPassMatchesTheGraph:
    """eval_pass runs each chunk without a graph, and ODIN walks its input
    gradient back along the chunk's tape. The logits, u_total, ODIN's
    input gradient and every method's scores equal the graph oracle
    (tests/oracles.py) bit for bit. 600 rows are chunks of 512 and 88
    (64 + a short block of 24); 1100 are 512, 512 and 76 (64 + 12)."""

    @staticmethod
    def rows(shape, n):
        params = trained_like(shape)
        rng = np.random.default_rng(zlib.crc32(f"eval{shape}{n}".encode()))
        return params, rng.standard_normal((n, params.config.backbone.input_dim))

    @pytest.mark.parametrize("n", [600, 1100])
    @pytest.mark.parametrize("shape", ["tiny", "desk", "image"])
    def test_logits_u_total_and_input_gradient(self, shape, n):
        params, x = self.rows(shape, n)
        got = eval_pass(params, x, lambda c: (c.logits, c.u_total, uenl.scoring._input_gradient(c, 1000.0)))

        def graph(out, u_total):
            logits = out.logits.value
            nll = tempered_ce(out.logits, np.full((len(logits), 1), 1000.0), np.eye(logits.shape[1])[logits.argmax(1)], reduction="sum")
            return logits, u_total, backward(nll, wrt=[out.x])[out.x]

        want = oracles.graph_eval_pass(params, x, graph)
        assert len(got) == len(want) == -(-n // 512)
        for got_chunk, want_chunk in zip(got, want):
            for a, b in zip(got_chunk, want_chunk):
                np.testing.assert_array_equal(_bits(a), _bits(b))

    @pytest.mark.parametrize(
        "temperature, epsilon, clip_range",
        [(1000.0, 0.0014, (-2.0, 2.0)), (1000.0, 0.0014, None), (1000.0, 0.0, (-2.0, 2.0)), (1.0, 0.3, None)],
        ids=["clipped", "clip_none", "epsilon_0", "large_step"],
    )
    @pytest.mark.parametrize("shape", ["tiny", "desk", "image"])
    def test_every_score(self, shape, temperature, epsilon, clip_range):
        from uenl.config import ScoringSpec
        from uenl.harness import _dataset_scores

        params, x = self.rows(shape, 600)
        spec = ScoringSpec(odin_temperature=temperature, odin_epsilon=epsilon)
        logits, scores = _dataset_scores(params, x, SCORE_METHODS, spec, clip_range)
        model = params.fold()

        def graph(out, u_total):
            return {
                "logits": out.logits.value,
                "msp": msp_score(out.logits.value),
                "energy": energy_score(out.logits.value, spec.energy_temperature),
                "odin": oracles.odin_from_pass(model, out, temperature, epsilon, clip_range),
                "uncertainty": -u_total,
            }

        want = oracles.graph_eval_pass(params, x, graph)
        for name, got in [("logits", logits), *scores.items()]:
            np.testing.assert_array_equal(_bits(got), _bits(np.concatenate([w[name] for w in want])), err_msg=name)

    @pytest.mark.parametrize("layer", ["backbone.h0", "backbone.out", "head"])
    def test_an_overflowing_layer_names_itself(self, layer):
        # Huge finite weights on one layer overflow its product; the graph
        # pass raises the same error.
        params = trained_like("tiny")
        params.weights[f"{layer}.w"] = frozen(np.full(params.weights[f"{layer}.w"].shape, 1e300))
        x = np.full((3, 6), 1e10)
        message = f"^{layer}: dense produced non-finite values$"
        with pytest.raises(FloatingPointError, match=message):
            eval_pass(params, x, lambda chunk: chunk)
        with pytest.raises(FloatingPointError, match=message):
            oracles.graph_eval_pass(params, x, lambda out, u_total: out)


class TestUncertaintyScore:
    def test_fresh_head_scores_minus_delta(self):
        config = model_arch(5, (12, 6), 3, delta=32, dropout=0.0)
        params = init_params(config, RngStream(1))
        rng = np.random.default_rng(8)
        scores = uncertainty(params, rng.normal(size=(10, 5)))
        np.testing.assert_array_equal(scores, -32.0)

    def test_deterministic(self, small_params):
        x = np.random.default_rng(9).normal(size=(7, 5))
        a = uncertainty(small_params, x)
        b = uncertainty(small_params, x)
        np.testing.assert_array_equal(a, b)

    def test_matches_monte_carlo_resampling_mean(self, small_params):
        # E[u_hat] = sum_i u_i = -score; 1e4 epsilon draws land within 2%.
        from uenl.model import uncertainty_forward

        small_params.weights["head.w"] = frozen(RngStream(10).normal((6, 8)) * 0.3)
        x = np.random.default_rng(11).normal(size=(1, 5))
        score = uncertainty(small_params, x)[0]
        model = small_params.fold()
        emb = forward(model, x).embedding.value
        u = uncertainty_forward(model, emb).u.value[0]
        eps = RngStream(12).normal((10_000, u.shape[0]))
        mc_mean = (u * eps * eps).sum(axis=1).mean()
        assert abs(mc_mean - (-score)) / (-score) < 0.02


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
        write_files({path: scores_csv(sets)})
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
