"""Backbone and uncertainty head: init scheme, forward modes, BN, dropout."""

import math
import re
import zlib

import numpy as np
import pytest
from conftest import model_arch
from oracles import expected_param_count, unfolded_eval

from uenl.config import BackboneSpec, ExperimentConfig
from uenl.gradcheck import finite_diff_check
from uenl.model import (
    ModelParams,
    eval_logits,
    forward,
    init_params,
    param_leaves,
    param_shapes,
    predict_classes,
    uncertainty_forward,
)
from uenl.rng import RngStream
from uenl.tensor import Tensor, backward, reduce_mean, tempered_ce


def make_params(seed=0, input_dim=5, hidden=(12, 6), k=3, delta=8, **config_kw):
    return init_params(model_arch(input_dim, hidden, k, delta=delta, **config_kw), RngStream(seed))


class TestConfigValidation:
    """The architecture checks, on specs built in Python: each message names
    the config key, as a load error does."""

    def test_backbone_rejects_bad_fields(self):
        for args, message in (
            ((0, (4,), 2), "backbone.input_dim must be at least 1"),
            ((4, (), 2), "backbone.hidden_dims must name at least one hidden layer"),
            ((4, (4, 0), 2), "backbone.hidden_dims entries must be at least 1"),
            ((4, (4,), 1), "backbone.num_classes must be at least 2"),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                BackboneSpec(*args)

    def test_head_rejects_bad_fields(self):
        for fields, message in (
            (dict(delta=0), "delta must be at least 1"),
            (dict(dropout=1.0), "dropout must lie in [0, 1)"),
            (dict(dropout=-0.1), "dropout must lie in [0, 1)"),
            (dict(bn_momentum=0.0), "bn_momentum must lie in (0, 1]"),
            (dict(bn_momentum=2.0), "bn_momentum must lie in (0, 1]"),
            (dict(bn_epsilon=0.0), "bn_epsilon must be positive"),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                ExperimentConfig(BackboneSpec(4, (4,), 2), **fields)

    def test_embed_dim_is_last_hidden_width(self):
        params = make_params(input_dim=4, hidden=(8, 6), k=2)
        assert params.weights["head.w"].shape == (6, 8)
        assert forward(params, np.zeros((3, 4)), "eval").embedding.shape == (3, 6)

    def test_scalar_u_out_dim(self):
        for scalar, width in ((False, 8), (True, 1)):
            params = make_params(scalar_uncertainty=scalar)
            assert params.weights["head.w"].shape == (6, width)
            assert params.bn_state["head.bn.var"].shape == (width,)


class TestInit:
    def test_same_seed_bit_identical(self):
        p1, p2 = make_params(seed=3), make_params(seed=3)
        assert p1.weights.keys() == p2.weights.keys()
        for name in p1.weights:
            np.testing.assert_array_equal(p1.weights[name].array, p2.weights[name].array)
        for name in p1.bn_state:
            np.testing.assert_array_equal(p1.bn_state[name].array, p2.bn_state[name].array)

    def test_fan_in_100_weight_std(self):
        # LeCun uniform on fan-in 100: limit sqrt(3/100), std limit/sqrt(3) = 0.1.
        params = make_params(input_dim=100, hidden=(100,), k=2)
        w = params.weights["backbone.h0.w"].array
        assert w.shape == (100, 100)  # 10^4 entries
        assert abs(w.std() - 0.1) < 0.02  # within 20% of target

    def test_biases_zero_and_bn_identity(self):
        params = make_params()
        np.testing.assert_array_equal(params.weights["backbone.h0.b"].array, 0.0)
        np.testing.assert_array_equal(params.weights["backbone.h0.bn.gamma"].array, 1.0)
        np.testing.assert_array_equal(params.weights["backbone.h0.bn.beta"].array, 0.0)
        np.testing.assert_array_equal(params.bn_state["backbone.h0.bn.mean"].array, 0.0)
        np.testing.assert_array_equal(params.bn_state["backbone.h0.bn.var"].array, 1.0)

    def test_head_starts_at_zero(self):
        params = make_params()
        np.testing.assert_array_equal(params.weights["head.w"].array, 0.0)
        np.testing.assert_array_equal(params.weights["head.b"].array, 0.0)

    def test_param_count_closed_form(self):
        for kwargs in (
            dict(input_dim=5, hidden=(12, 6), k=3, delta=8),
            dict(input_dim=16, hidden=(64, 32), k=3, delta=32),
            dict(input_dim=7, hidden=(9,), k=2, delta=4, use_batchnorm=False),
        ):
            params = make_params(**kwargs)
            expected = expected_param_count(params.config)
            assert sum(math.prod(shape) for shape in param_shapes(params.config)[0].values()) == expected
            assert sum(t.size for t in params.weights.values()) == expected


class TestParamShapes:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(input_dim=5, hidden=(12, 6), k=3, delta=8),
            dict(input_dim=7, hidden=(9,), k=2, delta=4, use_batchnorm=False),
            dict(input_dim=4, hidden=(3, 5, 2), k=6, delta=8, scalar_uncertainty=True),
        ],
    )
    def test_init_params_follows_the_layout(self, kwargs):
        """init_params builds exactly the names, order and shapes that
        param_shapes lists, weights and batchnorm statistics apart."""
        params = make_params(**kwargs)
        weight_shapes, bn_shapes = param_shapes(params.config)
        assert [(n, t.shape) for n, t in params.weights.items()] == list(weight_shapes.items())
        assert [(n, t.shape) for n, t in params.bn_state.items()] == list(bn_shapes.items())

    def test_desk_layout(self):
        weights, bn_state = param_shapes(model_arch(16, (64, 32), 3, delta=32))
        assert list(weights.items()) == [
            ("backbone.h0.w", (16, 64)), ("backbone.h0.b", (64,)),
            ("backbone.h0.bn.gamma", (64,)), ("backbone.h0.bn.beta", (64,)),
            ("backbone.h1.w", (64, 32)), ("backbone.h1.b", (32,)),
            ("backbone.h1.bn.gamma", (32,)), ("backbone.h1.bn.beta", (32,)),
            ("backbone.out.w", (32, 3)), ("backbone.out.b", (3,)),
            ("head.w", (32, 32)), ("head.b", (32,)), ("head.bn.gamma", (32,)), ("head.bn.beta", (32,)),
        ]
        assert list(bn_state) == [
            f"{layer}.bn.{stat}" for layer in ("backbone.h0", "backbone.h1", "head") for stat in ("mean", "var")
        ]


class TestForwardBackbone:
    def test_output_shapes(self):
        params = make_params()
        x = RngStream(1).normal((7, 5))
        out = forward(params, x, "eval")
        assert out.logits.shape == (7, 3)
        assert out.embedding.shape == (7, 6)

    def test_eval_batch_invariance(self):
        # A row's eval output is identical whatever batch it sits in.
        params = make_params(seed=5)
        x = RngStream(2).normal((10, 5))
        full = forward(params, x, "eval").logits.array
        single = forward(params, x[3:4], "eval").logits.array
        np.testing.assert_array_equal(full[3:4], single)
        shuffled = forward(params, x[::-1].copy(), "eval").logits.array
        np.testing.assert_array_equal(full[::-1], shuffled)

    def test_train_equals_eval_without_stochastic_layers(self):
        params = make_params(dropout=0.0, use_batchnorm=False)
        x = RngStream(3).normal((6, 5))
        train_out = forward(params, x, "train").logits.array
        eval_out = forward(params, x, "eval").logits.array
        np.testing.assert_array_equal(train_out, eval_out)

    def test_dropout_zero_fraction_and_scaling(self):
        # One hidden layer, no BN: the embedding is dropout(relu(z)), so the
        # ratio to the eval embedding exposes the mask directly.
        params = make_params(seed=9, input_dim=20, hidden=(100,), k=2, delta=4,
                             dropout=0.3, use_batchnorm=False)
        x = RngStream(4).normal((1000, 20))
        eval_emb = forward(params, x, "eval").embedding.array
        train_emb = forward(params, x, "train", rng=RngStream(77)).embedding.array
        alive = eval_emb > 1e-12  # relu zeros are zero in both modes
        assert alive.sum() > 20_000
        dropped = train_emb[alive] == 0.0
        frac = dropped.mean()
        assert 0.29 <= frac <= 0.31
        ratios = train_emb[alive][~dropped] / eval_emb[alive][~dropped]
        np.testing.assert_allclose(ratios, 1.0 / 0.7, rtol=1e-12)

    def test_dropout_needs_rng_in_train_mode(self):
        params = make_params(dropout=0.3)
        x = np.zeros((2, 5))
        with pytest.raises(ValueError):
            forward(params, x, "train")

    def test_mode_and_shape_validation(self):
        params = make_params()
        with pytest.raises(ValueError):
            forward(params, np.zeros((2, 5)), "test")
        with pytest.raises(ValueError):
            forward(params, np.zeros((2, 4)), "eval")
        with pytest.raises(ValueError):
            forward(params, np.zeros(5), "eval")

    def test_train_bn_normalizes_batch(self):
        # With identity gamma/beta the train-mode BN output is the normalized
        # pre-activation: per-feature batch mean 0 and variance 1 within 1e-6.
        params = make_params(seed=11, dropout=0.0)
        params.weights["head.w"] = Tensor(RngStream(12).normal((6, 8)))
        x = RngStream(13).normal((200, 5))
        emb = forward(params, x, "train").embedding.array
        u = uncertainty_forward(params, emb, "train").u.array
        z_hat = np.log(u)  # u = exp(z_hat) with gamma 1, beta 0
        np.testing.assert_allclose(z_hat.mean(axis=0), 0.0, atol=1e-6)
        np.testing.assert_allclose(z_hat.var(axis=0), 1.0, atol=1e-4)  # eps shifts var slightly

    def test_train_bn_running_stat_update_rule(self):
        params = make_params(seed=15, dropout=0.0)
        x = RngStream(16).normal((64, 5))
        out = forward(params, x, "train")
        # New running stats = (1 - m) * old + m * batch statistic, m = 0.1.
        leaves = param_leaves(params)
        z = x @ params.weights["backbone.h0.w"].array + params.weights["backbone.h0.b"].array
        mu = z.mean(axis=0)
        var = z.var(axis=0)
        np.testing.assert_allclose(
            out.bn_updates["backbone.h0.bn.mean"].array, 0.9 * 0.0 + 0.1 * mu, atol=1e-12
        )
        np.testing.assert_allclose(
            out.bn_updates["backbone.h0.bn.var"].array, 0.9 * 1.0 + 0.1 * var, atol=1e-12
        )
        assert leaves.keys() == params.weights.keys()

    def test_eval_mode_reports_no_updates(self):
        params = make_params()
        out = forward(params, np.zeros((3, 5)), "eval")
        assert out.bn_updates == {}


class TestUncertaintyHead:
    def test_fresh_head_gives_all_ones(self):
        params = make_params()
        e = RngStream(20).normal((9, 6))
        u = uncertainty_forward(params, e, "eval").u.array
        assert u.shape == (9, 8)
        np.testing.assert_array_equal(u, 1.0)

    def test_exp_of_preactivation(self):
        # beta = 1 with zero head weights gives z_hat = 1 exactly, u = e.
        params = make_params()
        params.weights["head.bn.beta"] = Tensor(np.ones(8))
        u = uncertainty_forward(params, np.zeros((2, 6)), "eval").u.array
        np.testing.assert_allclose(u, 2.718282, atol=1e-6)

    def test_u_strictly_positive_random_params(self):
        params = make_params(seed=31)
        params.weights["head.w"] = Tensor(RngStream(32).normal((6, 8)))
        params.weights["head.b"] = Tensor(RngStream(33).normal((8,)))
        e = RngStream(34).normal((50, 6)) * 5.0
        for mode in ("train", "eval"):
            u = uncertainty_forward(params, e, mode).u.array
            assert (u > 0.0).all()

    def test_head_gradient_matches_finite_differences(self):
        # d mean(u) / d head.w through train-mode batchnorm, rel-err < 1e-5.
        # Eval mode folds batchnorm into constants and has no weight leaves.
        params = make_params(seed=41)
        base = param_leaves(params)
        e = RngStream(42).normal((5, 6))

        def f(w_node):
            leaves = dict(base)
            leaves["head.w"] = w_node
            return reduce_mean(uncertainty_forward(params, e, "train", leaves).u)

        res = finite_diff_check(f, np.full((6, 8), 0.05))
        assert res.max_rel_err < 1e-5

    def test_embedding_shape_validation(self):
        params = make_params()
        with pytest.raises(ValueError):
            uncertainty_forward(params, np.zeros((2, 5)), "eval")
        with pytest.raises(ValueError):
            uncertainty_forward(params, np.zeros((2, 6)), "predict")

    def test_corrupt_running_variance_raises(self):
        params = make_params()
        params.bn_state["head.bn.var"] = Tensor(-np.ones(8))
        with pytest.raises(ValueError):
            uncertainty_forward(params, np.zeros((2, 6)), "eval")

    def test_scalar_u_broadcast_width(self):
        params = make_params(hidden=(6,), scalar_uncertainty=True, dropout=0.0)
        u = uncertainty_forward(params, np.zeros((4, 6)), "eval").u.array
        assert u.shape == (4, 1)
        np.testing.assert_array_equal(u, 1.0)


class TestEvalHelpers:
    def test_eval_logits_batches_match_single_pass(self):
        params = make_params(seed=50)
        x = RngStream(51).normal((23, 5))
        np.testing.assert_array_equal(eval_logits(params, x, batch_size=7), eval_logits(params, x))

    def test_eval_logits_empty_input(self):
        params = make_params()
        assert eval_logits(params, np.zeros((0, 5))).shape == (0, 3)

    def test_predict_classes_one_based(self):
        params = make_params(seed=52)
        labels = predict_classes(params, RngStream(53).normal((40, 5)))
        assert labels.min() >= 1 and labels.max() <= 3


# The tiny test, desk and image architectures, plus the variants without
# backbone batchnorm and with a scalar u.
FOLD_SHAPES = {
    "tiny": dict(input_dim=6, hidden_dims=(16, 8), num_classes=2, delta=8),
    "tiny_no_bn": dict(input_dim=6, hidden_dims=(16, 8), num_classes=2, delta=8, use_batchnorm=False),
    "tiny_scalar_u": dict(input_dim=6, hidden_dims=(16, 8), num_classes=2, delta=8, scalar_uncertainty=True),
    "desk": dict(input_dim=16, hidden_dims=(64, 32), num_classes=3, delta=32),
    "image": dict(input_dim=784, hidden_dims=(256, 128), num_classes=10, delta=32),
}


def _trained_like(shape: str) -> ModelParams:
    """Parameters of ``shape`` with every weight and running statistic moved
    off its initial value, so that no batchnorm is the identity."""
    params = init_params(model_arch(**FOLD_SHAPES[shape]), RngStream(0))
    rng = np.random.default_rng(zlib.crc32(shape.encode()))
    for name, t in params.weights.items():
        noise = rng.standard_normal(t.shape)
        if name.endswith(".w"):
            params.weights[name] = Tensor(noise / np.sqrt(t.shape[0]))
        else:  # biases and betas near 0, gammas near 1
            params.weights[name] = Tensor(float(name.endswith(".gamma")) + 0.2 * noise)
    for name, t in params.bn_state.items():
        noise = rng.standard_normal(t.shape)
        params.bn_state[name] = Tensor(np.exp(0.5 * noise) if name.endswith(".var") else 0.3 * noise)
    return params


def _eval_outputs(params: ModelParams, x: np.ndarray, temperature: float = 1000.0):
    """Eval logits, u and the ODIN input gradient, as scoring computes them."""
    out = forward(params, x, "eval")
    u = uncertainty_forward(params, out.embedding, "eval").u.array
    logits = out.logits.array
    onehot = np.eye(logits.shape[1])[logits.argmax(axis=1)]
    nll = tempered_ce(out.logits, np.full((len(x), 1), temperature), onehot, reduction="sum")
    return logits, u, backward(nll, wrt=[out.x])[out.x].array


class TestEvalFold:
    """Eval mode folds each batchnorm into the linear layer before it."""

    @pytest.mark.parametrize("shape", FOLD_SHAPES)
    def test_matches_unfolded_reference(self, shape):
        params = _trained_like(shape)
        dim = params.config.backbone.input_dim
        x = np.random.default_rng(zlib.crc32(f"x{shape}".encode())).standard_normal((70, dim))
        for got, want, what in zip(_eval_outputs(params, x), unfolded_eval(params, x), ("logits", "u", "odin grad")):
            assert got.shape == want.shape, what
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max(), err_msg=what)

    @pytest.mark.parametrize("shape", ["tiny", "desk", "image"])
    def test_rows_do_not_depend_on_the_batch(self, shape):
        params = _trained_like(shape)
        dim = params.config.backbone.input_dim
        x = np.random.default_rng(zlib.crc32(f"rows{shape}".encode())).standard_normal((130, dim))
        alone = [_eval_outputs(params, x[i : i + 1]) for i in range(len(x))]
        for n in (63, 64, 65, 130):
            batch = _eval_outputs(params, x[:n])
            for i in range(n):
                for got, want in zip(batch, alone[i]):
                    np.testing.assert_array_equal(got[i], want[0], err_msg=f"row {i} of {n}")

    def test_builds_no_batchnorm_and_no_parameter_leaves(self):
        params = _trained_like("desk")
        out = forward(params, np.ones((3, 16)), "eval")
        head = uncertainty_forward(params, out.embedding, "eval")
        assert out.leaves == {}
        ops, stack, seen = [], [out.logits, head.u], set()
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                ops.append(node.op)
                stack.extend(node.parents)
        # One dense node per layer: backbone.h0, backbone.h1, backbone.out, head.
        assert set(ops) == {"leaf", "dense"}
        assert ops.count("dense") == 4
        with pytest.raises(ValueError, match="no parameter leaves"):
            forward(params, np.ones((3, 16)), "eval", leaves=param_leaves(params))

    def test_fold_reads_the_current_weights(self):
        # Nothing is cached: an edit to the weights or the running
        # statistics shows in the next eval pass.
        params = _trained_like("tiny")
        x = RngStream(60).normal((5, 6))
        forward(params, x, "eval")
        params.weights["backbone.h1.bn.gamma"] = Tensor(np.full(8, 0.5))
        params.bn_state["head.bn.var"] = Tensor(np.full(8, 2.0))
        logits, u, _ = _eval_outputs(params, x)
        want_logits, want_u, _ = unfolded_eval(params, x)
        np.testing.assert_allclose(logits, want_logits, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(u, want_u, rtol=1e-12)


def _graph_leaves(*outputs) -> list:
    leaves, stack, seen = [], list(outputs), set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if node.op == "leaf":
                leaves.append(node)
            stack.extend(node.parents)
    return leaves


class TestFoldedModel:
    """ModelParams.fold builds the eval model once; passes on it share its
    constant leaves and equal passes on the parameters bit for bit."""

    @pytest.mark.parametrize("shape", FOLD_SHAPES)
    def test_folded_pass_equals_the_params_pass(self, shape):
        params = _trained_like(shape)
        x = np.random.default_rng(zlib.crc32(f"fold{shape}".encode())).standard_normal((70, params.config.backbone.input_dim))
        model = params.fold()
        for got, want in zip(_eval_outputs(model, x), _eval_outputs(params, x)):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(eval_logits(model, x, batch_size=16), eval_logits(params, x))

    def test_a_pass_builds_only_its_input_leaf(self):
        params = _trained_like("desk")
        model = params.fold()
        assert list(model.leaves) == [n for n in param_shapes(params.config)[0] if n[-2:] in (".w", ".b")]
        for _ in range(2):
            out = forward(model, np.ones((3, 16)), "eval")
            head = uncertainty_forward(model, out.embedding, "eval")
            constants = {id(n) for n in model.leaves.values()}
            assert [n for n in _graph_leaves(out.logits, head.u) if id(n) not in constants] == [out.x]
            assert len({id(n) for n in _graph_leaves(out.logits, head.u)} & constants) == 8
        # Unfolded parameters fold on each call: 4 layers' w and b, plus x.
        out = forward(params, np.ones((3, 16)), "eval")
        assert len(_graph_leaves(out.logits, uncertainty_forward(params, out.embedding, "eval").u)) == 1 + 6 + 2

    def test_layers_without_batchnorm_keep_their_tensors(self):
        params = _trained_like("tiny_no_bn")
        model = params.fold()
        for name in ("backbone.h0.w", "backbone.h1.b", "backbone.out.w", "backbone.out.b"):
            assert model.leaves[name].value is params.weights[name]
        assert model.leaves["head.w"].value is not params.weights["head.w"]

    def test_is_an_immutable_snapshot(self):
        params = _trained_like("tiny")
        x = RngStream(61).normal((5, 6))
        model = params.fold()
        before = forward(model, x, "eval").logits.array
        assert model.fold() is model
        with pytest.raises(AttributeError):
            model.leaves = {}
        assert not any(n.array.flags.writeable for n in model.leaves.values())
        params.weights["backbone.h1.bn.gamma"] = Tensor(np.full(8, 0.5))
        np.testing.assert_array_equal(forward(model, x, "eval").logits.array, before)
        assert not np.array_equal(forward(params, x, "eval").logits.array, before)
        assert not np.array_equal(forward(params.fold(), x, "eval").logits.array, before)

    def test_runs_in_eval_mode_only(self):
        model = _trained_like("tiny").fold()
        with pytest.raises(ValueError, match="eval mode only"):
            forward(model, np.ones((2, 6)), "train", rng=RngStream(0))
        with pytest.raises(ValueError, match="eval mode only"):
            uncertainty_forward(model, np.ones((2, 8)), "train")
        with pytest.raises(ValueError, match="no parameter leaves"):
            forward(model, np.ones((2, 6)), "eval", leaves=model.leaves)

    def test_negative_running_variance_fails_the_fold(self):
        params = _trained_like("tiny")
        params.bn_state["backbone.h0.bn.var"] = Tensor(-np.ones(16))
        with pytest.raises(ValueError, match="backbone.h0.bn: running variance has negative entries"):
            params.fold()
