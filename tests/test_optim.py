"""Tests for the flat SGD step (momentum, coupled weight decay) and the LR schedule."""

from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from conftest import frozen
from oracles import sgd_per_parameter
from uenl import optim
from uenl.config import BackboneSpec, ExperimentConfig
from uenl.optim import OptState, lr_at_epoch, sgd_step


def start(weights):
    """An OptState laid out in the order of ``weights`` (name -> array)."""
    weights = {name: frozen(w) for name, w in weights.items()}
    return OptState({name: w.shape for name, w in weights.items()}, weights)


def one_param(theta):
    return start({"w": np.asarray(theta, dtype=np.float64)})


def assert_same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestFrozenSteps:
    def test_vanilla_step(self):
        # m=0, wd=0, theta=1, g=0.5, lr=0.1  ->  theta'=0.95
        state = one_param(1.0)
        new_w = sgd_step(state, {"w": np.asarray(0.5)}, lr=0.1, momentum=0.0, weight_decay=0.0)
        assert new_w["w"].item() == 0.95

    def test_momentum_recurrence_two_steps(self):
        # m=0.9, wd=0, g=1 each step, lr=0.1, from v=0: v1=-0.1, v2=-0.19
        state = one_param(1.0)
        g = {"w": np.asarray(1.0)}
        w1 = sgd_step(state, g, lr=0.1, momentum=0.9, weight_decay=0.0)
        assert state.velocity.tolist() == [-0.1]
        assert w1["w"].item() == 0.9
        w2 = sgd_step(state, g, lr=0.1, momentum=0.9, weight_decay=0.0)
        assert state.velocity[0] == pytest.approx(-0.19, abs=1e-15)
        assert w2["w"].item() == pytest.approx(0.71, abs=1e-15)

    def test_pure_decay_step(self):
        # wd=0.0005, g=0, theta=1, lr=0.1, m=0  ->  theta'=0.99995
        state = one_param(1.0)
        new_w = sgd_step(state, {"w": np.asarray(0.0)}, lr=0.1, momentum=0.0, weight_decay=0.0005)
        assert new_w["w"].item() == 0.99995


class TestUpdateRule:
    def test_matches_manual_recurrence_with_momentum_and_decay(self):
        """Several steps of the coupled-decay recurrence, bit-exact vs. a
        hand-rolled numpy loop using the same v <- m*v - lr*(g + wd*w) rule."""
        rng = np.random.default_rng(7)
        theta = rng.standard_normal((4, 3))
        state = start({"w": theta})
        v_ref = np.zeros_like(theta)
        w_ref = theta.copy()
        lr, m, wd = 0.05, 0.9, 0.01
        for _ in range(6):
            g = rng.standard_normal((4, 3))
            weights = sgd_step(state, {"w": g}, lr=lr, momentum=m, weight_decay=wd)
            v_ref = m * v_ref - lr * (g + wd * w_ref)
            w_ref = w_ref + v_ref
            assert_array_equal(state.velocity.reshape(4, 3), v_ref)
            assert_array_equal(weights["w"], w_ref)

    def test_multiple_parameters_updated_independently(self):
        state = start({"a": np.array([1.0, 2.0]), "b": np.array([[3.0]])})
        grads = {"a": np.array([0.5, 0.5]), "b": np.array([[1.0]])}
        new_w = sgd_step(state, grads, lr=0.1, momentum=0.0, weight_decay=0.0)
        assert list(new_w) == ["a", "b"]
        assert_array_equal(new_w["a"], [0.95, 1.95])
        assert_array_equal(new_w["b"], [[2.9]])

    def test_accepts_tensor_gradients(self):
        state = one_param(1.0)
        new_w = sgd_step(state, {"w": frozen(0.5)}, lr=0.1, momentum=0.0, weight_decay=0.0)
        assert new_w["w"].item() == 0.95

    def test_inputs_not_mutated(self):
        """The gradients passed in and the weights an earlier step returned
        are left as they were; only the state's own buffers move."""
        state = start({"w": np.array([2.0, -1.0])})
        grads = {"w": np.array([1.0, 3.0])}
        before = sgd_step(state, grads, lr=0.1)
        kept = before["w"].copy()
        after = sgd_step(state, grads, lr=0.1)
        assert after is not before and after["w"] is not before["w"]
        assert_array_equal(grads["w"], [1.0, 3.0])
        assert_array_equal(before["w"], kept)

    def test_momentum_coasts_with_zero_gradient(self):
        """Momentum alone (zero gradient, zero decay) keeps coasting."""
        state = one_param(0.0)
        sgd_step(state, {"w": np.asarray(1.0)}, lr=0.1, momentum=0.5, weight_decay=0.0)
        weights = sgd_step(state, {"w": np.asarray(0.0)}, lr=0.1, momentum=0.5, weight_decay=0.0)
        assert state.velocity.tolist() == [-0.05]
        assert weights["w"].item() == -0.1 + -0.05


class TestOptState:
    def test_zeros_like_mirrors_shapes(self):
        """A fresh state has zero velocity and holds each weight, in layout
        order, in one flat vector whose named views have the weights' shapes."""
        weights = {"w1": np.ones((3, 2)), "w2": np.arange(5.0), "w3": np.asarray(7.0)}
        state = start(weights)
        assert [(name, shape) for name, _, shape in state.layout] == [("w1", (3, 2)), ("w2", (5,)), ("w3", ())]
        assert_array_equal(state.velocity, np.zeros(12))
        assert_array_equal(state.weights, [1.0] * 6 + [0.0, 1.0, 2.0, 3.0, 4.0, 7.0])
        for name, t in state.named().items():
            assert_array_equal(t, weights[name])

    def test_layout_follows_the_shapes_not_the_weights(self):
        shapes = {"b": (2,), "a": (1, 2)}
        state = OptState(shapes, {"a": frozen([[1.0, 2.0]]), "b": frozen([3.0, 4.0])})
        assert [name for name, _, _ in state.layout] == ["b", "a"]
        assert_array_equal(state.weights, [3.0, 4.0, 1.0, 2.0])

    def test_weights_must_match_the_layout(self):
        with pytest.raises(ValueError, match="layout"):
            OptState({"a": (2,)}, {"a": frozen([1.0, 2.0]), "b": frozen(1.0)})
        with pytest.raises(ValueError, match="weight a has shape"):
            OptState({"a": (3,)}, {"a": frozen([1.0, 2.0])})


class TestFlatStep:
    """The fused flat step against the per-parameter update of
    ``oracles.sgd_per_parameter``, and what it promises about the arrays
    it returns."""

    @pytest.mark.parametrize("case", range(24))
    def test_matches_per_parameter_oracle_bit_for_bit(self, case):
        rng = np.random.default_rng(1000 + case)
        shapes = {}
        for i in range(int(rng.integers(1, 7))):
            ndim = int(rng.integers(0, 3))
            shapes[f"p{i}"] = tuple(int(n) for n in rng.integers(1, 9, ndim))
        lr = float(10.0 ** rng.uniform(-4, 0))
        momentum = float(rng.choice([0.0, 0.5, 0.9, rng.uniform(0, 1)]))
        weight_decay = float(rng.choice([0.0, 0.0005, 10.0 ** rng.uniform(-6, -1)]))
        w_ref = {name: rng.standard_normal(shape) * 3 for name, shape in shapes.items()}
        v_ref = {name: np.zeros(shape) for name, shape in shapes.items()}
        state = OptState(shapes, {name: frozen(w) for name, w in w_ref.items()})
        absent = rng.choice(list(shapes)) if case % 2 else None  # outside the loss graph
        for _ in range(4):
            grads = {name: None if name == absent else rng.standard_normal(shape) for name, shape in shapes.items()}
            weights = sgd_step(state, grads, lr, momentum, weight_decay)
            w_ref, v_ref = sgd_per_parameter(w_ref, v_ref, grads, lr, momentum, weight_decay)
            assert list(weights) == list(shapes)
            for name, part, _ in state.layout:
                assert_same_bits(weights[name], w_ref[name])
                assert_same_bits(state.velocity[part], v_ref[name].reshape(-1))

    def test_matches_per_parameter_oracle_across_blocks(self):
        """A layout longer than the update's block, with block edges inside
        a weight, updates as the per-parameter oracle does."""
        rng = np.random.default_rng(77)
        shapes = {"a": (7,), "big": (257, 300), "c": (5, 3)}
        assert sum(int(np.prod(shape)) for shape in shapes.values()) > 2 * optim._BLOCK
        w_ref = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
        v_ref = {name: np.zeros(shape) for name, shape in shapes.items()}
        state = OptState(shapes, {name: frozen(w) for name, w in w_ref.items()})
        for absent in (None, "c", None):
            grads = {name: None if name == absent else rng.standard_normal(shape) for name, shape in shapes.items()}
            weights = sgd_step(state, grads, 0.05, 0.9, 0.0005)
            w_ref, v_ref = sgd_per_parameter(w_ref, v_ref, grads, 0.05, 0.9, 0.0005)
            for name, part, _ in state.layout:
                assert_same_bits(weights[name], w_ref[name])
                assert_same_bits(state.velocity[part], v_ref[name].reshape(-1))

    def test_returned_weights_are_read_only_and_never_change(self):
        state = start({"w": np.ones((3, 2)), "b": np.zeros(2)})
        grads = {"w": np.full((3, 2), 0.5), "b": np.ones(2)}
        step_k = sgd_step(state, grads, lr=0.1)
        kept = {name: t.copy() for name, t in step_k.items()}
        for t in step_k.values():
            assert not t.flags.writeable
            with pytest.raises(ValueError):
                t[...] = 0.0
        step_k1 = sgd_step(state, grads, lr=0.1)
        for name, t in step_k.items():
            assert_array_equal(t, kept[name])
            assert not np.array_equal(step_k1[name], kept[name])
            assert not np.shares_memory(step_k1[name], t)

    def test_returned_weights_view_one_vector(self):
        """No copy per parameter: every returned weight is a view of the
        step's one read-only weight vector."""
        state = start({"w": np.ones((3, 2)), "b": np.zeros(2)})
        weights = sgd_step(state, {"w": np.ones((3, 2)), "b": np.ones(2)}, lr=0.1)
        for t in weights.values():
            assert t.base is state.weights
        assert not state.weights.flags.writeable

    def test_failed_step_leaves_the_state_alone(self):
        state = start({"w": np.ones(2), "b": np.ones(3)})
        sgd_step(state, {"w": np.ones(2), "b": np.ones(3)}, lr=0.1)
        weights, velocity = state.weights, state.velocity.copy()
        with pytest.raises(FloatingPointError, match="parameter b"):
            sgd_step(state, {"w": np.ones(2), "b": np.array([0.0, np.inf, 0.0])}, lr=0.1)
        assert state.weights is weights
        assert_array_equal(state.velocity, velocity)


class TestErrors:
    def test_lr_must_be_positive(self):
        state = one_param(1.0)
        with pytest.raises(ValueError, match="lr"):
            sgd_step(state, {"w": np.asarray(0.0)}, lr=0.0)
        with pytest.raises(ValueError, match="lr"):
            sgd_step(state, {"w": np.asarray(0.0)}, lr=-0.1)

    def test_momentum_range(self):
        state = one_param(1.0)
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError, match="momentum"):
                sgd_step(state, {"w": np.asarray(0.0)}, lr=0.1, momentum=bad)

    def test_negative_weight_decay_rejected(self):
        state = one_param(1.0)
        with pytest.raises(ValueError, match="weight_decay"):
            sgd_step(state, {"w": np.asarray(0.0)}, lr=0.1, weight_decay=-1e-4)

    def test_missing_gradient_names_parameter(self):
        state = start({"w": np.asarray(1.0), "head.b": np.asarray(2.0)})
        with pytest.raises(ValueError, match="head.b"):
            sgd_step(state, {"w": np.asarray(0.0)}, lr=0.1)

    def test_shape_mismatch_names_parameter(self):
        state = start({"w": np.ones((2, 3))})
        with pytest.raises(ValueError, match="w"):
            sgd_step(state, {"w": np.ones((3, 2))}, lr=0.1)

    def test_non_finite_gradient_names_parameter(self):
        """The first non-finite parameter in layout order is named."""
        state = start({"w": np.ones(3), "other": np.asarray(1.0)})
        grads = {"w": np.array([0.0, np.nan, 0.0]), "other": np.asarray(0.0)}
        with pytest.raises(FloatingPointError, match="parameter w$"):
            sgd_step(state, grads, lr=0.1)
        grads["w"] = np.array([np.inf, 0.0, 0.0])
        with pytest.raises(FloatingPointError, match="parameter w$"):
            sgd_step(state, grads, lr=0.1)
        grads["other"] = np.asarray(-np.inf)
        with pytest.raises(FloatingPointError, match="parameter w$"):
            sgd_step(state, grads, lr=0.1)
        grads["w"] = np.zeros(3)
        with pytest.raises(FloatingPointError, match="parameter other$"):
            sgd_step(state, grads, lr=0.1)


class TestLrSchedule:
    def test_paper_schedule(self):
        # Base 0.1 with drops at 80 and 140: epoch 79 -> 0.1, 80 -> 0.01, 140 -> 0.001.
        config = ExperimentConfig(backbone=BackboneSpec(4, (8,), 2))
        assert config.lr == 0.1 and config.lr_drop_epochs == (80, 140)
        assert lr_at_epoch(0, config) == 0.1
        assert lr_at_epoch(79, config) == 0.1
        assert lr_at_epoch(80, config) == pytest.approx(0.01, rel=1e-12)
        assert lr_at_epoch(139, config) == pytest.approx(0.01, rel=1e-12)
        assert lr_at_epoch(140, config) == pytest.approx(0.001, rel=1e-12)
        assert lr_at_epoch(10_000, config) == pytest.approx(0.001, rel=1e-12)

    def test_no_drops_constant(self):
        config = SimpleNamespace(lr=0.05, lr_drop_epochs=())
        assert all(lr_at_epoch(e, config) == 0.05 for e in range(200))

    def test_custom_desk_scale_drops(self):
        # Drops at [2]: 0.1 for epochs 0-1, then 0.01 from epoch 2 on.
        config = SimpleNamespace(lr=0.1, lr_drop_epochs=(2,))
        assert lr_at_epoch(0, config) == 0.1
        assert lr_at_epoch(1, config) == 0.1
        assert lr_at_epoch(2, config) == pytest.approx(0.01, rel=1e-12)
        assert lr_at_epoch(3, config) == pytest.approx(0.01, rel=1e-12)

    def test_negative_epoch_rejected(self):
        config = SimpleNamespace(lr=0.1, lr_drop_epochs=(80, 140))
        with pytest.raises(ValueError, match="epoch"):
            lr_at_epoch(-1, config)
