"""Graph leaves, primitive forward semantics, and reverse-mode gradients."""

import itertools
import math
import os
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
from conftest import awkward_rows

from uenl.tensor import (
    GraphNode,
    PRIMITIVES,
    Tape,
    add,
    apply,
    as_node,
    backward,
    checked_forward,
    dense,
    div,
    exp,
    l2norm,
    leaf,
    ln,
    logsumexp,
    matmul,
    mul,
    reduce_mean,
    reduce_sum,
    relu,
    scale,
    square,
    sub,
    _row_max,
    _row_sum,
    _rowwise_matmul,
)

import uenl.harness
import uenl.tensor
from conftest import tiny_experiment_config
from gradcheck import compare_gradient, finite_diff_check
from oracles import batch_loss, numeric_gradient, odin_from_pass
from uenl.data import batch_iter
from uenl.model import forward, init_params, param_leaves
from uenl.scoring import EvalChunk, _input_gradient
from uenl.rng import RngStream


class TestTensorContainer:
    """``leaf``, where caller values enter a graph: a finite, read-only
    float64 copy."""

    def test_float64_always(self):
        assert leaf([1, 2, 3]).value.dtype == np.float64

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match=r"^leaf: non-finite values in an array of shape \(2,\)$"):
            leaf([1.0, float("nan")])

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="non-finite"):
            leaf(np.array([np.inf, 0.0]))

    def test_immutable(self):
        node = leaf([1.0, 2.0])
        with pytest.raises(ValueError):
            node.value[0] = 5.0

    def test_does_not_alias_caller_array(self):
        src = np.array([1.0, 2.0])
        node = leaf(src)
        src[0] = 99.0
        assert node.value[0] == 1.0 and src.flags.writeable


class TestForwardValues:
    def test_relu_definition(self):
        out = relu(leaf([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.value, [0.0, 0.0, 2.0])

    def test_logsumexp_ln2(self):
        out = logsumexp(leaf([0.0, 0.0]))
        assert out.value == pytest.approx(0.693147, abs=1e-6)
        assert abs(float(out.value) - math.log(2.0)) < 1e-12

    def test_logsumexp_large_inputs_stable(self):
        out = logsumexp(leaf([1000.0, 1000.0]))
        assert float(out.value) == pytest.approx(1000.0 + math.log(2.0), abs=1e-9)

    def test_l2norm_345(self):
        assert float(l2norm(leaf([3.0, 4.0])).value) == 5.0

    def test_matmul_matches_numpy(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((4, 3)), rng.standard_normal((3, 5))
        out = matmul(leaf(a), leaf(b)).value
        np.testing.assert_allclose(out, a @ b, rtol=1e-13)

    def test_elementwise_ops_match_numpy(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((3, 4)) + 3.0
        cases = {
            "add": (add(leaf(a), leaf(b)), a + b),
            "sub": (sub(leaf(a), leaf(b)), a - b),
            "mul": (mul(leaf(a), leaf(b)), a * b),
            "div": (div(leaf(a), leaf(b)), a / b),
            "scale": (scale(leaf(a), 2.5), 2.5 * a),
            "exp": (exp(leaf(a)), np.exp(a)),
            "square": (square(leaf(a)), a * a),
            "ln": (ln(leaf(b)), np.log(b)),
        }
        for name, (node, expected) in cases.items():
            np.testing.assert_allclose(node.value, expected, rtol=1e-13, err_msg=name)

    def test_reductions_match_numpy(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 5))
        np.testing.assert_allclose(reduce_sum(leaf(a), axis=1).value, a.sum(axis=1))
        np.testing.assert_allclose(reduce_mean(leaf(a), axis=0).value, a.mean(axis=0))
        np.testing.assert_allclose(
            l2norm(leaf(a), axis=1, keepdims=True).value,
            np.linalg.norm(a, axis=1, keepdims=True),
        )

    def test_broadcasting_add(self):
        a = np.arange(6.0).reshape(2, 3)
        b = np.array([[10.0, 20.0, 30.0]])
        np.testing.assert_array_equal(add(leaf(a), leaf(b)).value, a + b)


class TestErrors:
    def test_ln_nonpositive(self):
        with pytest.raises(ValueError):
            ln(leaf([0.0]))
        with pytest.raises(ValueError):
            ln(leaf([-1.0]))

    def test_div_by_zero(self):
        with pytest.raises((ValueError, FloatingPointError)):
            div(leaf([1.0]), leaf([0.0]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            matmul(leaf(np.ones((2, 3))), leaf(np.ones((2, 3))))

    def test_nonfinite_result(self):
        with pytest.raises(FloatingPointError):
            exp(leaf([1000.0]))

    def test_unknown_primitive(self):
        with pytest.raises(ValueError):
            apply("gelu", leaf([1.0]))

    def test_backward_needs_scalar(self):
        with pytest.raises(ValueError):
            backward(leaf([1.0, 2.0]))

    def test_reprs_name_op_and_shape(self):
        assert repr(leaf([1.0, 2.0])) == "GraphNode(op='leaf', shape=(2,))"

    def test_item_needs_a_single_element(self):
        assert leaf([[2.5]]).item() == 2.5
        with pytest.raises(ValueError, match="size 1"):
            leaf([1.0, 2.0]).item()

    def test_operand_checks_name_the_primitive(self):
        for call, message in (
            (lambda: add(leaf(np.ones((2, 3))), leaf(np.ones((2, 2)))), r"^add: shapes \(2, 3\) and \(2, 2\) do not broadcast$"),
            (lambda: matmul(leaf(np.ones(3)), leaf(np.ones((3, 2)))), r"^matmul needs 2-d operands, got \(3,\) and \(3, 2\)$"),
            (lambda: apply("scale", leaf([1.0])), "^scale requires a constant$"),
            (lambda: scale(leaf([1.0]), np.inf), "^scale constant must be finite$"),
            (lambda: reduce_sum(leaf(np.ones((2, 3))), axis=2), r"^axis 2 out of range for shape \(2, 3\)$"),
        ):
            with pytest.raises(ValueError, match=message):
                call()


class TestBackward:
    def test_relu_subgradient(self):
        x = leaf([-1.0, 2.0])
        grads = backward(reduce_sum(relu(x)))
        np.testing.assert_array_equal(grads[x], [0.0, 1.0])

    def test_relu_zero_at_exact_zero(self):
        x = leaf([0.0])
        grads = backward(reduce_sum(relu(x)))
        assert grads[x][0] == 0.0

    def test_softmax_ce_gradient_at_uniform(self):
        # d/dp [logsumexp(p) - p_true] at p = [0, 0], true class first.
        p = leaf([0.0, 0.0])
        loss = sub(logsumexp(p), reduce_sum(mul(p, leaf([1.0, 0.0]))))
        grads = backward(loss)
        np.testing.assert_allclose(grads[p], [-0.5, 0.5], atol=1e-15)

    def test_duplicate_use_accumulates(self):
        x = leaf([3.0])
        grads = backward(reduce_sum(add(x, x)))
        assert grads[x][0] == 2.0
        y = leaf([3.0])
        grads = backward(reduce_sum(mul(y, y)))
        assert grads[y][0] == 6.0

    def test_mean_gradient(self):
        x = leaf([1.0, 2.0, 3.0, 4.0])
        grads = backward(reduce_mean(x))
        np.testing.assert_allclose(grads[x], 0.25 * np.ones(4))

    def test_l2norm_zero_vector_subgradient(self):
        x = leaf([0.0, 0.0])
        grads = backward(l2norm(x))
        np.testing.assert_array_equal(grads[x], [0.0, 0.0])

    def test_broadcast_gradient_unbroadcasts(self):
        a = leaf(np.ones((4, 3)))
        b = leaf(np.ones((1, 3)))
        grads = backward(reduce_sum(add(a, b)))
        assert grads[b].shape == (1, 3)
        np.testing.assert_array_equal(grads[b], 4.0 * np.ones((1, 3)))

    def test_graph_values_not_mutated_by_backward(self):
        x = leaf([1.0, 2.0])
        y = square(x)
        before = y.value.copy()
        backward(reduce_sum(y))
        np.testing.assert_array_equal(y.value, before)


def _checked_backward(calls: list):
    """backward(loss, wrt) that also runs wrt=None on the same graph and
    asserts the requested gradients match it bit for bit."""

    def checked(loss, wrt=None):
        assert wrt is not None, "call site should name the nodes it reads"
        wrt = list(wrt)
        full = backward(loss)
        part = backward(loss, wrt=wrt)
        assert set(part) == {n for n in wrt if n in full}
        for node, g in part.items():
            np.testing.assert_array_equal(g, full[node])
        calls.append(len(part))
        return part

    return checked


class TestBackwardWrt:
    def test_train_loss_gradients_match_full_backward(self):
        """On every batch of one epoch's train loss graphs (the reference
        the graph-free train step is pinned against)."""
        calls = []
        checked = _checked_backward(calls)
        config = tiny_experiment_config(epochs=1, dropout=0.1)
        root = RngStream(config.seed)
        params = init_params(config, root)
        dropout_rng, resample_rng = root.substream("dropout"), root.substream("resample")
        for batch in batch_iter(uenl.harness.build_datasets(config).id_train, config.batch_size, config.seed, 0):
            leaves = param_leaves(params)
            total, _ = batch_loss(params, batch.features, batch.labels, dropout_rng, resample_rng, leaves)
            checked(total, wrt=leaves.values())
        assert len(calls) == 5 and all(n == len(params.weights) for n in calls)

    def test_odin_nll_gradient_matches_full_backward(self, monkeypatch, small_params):
        """On ODIN's graph oracle (the reference the graph-free ODIN
        gradient is pinned against)."""
        calls = []
        monkeypatch.setattr(uenl.tensor, "backward", _checked_backward(calls))
        x = np.random.default_rng(5).standard_normal((9, 5))
        model = small_params.fold()
        odin_from_pass(model, forward(model, x), temperature=1000.0, epsilon=0.002)
        assert calls == [1]

    def test_unrequested_nodes_absent(self):
        x = leaf(np.arange(6.0).reshape(2, 3))
        w = leaf(np.linspace(-1.0, 1.0, 12).reshape(3, 4))
        h = matmul(x, w)
        loss = reduce_sum(relu(h))
        grads = backward(loss, wrt=[w])
        assert set(grads) == {w}
        np.testing.assert_array_equal(grads[w], backward(loss)[w])

    def test_node_outside_graph_absent(self):
        x = leaf([1.0, 2.0])
        stray = leaf([3.0])
        grads = backward(reduce_sum(square(x)), wrt=[x, stray])
        assert set(grads) == {x}
        np.testing.assert_array_equal(grads[x], [2.0, 4.0])

    def test_matmul_weight_only_skips_input_product(self, monkeypatch):
        x = leaf(np.ones((5, 3)))
        w = leaf(np.arange(12.0).reshape(3, 4))
        loss = reduce_sum(matmul(x, w))

        def no_rowwise(a, b):
            raise AssertionError("input-side product computed")

        monkeypatch.setattr(uenl.tensor, "_rowwise_matmul", no_rowwise)
        g = np.ones((5, 4))
        ga, gb = PRIMITIVES["matmul"].vjp(g, (x.value, w.value), None, {}, (False, True))
        assert ga is None
        np.testing.assert_array_equal(gb, x.value.T @ g)
        grads = backward(loss, wrt=[w])
        np.testing.assert_array_equal(grads[w], np.full((3, 4), 5.0))

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    @pytest.mark.parametrize("needs", [(True, False), (False, True)])
    def test_binary_vjps_skip_unwanted_parents(self, op, needs):
        # A dropout mask is the unwanted parent of a mul in every train step.
        a, b = np.array([[1.0, -2.0], [3.0, 0.5]]), np.array([2.0, -4.0])
        g = np.array([[0.5, 1.0], [-1.5, 2.0]])
        out = PRIMITIVES[op].forward((a, b), {})
        part = PRIMITIVES[op].vjp(g, (a, b), out, {}, needs)
        full = PRIMITIVES[op].vjp(g, (a, b), out, {}, (True, True))
        for need, got, want in zip(needs, part, full):
            if need:
                np.testing.assert_array_equal(got, want)
            else:
                assert got is None


ROW_SHAPES = [(1, 1), (16, 64), (784, 256), (128, 10), (7, 13), (2, 1000)]
ROW_BATCHES = [1, 2, 3, 7, 128, 129, 511, 512, 513, 1100]


class TestRowInvariance:
    """matmul's forward pass and its input gradient (``b`` a transposed
    view) give a row the same bits whatever batch it sits in and wherever
    it sits in memory. numpy does not promise this for a stacked matmul,
    so it is pinned here on the model's shapes and odd ones."""

    @pytest.mark.parametrize("transposed", [False, True], ids=["contiguous", "transposed"])
    @pytest.mark.parametrize("k, n", ROW_SHAPES)
    def test_row_matches_alone_and_shifted(self, k, n, transposed):
        rng = np.random.default_rng(zlib.crc32(f"{k}x{n}".encode()))
        b = rng.standard_normal((n, k)).T if transposed else rng.standard_normal((k, n))
        for batch in ROW_BATCHES:
            a = rng.standard_normal((batch, k))
            full = _rowwise_matmul(a, b)
            # The same rows three rows down, in a buffer one element off the
            # allocator's alignment.
            shifted = np.empty((batch + 3) * k + 1)[1:].reshape(batch + 3, k)
            shifted[:3] = rng.standard_normal((3, k))
            shifted[3:] = a
            np.testing.assert_array_equal(_rowwise_matmul(shifted, b)[3:], full)
            for i in {0, batch // 2, batch - 1}:
                np.testing.assert_array_equal(_rowwise_matmul(a[i : i + 1].copy(), b)[0], full[i])

    @pytest.mark.parametrize("act", [None, "relu", "exp"])
    @pytest.mark.parametrize("k, n", [(16, 64), (784, 256), (64, 10), (32, 8)])
    def test_dense_row_matches_alone(self, k, n, act):
        # An eval-mode layer: dense on constant weights without batchnorm.
        # Its value and input gradient at every row of a 63-, 64-, 65- or
        # 130-row batch are that row's results alone, bit for bit.
        rng = np.random.default_rng(zlib.crc32(f"dense-rows{k}x{n}{act}".encode()))
        w, b = rng.standard_normal((k, n)) / np.sqrt(k), rng.standard_normal(n)
        x, weights = rng.standard_normal((130, k)), rng.standard_normal((130, n))

        def run(rows):
            xn = leaf(x[rows])
            out = dense(xn, w, b, act=act)
            return out.value, backward(reduce_sum(mul(out, weights[rows])), wrt=[xn])[xn]

        alone = [run(slice(i, i + 1)) for i in range(130)]
        for batch in (63, 64, 65, 130):
            value, grad = run(slice(0, batch))
            for i in range(batch):
                np.testing.assert_array_equal(value[i], alone[i][0][0], err_msg=f"value, row {i} of {batch}")
                np.testing.assert_array_equal(grad[i], alone[i][1][0], err_msg=f"grad, row {i} of {batch}")


BLAS_SHAPES = [(784, 256), (256, 784), (256, 128), (128, 10), (400, 64), (1000, 2), (16, 64)]
BLAS_BATCHES = [1, 63, 64, 65, 128, 513]

# Prints the sha256 of _rowwise_matmul's output bytes over BLAS_SHAPES x
# BLAS_BATCHES, each with a C-contiguous and a transposed ``b``.
_DIGEST_SCRIPT = f"""
import hashlib, zlib
import numpy as np
from uenl.tensor import _rowwise_matmul
h = hashlib.sha256()
for k, n in {BLAS_SHAPES!r}:
    rng = np.random.default_rng(zlib.crc32(f"{{k}}x{{n}}".encode()))
    for transposed in (False, True):
        b = rng.standard_normal((n, k)).T if transposed else rng.standard_normal((k, n))
        for batch in {BLAS_BATCHES!r}:
            h.update(_rowwise_matmul(rng.standard_normal((batch, k)), b).tobytes())
print(h.hexdigest())
"""


class TestBlasBlocks:
    """The fixed row blocks and K-chunks of ``_rowwise_matmul``: its bits do
    not depend on the BLAS thread count or on a row's place in its block,
    and its output needs no copy to become a graph value."""

    def _digest(self, threads: int) -> str:
        src = str(Path(uenl.tensor.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        return done.stdout.strip()

    def test_same_bits_under_one_and_two_blas_threads(self):
        one, two = self._digest(1), self._digest(2)
        assert len(one) == 64
        assert one == two

    @pytest.mark.parametrize("transposed", [False, True], ids=["contiguous", "transposed"])
    @pytest.mark.parametrize("k, n", BLAS_SHAPES)
    def test_every_block_position_matches_row_alone(self, k, n, transposed):
        rng = np.random.default_rng(zlib.crc32(f"edge{k}x{n}".encode()))
        b = rng.standard_normal((n, k)).T if transposed else rng.standard_normal((k, n))
        for batch in (63, 64, 65, 127):
            a = rng.standard_normal((batch, k))
            full = _rowwise_matmul(a, b)
            for i in range(batch):
                np.testing.assert_array_equal(_rowwise_matmul(a[i : i + 1], b)[0], full[i])

    def test_output_owns_c_contiguous_data(self):
        rng = np.random.default_rng(7)
        a, b, g = rng.standard_normal((65, 300)), rng.standard_normal((300, 20)), rng.standard_normal((65, 20))
        ga, _ = PRIMITIVES["matmul"].vjp(g, (a, b), None, {}, (True, False))
        for out in (_rowwise_matmul(a, b), _rowwise_matmul(a.T.copy().T, b.T.copy().T), ga):
            assert out.flags.c_contiguous and out.flags.owndata


def _scalarize(node: GraphNode) -> GraphNode:
    if node.value.ndim == 0:
        return node
    return reduce_sum(node)


# Gradient checks per primitive: build sum(op(...)) and compare each input's
# gradient against central finite differences, several seeds per op.
UNARY_SAFE = {
    "relu": lambda x: np.abs(x) + 0.1,  # keep away from the kink
    "exp": None,
    "ln": lambda x: np.abs(x) + 0.5,
    "square": None,
    "sum": None,
    "mean": None,
    "l2norm": lambda x: x + 3.0,  # away from the zero-vector kink
    "logsumexp": None,
}


class TestPrimitiveGradients:
    @pytest.mark.parametrize("op", sorted(UNARY_SAFE))
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_unary_and_reduction_vjps(self, op, seed):
        rng = np.random.default_rng(1000 * seed + zlib.crc32(op.encode()) % 997)
        x = rng.standard_normal((3, 4))
        shift = UNARY_SAFE[op]
        if shift is not None:
            x = shift(x)
        axis = [None, 0, 1][seed % 3] if op in ("sum", "mean", "l2norm", "logsumexp") else None

        def value(arr):
            node = apply(op, leaf(arr), axis=axis) if axis is not None else apply(op, leaf(arr))
            return float(_scalarize(node).value)

        xn = leaf(x)
        node = apply(op, xn, axis=axis) if axis is not None else apply(op, xn)
        grads = backward(_scalarize(node))
        analytic = grads[xn]
        numeric = numeric_gradient(value, x)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div", "matmul"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_binary_vjps(self, op, seed):
        rng = np.random.default_rng(31 * seed + zlib.crc32(op.encode()) % 991)
        if op == "matmul":
            a, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
        else:
            a = rng.standard_normal((3, 4))
            b = rng.standard_normal((3, 4))
            if op == "div":
                b = np.abs(b) + 0.5
        weights = rng.standard_normal(
            apply(op, leaf(a), leaf(b)).value.shape
        )

        def value_a(arr):
            return float(reduce_sum(mul(apply(op, leaf(arr), leaf(b)), leaf(weights))).value)

        def value_b(arr):
            return float(reduce_sum(mul(apply(op, leaf(a), leaf(arr)), leaf(weights))).value)

        an, bn = leaf(a), leaf(b)
        grads = backward(reduce_sum(mul(apply(op, an, bn), leaf(weights))))
        np.testing.assert_allclose(grads[an], numeric_gradient(value_a, a), rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(grads[bn], numeric_gradient(value_b, b), rtol=1e-6, atol=1e-8)

    def test_broadcast_vjps(self):
        rng = np.random.default_rng(77)
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((1, 3))

        def value_b(arr):
            return float(reduce_sum(square(add(leaf(a), leaf(arr)))).value)

        an, bn = leaf(a), leaf(b)
        grads = backward(reduce_sum(square(add(an, bn))))
        np.testing.assert_allclose(grads[bn], numeric_gradient(value_b, b), rtol=1e-6)

    def test_scale_gradient(self):
        x = leaf([1.0, -2.0])
        grads = backward(reduce_sum(scale(x, -3.5)))
        np.testing.assert_array_equal(grads[x], [-3.5, -3.5])

    @pytest.mark.parametrize(
        "n, d, constant_column",
        [(5, 3, False), (1, 4, False), (6, 3, True), (128, 32, False)],
        ids=["5x3", "batch1", "var0-column", "128x32"],
    )
    def test_batchnorm_vjps(self, n, d, constant_column):
        # Batchnorm is a part of dense, checked with each activation, and
        # with a mask under relu as in a hidden layer.
        for act, masked in (("relu", True), ("exp", False), (None, False)):
            self._check_dense_vjps(n, d, constant_column, act, masked)

    @staticmethod
    def _check_dense_vjps(n, d, constant_column, act, masked):
        rng = np.random.default_rng(zlib.crc32(f"dense{n}x{d}{constant_column}{act}".encode()))
        x, w = rng.standard_normal((n, 3)), 0.7 * rng.standard_normal((3, d))
        b = rng.standard_normal(d)
        if constant_column:
            w[:, 1] = 0.0  # the batchnorm input's column 1 is b[1] in every row
        # A small gamma, and for exp a beta near -1, keep the outputs, and
        # with them the rounding of the central differences, small.
        gamma, beta = 0.2 * rng.standard_normal(d) + 0.4, 0.2 * rng.standard_normal(d) - (act == "exp")
        mask = (rng.random((n, d)) >= 0.3) / 0.7 if masked else None
        weights = leaf(rng.standard_normal((n, d)))

        def loss(*args):
            return reduce_sum(mul(dense(*args, act=act, mask=mask, epsilon=1e-5), weights))

        points = [x, w, b, gamma, beta]
        inputs = [leaf(p) for p in points]
        out = loss(*inputs)
        grads = backward(out)
        # Without x, w and b in wrt the VJP skips their gradients; gamma and
        # beta keep their bits.
        for node, g in backward(out, wrt=inputs[3:]).items():
            np.testing.assert_array_equal(g, grads[node])
        for i, point in enumerate(points):
            # A step in one input moves every row's batchnorm output, so at
            # 128x32 some step crosses a relu kink; those coordinates are
            # left out. atol covers the rounding of the central difference
            # itself: the 128x32 loss sums 4096 terms, which leaves about
            # 3e-8 of noise.
            res = finite_diff_check(lambda p, i=i: loss(*inputs[:i], p, *inputs[i + 1 :]), point)
            smooth = ~res.kinks
            assert smooth.mean() > 0.9, f"{act}: input {i}"
            np.testing.assert_allclose(
                grads[inputs[i]][smooth], res.numeric[smooth], rtol=1e-6, atol=1e-7, err_msg=f"{act}: input {i}"
            )


class TestBatchnorm:
    """Train-mode batchnorm, the part of ``dense`` that mixes the rows."""

    @pytest.mark.parametrize("n", [37, 1])
    def test_forward_matches_numpy_and_reports_batch_stats(self, n):
        rng = np.random.default_rng(41 + n)
        x, w, b = rng.standard_normal((n, 5)), rng.standard_normal((5, 6)), rng.standard_normal(6)
        w[:, 4], b[4] = 0.0, 1.5  # a column with zero variance, as every column has at n = 1
        gamma, beta = rng.standard_normal(6), rng.standard_normal(6)
        node = dense(leaf(x), leaf(w), leaf(b), leaf(gamma), leaf(beta), epsilon=1e-5)
        z = _rowwise_matmul(x, w) + b
        expected = (z - z.mean(axis=0)) / np.sqrt(z.var(axis=0) + 1e-5) * gamma + beta
        np.testing.assert_allclose(node.value, expected, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(node.value[:, 4], beta[4])
        np.testing.assert_array_equal(node.attrs["mean"], z.mean(axis=0))
        np.testing.assert_array_equal(node.attrs["var"], z.var(axis=0))

    @pytest.mark.parametrize("epsilon", [0.0, -1e-5, float("inf"), None])
    def test_epsilon_must_be_positive(self, epsilon):
        ones = [leaf(np.ones(shape)) for shape in ((2, 3), (3, 3), (3,), (3,), (3,))]
        with pytest.raises(ValueError, match="epsilon"):
            apply("dense", *ones, constant=epsilon)

    @pytest.mark.parametrize("z_shape, d", [((4,), 4), ((4, 3), 2), ((4, 3, 1), 3)])
    def test_shapes_checked(self, z_shape, d):
        # z_shape is the input's; d the width of gamma and beta, which must
        # be the layer's 3.
        with pytest.raises(ValueError, match="dense needs"):
            dense(leaf(np.ones(z_shape)), leaf(np.ones((3, 3))), leaf(np.zeros(3)), leaf(np.ones(d)),
                  leaf(np.zeros(d)), epsilon=1e-5)

    def test_takes_gamma_and_beta_together(self):
        x, w, b = leaf(np.ones((2, 3))), leaf(np.ones((3, 3))), leaf(np.zeros(3))
        with pytest.raises(ValueError, match="both gamma and beta"):
            dense(x, w, b, leaf(np.ones(3)), epsilon=1e-5)
        with pytest.raises(ValueError, match="dense takes 3 or 5 input"):
            apply("dense", x, w, b, leaf(np.ones(3)))


class TestDense:
    @pytest.mark.parametrize("act", [None, "relu", "exp"])
    @pytest.mark.parametrize("masked", [False, True], ids=["no-mask", "mask"])
    def test_matches_the_primitive_composition_bit_for_bit(self, act, masked):
        # Without batchnorm, dense runs the numpy expressions of matmul,
        # add, the activation and mul in their order, forward and backward.
        rng = np.random.default_rng(zlib.crc32(f"compose{act}{masked}".encode()))
        x, w, b = rng.standard_normal((70, 16)), rng.standard_normal((16, 8)), rng.standard_normal(8)
        mask = (rng.random((70, 8)) >= 0.2) / 0.8 if masked else None
        weights = leaf(rng.standard_normal((70, 8)))
        fused_in = [leaf(v) for v in (x, w, b)]
        composed_in = [leaf(v) for v in (x, w, b)]
        fused = dense(*fused_in, act=act, mask=mask)
        composed = add(matmul(composed_in[0], composed_in[1]), composed_in[2])
        composed = {"relu": relu, "exp": exp, None: lambda h: h}[act](composed)
        if masked:
            composed = mul(composed, leaf(mask))
        np.testing.assert_array_equal(fused.value, composed.value)
        got = backward(reduce_sum(mul(fused, weights)))
        want = backward(reduce_sum(mul(composed, weights)))
        for f, c in zip(fused_in, composed_in):
            np.testing.assert_array_equal(got[f], want[c])

    @pytest.mark.parametrize(
        "w_shape, b_shape, mask_shape, act",
        [((2, 3), (3,), None, None), ((3, 3), (2,), None, None), ((3, 3), (3,), (4, 2), "relu"), ((3, 3), (3,), None, "tanh")],
        ids=["inner", "bias", "mask", "act"],
    )
    def test_shapes_and_act_checked(self, w_shape, b_shape, mask_shape, act):
        mask = None if mask_shape is None else np.ones(mask_shape)
        with pytest.raises(ValueError, match="dense needs"):
            dense(leaf(np.ones((4, 3))), leaf(np.ones(w_shape)), leaf(np.zeros(b_shape)), act=act, mask=mask)

    def test_pre_activation_and_output_checked_with_the_layer_name(self):
        # relu would turn the overflowed -inf into 0; the check before it
        # catches it, as the matmul node would have.
        with pytest.raises(FloatingPointError, match="^backbone.h0: dense produced non-finite values$"):
            dense(leaf([[1e308]]), leaf([[-10.0]]), leaf([0.0]), act="relu", name="backbone.h0")
        with pytest.raises(FloatingPointError, match="^dense produced non-finite values$"):
            dense(leaf([[1000.0]]), leaf([[1.0]]), leaf([0.0]), act="exp")

    @pytest.mark.parametrize("act", [None, "relu", "exp"])
    @pytest.mark.parametrize("layer", ["plain", "masked", "batchnorm"])
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["+inf", "-inf"])
    def test_overflowing_pre_activation_raises_in_every_layer_kind(self, act, layer, sign):
        # An overflow raises with the layer's name whatever the activation,
        # mask or batchnorm: a relu must not hide a -inf pre-activation.
        x, w = np.array([[1e308, 1.0], [1.0, 1.0]]), np.array([[sign * 10.0], [1.0]])
        mask = np.ones((2, 1)) if layer == "masked" else None
        bn = (leaf([1.0]), leaf([0.0])) if layer == "batchnorm" else ()
        with pytest.raises(FloatingPointError, match="^head.h0: dense produced non-finite values$"):
            dense(leaf(x), leaf(w), leaf([0.0]), *bn, act=act, mask=mask, epsilon=1e-5 if bn else None, name="head.h0")

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_mask_raises(self, value):
        with pytest.raises(FloatingPointError, match="^head.h0: dense produced non-finite values$"):
            dense(leaf([[1.0]]), leaf([[1.0]]), leaf([0.0]), act="relu", mask=np.array([[value]]), name="head.h0")

    def test_a_masked_relu_layer_scans_its_output(self):
        # relu of the finite 1e308 is finite, but the dropout mask's 2.0
        # overflows it: with a mask, relu keeps its output scan.
        with pytest.raises(FloatingPointError, match="^backbone.h0: dense produced non-finite values$"):
            dense(leaf([[1e308]]), leaf([[1.0]]), leaf([0.0]), act="relu", mask=np.array([[2.0]]), name="backbone.h0")

    @pytest.mark.parametrize(
        "act, masked, scans",
        [(None, False, 1), (None, True, 2), ("relu", False, 1), ("relu", True, 2), ("exp", False, 2), ("exp", True, 2)],
    )
    def test_scans_once_where_one_scan_catches_everything(self, monkeypatch, act, masked, scans):
        # The pre-activation is the output without act and mask, and relu
        # keeps a finite pre-activation finite; exp and a mask need both.
        seen, isfinite = [], np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda a: seen.append(a.shape) or isfinite(a))
        mask = np.full((4, 2), 2.0) if masked else None
        out = checked_forward("dense", (np.ones((4, 3)), np.ones((3, 2)), np.zeros(2)), {"act": act, "mask": mask})
        assert out.shape == (4, 2)
        assert seen == [(4, 2)] * scans


class TestTape:
    """``Tape.run`` records ``checked_forward`` calls; ``Tape.walk`` returns
    the keyed gradients of the seeded outputs."""

    def test_walk_matches_finite_differences(self):
        # A batch-normalized, masked exp layer into a norm-floored
        # tempered_ce: every input of the layer is a key.
        rng = np.random.default_rng(11)
        values = {
            "x": rng.standard_normal((6, 4)), "w": rng.standard_normal((4, 3)), "b": rng.standard_normal(3),
            "gamma": rng.uniform(0.5, 1.5, 3), "beta": rng.standard_normal(3),
        }
        mask, labels = (rng.random((6, 3)) >= 0.3) / 0.7, np.eye(3)[rng.integers(0, 3, 6)]

        def record(inputs):
            tape = Tape()
            attrs = {"act": "exp", "mask": mask, "constant": 1e-5, "name": "layer"}
            at, h = tape.run("dense", tuple(inputs), tuple(inputs.values()), attrs)
            ce_attrs = {"labels": labels, "norm_floor": 1e-3, "reduction": "mean"}
            return tape, tape.run("tempered_ce", (at, None), (h, np.full((6, 1), 0.5)), ce_attrs)

        tape, (at, _) = record(values)
        grads = tape.walk([at])
        assert list(grads) == list(values)
        for name, point in values.items():
            result = compare_gradient(lambda v: float(record({**values, name: v})[1][1]), point, grads[name])
            assert result.max_rel_err < 1e-5, (name, result.max_rel_err)

    def test_an_unreached_call_runs_no_vjp(self, monkeypatch):
        # An eval chunk's tape holds the head, which ODIN's walk from the
        # logits never reaches.
        params = init_params(tiny_experiment_config(), RngStream(3))
        x = RngStream(4).normal((5, params.config.backbone.input_dim))
        tape = Tape()
        _, logits, u = params.fold().run(x, tape)
        dense, walked = PRIMITIVES["dense"], []

        def counted_vjp(g, values, out, attrs, needs):
            walked.append(attrs["name"])
            return dense.vjp(g, values, out, attrs, needs)

        monkeypatch.setitem(PRIMITIVES, "dense", dense._replace(vjp=counted_vjp))
        assert tape.calls[-1][4]["name"] == "head"
        assert _input_gradient(EvalChunk(x, logits, u.sum(axis=1), tape), 1000.0).shape == x.shape
        assert walked == [attrs["name"] for _, _, _, _, attrs in reversed(tape.calls[:-2])]
        assert "head" not in walked


class TestRowReductions:
    """``_row_max`` and ``_row_sum`` are numpy's row reductions bit for bit:
    column passes below 8 columns, numpy's own reduction from 8."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8, 10, 32])
    @pytest.mark.parametrize("n", [1, 5, 92, 128, 512, 513])
    def test_equal_numpy(self, n, k):
        a = awkward_rows(zlib.crc32(f"rows{n}x{k}".encode()), n, k)
        for got, want in [(_row_max(a), a.max(axis=1)), (_row_sum(a), a.sum(axis=1))]:
            assert got.dtype == want.dtype and got.shape == want.shape == (n,)
            assert got.tobytes() == want.tobytes()
        counts = _row_sum(a > 0.0)
        assert counts.dtype == (np.float64 if k < 8 else np.int64)
        np.testing.assert_array_equal(counts, (a > 0.0).sum(axis=1))

    @pytest.mark.parametrize("k", range(1, 8))
    def test_signed_zeros(self, k):
        # Every sign pattern of a row of zeros: numpy's sum starts from +0.0,
        # so all -0.0 sums to +0.0, and its max keeps numpy's pick of tied zeros.
        a = np.array(list(itertools.product([0.0, -0.0], repeat=k)))
        assert _row_sum(a).tobytes() == a.sum(axis=1).tobytes()
        assert _row_max(a).tobytes() == a.max(axis=1).tobytes()
        assert _row_sum(a[:, ::-1]).tobytes() == a[:, ::-1].sum(axis=1).tobytes()


class TestGraphMechanics:
    def test_as_node_passthrough_and_wrap(self):
        n = leaf([1.0])
        assert as_node(n) is n
        wrapped = as_node(np.array([1.0, 2.0]))
        assert isinstance(wrapped, GraphNode)

    def test_primitive_catalog(self):
        expected = {
            "matmul", "add", "sub", "mul", "div", "scale", "relu", "exp", "ln",
            "square", "sum", "mean", "l2norm", "logsumexp", "dense",
            "tempered_ce", "resample", "kl",
        }
        assert expected == set(PRIMITIVES)
