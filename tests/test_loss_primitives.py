"""The fused loss primitives (tempered_ce, resample, kl): VJPs against
central differences on generated shapes, input checks, and agreement with
the composed reference in oracles.py on desk shapes."""

import numpy as np
import pytest
from conftest import awkward_rows, uenl_terms
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import composed_ce, composed_uenl, tempered_ce_numpy, tempered_ce_vjp_numpy

from uenl.losses import NORM_EPSILON, UHAT_FLOOR, logitnorm_ce, plain_ce, uenl_total
from uenl.tensor import PRIMITIVES, backward, kl, leaf, mul, reduce_sum, resample, tempered_ce

PROPERTY = settings(max_examples=40)  # on top of conftest's shared profile
SEEDS = st.integers(0, 2**32 - 1)


def _central(f, x: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Central differences of the scalar function ``f`` at ``x``, with a step
    per coordinate."""
    grad = np.zeros(x.size)
    for i in range(x.size):
        hi, lo = x.copy().ravel(), x.copy().ravel()
        hi[i] += steps.flat[i]
        lo[i] -= steps.flat[i]
        grad[i] = (f(hi.reshape(x.shape)) - f(lo.reshape(x.shape))) / (2.0 * steps.flat[i])
    return grad.reshape(x.shape)


def _assert_close(analytic, numeric):
    np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-7 * max(1.0, np.abs(numeric).max()))


@PROPERTY
@given(
    n=st.integers(1, 6),
    k=st.integers(2, 5),
    seed=SEEDS,
    normalize=st.booleans(),
    labelled=st.booleans(),
    reduction=st.sampled_from(["mean", "sum"]),
    tiny_rows=st.integers(0, 6),
)
@example(n=1, k=3, seed=0, normalize=True, labelled=True, reduction="mean", tiny_rows=0)
@example(n=1, k=3, seed=1, normalize=True, labelled=True, reduction="mean", tiny_rows=1)
@example(n=4, k=2, seed=2, normalize=True, labelled=False, reduction="mean", tiny_rows=2)
def test_tempered_ce_vjp(n, k, seed, normalize, labelled, reduction, tiny_rows):
    """Both inputs' VJPs, with rows below the norm floor among them: there
    p_bar = p / NORM_EPSILON. With normalization on, the steps scale with
    each row's norm, so a difference never crosses the floor."""
    rng = np.random.default_rng(seed)
    p = rng.standard_normal((n, k))
    p[: min(tiny_rows, n)] *= 1e-9
    t = 0.2 + rng.random((n, 1))
    labels = np.eye(k)[rng.integers(0, k, n)] if labelled else None
    weights = leaf(rng.standard_normal((n, k)))
    floor = NORM_EPSILON if normalize else None

    def loss(p_node, t_node):
        out = tempered_ce(p_node, t_node, labels, norm_floor=floor, reduction=reduction)
        return out if labelled else reduce_sum(mul(out, weights))

    p_leaf, t_leaf = leaf(p), leaf(t)
    grads = backward(loss(p_leaf, t_leaf), wrt=[p_leaf, t_leaf])
    p_steps = np.full_like(p, 1e-6)
    if normalize:
        p_steps *= np.linalg.norm(p, axis=1, keepdims=True)
    num_p = _central(lambda q: loss(leaf(q), t).item(), p, p_steps)
    num_t = _central(lambda q: loss(p, leaf(q)).item(), t, np.full_like(t, 1e-6))
    _assert_close(grads[p_leaf], num_p)
    _assert_close(grads[t_leaf], num_t)
    if normalize and tiny_rows:
        below = slice(0, min(tiny_rows, n))
        np.testing.assert_array_equal(
            tempered_ce(p, np.ones((n, 1)), norm_floor=NORM_EPSILON).value[below], p[below] / NORM_EPSILON
        )


@PROPERTY
@given(
    n=st.integers(1, 6),
    d=st.integers(1, 8),
    seed=SEEDS,
    shared=st.booleans(),
    clamped_rows=st.integers(0, 6),
    scale=st.sampled_from([0.25, 1.0, 3.0]),
)
@example(n=1, d=4, seed=0, shared=False, clamped_rows=1, scale=1.0)
def test_resample_vjp(n, d, seed, shared, clamped_rows, scale):
    """u_hat rows clamped at UHAT_FLOOR get the floor and a zero gradient;
    the others the weights' gradient, summed over them for a shared u."""
    rng = np.random.default_rng(seed)
    u = 0.3 + rng.random((n, 1 if shared else d))
    w = rng.standard_normal((n, d)) ** 2
    clamped = slice(0, min(clamped_rows, n))
    w[clamped] *= 1e-10
    out_weights = leaf(rng.standard_normal((n, 1)))

    def loss(u_node):
        return reduce_sum(mul(resample(u_node, w, UHAT_FLOOR, scale), out_weights))

    u_leaf = leaf(u)
    analytic = backward(loss(u_leaf), wrt=[u_leaf])[u_leaf]
    _assert_close(analytic, _central(lambda q: loss(leaf(q)).item(), u, np.full_like(u, 1e-6)))
    np.testing.assert_array_equal(resample(u, w, UHAT_FLOOR, scale).value[clamped], UHAT_FLOOR * scale)
    np.testing.assert_array_equal(analytic[clamped], 0.0)


@PROPERTY
@given(
    n=st.integers(1, 6),
    d=st.integers(1, 8),
    seed=SEEDS,
    form=st.sampled_from(["variance", "std"]),
    weight=st.sampled_from([0.0, 0.1, 1.0, 2.5]),
)
@example(n=1, d=1, seed=0, form="std", weight=1.0)
def test_kl_vjp(n, d, seed, form, weight):
    u = 0.2 + 2.0 * np.random.default_rng(seed).random((n, d))
    u_leaf = leaf(u)
    node = kl(u_leaf, form, weight)
    assert node.item() == weight * node.attrs["kl"]
    analytic = backward(node, wrt=[u_leaf])[u_leaf]
    _assert_close(analytic, _central(lambda q: kl(q, form, weight).item(), u, np.full_like(u, 1e-6)))


@pytest.mark.parametrize("reduction", ["mean", "sum"])
@pytest.mark.parametrize("floor", [None, NORM_EPSILON, 1e3], ids=["no_floor", "norm_epsilon", "floor_1e3"])
@pytest.mark.parametrize("k", [1, 2, 3, 7, 8, 10])
def test_tempered_ce_equals_numpy_reductions(k, floor, reduction):
    """The forward and VJP give the bits of their expressions with numpy's
    row reductions (oracles), on both sides of the 8-column switch."""
    n = 513
    rng = np.random.default_rng(k)
    # Unnormalized logits scaled down, so that not every softmax row is
    # one-hot; a floor of 1e3 lies above some rows' norms and below others'.
    p = awkward_rows(k, n, k) * 1e-25 if floor is None else awkward_rows(k, n, k)
    t = rng.uniform(0.05, 2.0, (n, 1))
    labels = np.eye(k)[rng.integers(0, k, n)]
    attrs = {"labels": labels, "norm_floor": floor, "reduction": reduction}
    ce = PRIMITIVES["tempered_ce"].forward((p, t), attrs)
    want = tempered_ce_numpy(p, t, labels, floor, reduction)
    assert np.float64(ce).tobytes() == np.float64(want["ce"]).tobytes()
    for name in ("p_bar", "softmax", *(("norms",) if floor is not None else ())):
        assert attrs[name].tobytes() == want[name].tobytes(), name
    g = np.float64(0.75)
    got = PRIMITIVES["tempered_ce"].vjp(g, (p, t), ce, attrs, (True, True))
    for part, a, b in zip(("p", "t"), got, tempered_ce_vjp_numpy(g, p, t, labels, floor, reduction)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), part


class TestChecks:
    def test_tempered_ce_inputs(self):
        p, t = np.ones((2, 3)), np.ones((2, 1))
        for bad_p, bad_t in ((np.ones(3), t), (p, np.ones((2, 2))), (p, np.ones((3, 1))), (p, np.zeros((2, 1)))):
            with pytest.raises(ValueError):
                tempered_ce(bad_p, bad_t)
        with pytest.raises(ValueError):
            tempered_ce(p, t, np.eye(3))
        with pytest.raises(ValueError):
            tempered_ce(p, t, np.eye(3)[:2], reduction="max")
        with pytest.raises(ValueError):
            tempered_ce(p, t, norm_floor=0.0)

    def test_resample_inputs(self):
        w = np.ones((2, 4))
        for bad_u, bad_w in ((np.ones((2, 3)), w), (np.ones(4), w), (np.ones((3, 4)), w), (np.ones((2, 4)), np.ones(4))):
            with pytest.raises(ValueError):
                resample(bad_u, bad_w, UHAT_FLOOR)
        with pytest.raises(ValueError):
            resample(np.zeros((2, 4)), w, UHAT_FLOOR)
        for floor, scale in ((0.0, 1.0), (UHAT_FLOOR, 0.0), (UHAT_FLOOR, np.inf)):
            with pytest.raises(ValueError):
                resample(np.ones((2, 4)), w, floor, scale)

    def test_kl_inputs(self):
        for u, form, weight in ((np.ones(3), "variance", 1.0), (np.zeros((1, 1)), "variance", 1.0),
                                (np.ones((1, 1)), "precision", 1.0), (np.ones((1, 1)), "std", -1.0)):
            with pytest.raises(ValueError):
                kl(u, form, weight)

    def test_attrs_hold_the_logged_values(self):
        rng = np.random.default_rng(7)
        u, eps = 0.5 + rng.random((5, 4)), rng.standard_normal((5, 4))
        p = rng.standard_normal((5, 3))
        total = uenl_total(p, u, [1, 2, 3, 1, 2], 0.3, epsilon=eps)
        ce_node, kl_node = total.parents
        uhat_node = ce_node.parents[1]
        assert (ce_node.op, kl_node.op, uhat_node.op) == ("tempered_ce", "kl", "resample")
        assert total.item() == ce_node.attrs["ce"] + 0.3 * kl_node.attrs["kl"]
        assert kl_node.attrs["kl"] == kl(u).item()
        np.testing.assert_array_equal(uhat_node.attrs["uhat"], resample(u, eps * eps, UHAT_FLOOR).value)
        onehot = np.eye(3)[[0, 1, 2, 0, 1]]
        assert ce_node.attrs["ce"] == tempered_ce(p, uhat_node.attrs["uhat"], onehot, NORM_EPSILON).item()


DESK_N, DESK_K, DESK_DELTA = 128, 3, 32


@pytest.mark.parametrize("kl_form", ["variance", "std"])
@pytest.mark.parametrize("uhat_scale", [1.0, 0.5])
def test_fused_uenl_matches_composed_reference(kl_form, uhat_scale):
    """Desk shapes: the total, its parts, and the gradients in p and u agree
    with the node-by-node composition to 1e-12."""
    rng = np.random.default_rng(1017)
    p0 = 3.0 * rng.standard_normal((DESK_N, DESK_K))
    u0 = 0.5 + rng.random((DESK_N, DESK_DELTA))
    eps = rng.standard_normal((DESK_N, DESK_DELTA))
    y = rng.integers(1, DESK_K + 1, size=DESK_N)
    onehot = np.eye(DESK_K)[y - 1]

    p, u = leaf(p0), leaf(u0)
    fused = uenl_total(p, u, y, 0.1, epsilon=eps, uhat_scale=uhat_scale, kl_form=kl_form)
    fused_ce, fused_kl, _ = uenl_terms(fused)
    fused_grads = backward(fused, wrt=[p, u])
    rp, ru = leaf(p0), leaf(u0)
    total, ce, kl_term = composed_uenl(rp, ru, onehot, 0.1, eps, uhat_scale=uhat_scale, kl_form=kl_form)
    ref_grads = backward(total, wrt=[rp, ru])

    assert fused.item() == pytest.approx(total.item(), abs=1e-12)
    assert fused_ce == pytest.approx(ce.item(), abs=1e-12)
    assert fused_kl == pytest.approx(kl_term.item(), abs=1e-12)
    np.testing.assert_allclose(fused_grads[p], ref_grads[rp], rtol=0, atol=1e-12)
    np.testing.assert_allclose(fused_grads[u], ref_grads[ru], rtol=0, atol=1e-12)


@pytest.mark.parametrize("method", ["plain", "logitnorm", "odin"])
def test_fused_baselines_match_composed_reference(method):
    rng = np.random.default_rng(1018)
    p0 = 3.0 * rng.standard_normal((DESK_N, DESK_K))
    y = rng.integers(1, DESK_K + 1, size=DESK_N)
    onehot = np.eye(DESK_K)[y - 1]
    p, rp = leaf(p0), leaf(p0)
    if method == "plain":
        fused, ref = plain_ce(p, y), composed_ce(rp, onehot)
    elif method == "logitnorm":
        from uenl.tensor import div, l2norm

        fused = logitnorm_ce(p, y, 0.04)
        ref = composed_ce(div(div(rp, l2norm(rp, axis=1, keepdims=True)), leaf(0.04)), onehot)
    else:
        from uenl.tensor import scale

        fused = tempered_ce(p, np.full((DESK_N, 1), 1000.0), onehot, reduction="sum")
        ref = composed_ce(scale(rp, 1.0 / 1000.0), onehot, reduction="sum")
    assert fused.item() == pytest.approx(ref.item(), abs=1e-12)
    np.testing.assert_allclose(backward(fused, wrt=[p])[p], backward(ref, wrt=[rp])[rp], rtol=0, atol=1e-12)
