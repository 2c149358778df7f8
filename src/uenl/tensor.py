"""Dense float64 tensors and a small reverse-mode autodiff graph.

The primitives cover an MLP with batch normalization, the normalized-logit
objective and gradient-based input perturbation, plus elementwise and
reduction ones. Each carries an analytic vector-Jacobian product, so
gradients of any composed scalar (including gradients with respect to
network inputs) are exact up to float64 rounding. A model layer is one
``dense`` node, act(batchnorm(x @ w + b)) * mask, whose parts are each
optional; its train-mode batchnorm has the closed-form gradient for its
input, scale and shift and leaves the batch mean and variance in the
node's ``attrs``. Eval-mode batch normalization needs no part of its own:
the model folds its running statistics into the layer's weights. ``dense``
adds the bias and applies its activation in place on the fresh matmul
output, and relu's gradient mask is read from the activated values
(relu(z) > 0 exactly where z > 0), so no pre-activation copy is kept.

The training objective is three closed-form primitives: ``tempered_ce``
(cross-entropy of optionally row-normalized logits over a temperature
column, or those tempered logits alone), ``resample`` (the floored
temperature draw) and ``kl``; their nodes keep ``ce``, ``uhat`` and the
unweighted ``kl`` in ``attrs``.

Graphs are immutable: a node's parents and value are fixed at
construction, which makes the graph acyclic by construction and every
evaluation repeatable.

Row contract: a row's matmul value and its input gradient (and a ``dense``
layer's without batchnorm) do not depend on the other rows in the batch.
The forward pass and the input gradient run one BLAS gemm per fixed block
of 64 rows, the last block zero-padded, so every call has the same shape
and BLAS takes the same path whatever the batch. K is cut into fixed
chunks of at most 256 added in a fixed order, because OpenBLAS splits a
longer K differently with one thread than with several, which would make
the bits depend on the thread count. The weight gradient sums over the
batch anyway, so it is one BLAS product. ``backward(loss, wrt=[...])``
runs only the VJPs on a path to the requested nodes and returns their
gradients alone.

The graph is the public autodiff API. Training and evaluation build none:
the train step (``harness._train_step``), the eval forward
(``model.FoldedModel.run``) and ODIN's input gradient call the primitives
through ``checked_forward``, the finiteness scan that ``apply`` runs
(``dense`` scans itself, once or twice by layer kind), and walk their VJPs
back: the float operations of ``backward``. ``tempered_ce`` reduces rows
of under 8 columns column by column, sums from +0.0: numpy's bits, cheaper.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "Tensor",
    "GraphNode",
    "apply",
    "checked_forward",
    "backward",
    "leaf",
    "as_node",
    "matmul",
    "add",
    "sub",
    "mul",
    "div",
    "scale",
    "relu",
    "exp",
    "ln",
    "square",
    "reduce_sum",
    "reduce_mean",
    "l2norm",
    "logsumexp",
    "dense",
    "tempered_ce",
    "resample",
    "kl",
]


class Tensor:
    """Immutable float64 array. Construction rejects NaN and infinity."""

    __slots__ = ("_array",)

    def __init__(self, values) -> None:
        arr = np.array(values, dtype=np.float64, order="C")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"non-finite values in tensor of shape {arr.shape}")
        arr.setflags(write=False)
        self._array = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        # Internal fast path: trusts finiteness was already checked. A
        # C-contiguous float64 array is adopted if it owns its data or is a
        # view of a read-only array (a slice of the optimizer's weight
        # vector); anything else is copied.
        flags = arr.flags if type(arr) is np.ndarray and arr.dtype == np.float64 else None
        if flags is None or not flags.c_contiguous or not (
            flags.owndata or (type(arr.base) is np.ndarray and not arr.base.flags.writeable)
        ):
            # np.array (not ascontiguousarray) so 0-d scalars keep their shape.
            arr = np.array(arr, dtype=np.float64, order="C")
            flags = arr.flags
        if flags.writeable:
            arr.setflags(write=False)
        obj = object.__new__(cls)
        obj._array = arr
        return obj

    @classmethod
    def zeros(cls, shape) -> "Tensor":
        return cls._wrap(np.zeros(shape, dtype=np.float64))

    @property
    def array(self) -> np.ndarray:
        """Read-only view of the underlying float64 data."""
        return self._array

    @property
    def shape(self) -> tuple[int, ...]:
        return self._array.shape

    @property
    def ndim(self) -> int:
        return self._array.ndim

    @property
    def size(self) -> int:
        return self._array.size

    def item(self) -> float:
        if self._array.size != 1:
            raise ValueError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self._array.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


class GraphNode:
    """One value in an acyclic computation graph.

    ``op`` is the primitive name ("leaf" for inputs), ``parents`` the input
    nodes, ``value`` the forward result. Nodes hash by identity, so the same
    tensor used twice creates two distinct leaves unless the node object
    itself is reused.
    """

    __slots__ = ("op", "parents", "value", "attrs")

    def __init__(self, op: str, parents: tuple["GraphNode", ...], value: Tensor, attrs: dict | None = None) -> None:
        self.op = op
        self.parents = parents
        self.value = value
        self.attrs = attrs or {}

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def array(self) -> np.ndarray:
        return self.value.array

    def item(self) -> float:
        return self.value.item()

    def __repr__(self) -> str:
        return f"GraphNode(op={self.op!r}, shape={self.shape})"


def leaf(values) -> GraphNode:
    """Wrap values in a graph leaf (an input with no parents)."""
    tensor = values if isinstance(values, Tensor) else Tensor(values)
    return GraphNode("leaf", (), tensor)


def as_node(x) -> GraphNode:
    if isinstance(x, GraphNode):
        return x
    return leaf(x)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _expand_reduced(grad: np.ndarray, in_shape: tuple[int, ...], axis, keepdims: bool) -> np.ndarray:
    """Broadcast a reduction's output gradient back to the input shape."""
    if axis is not None and not keepdims:
        grad = np.expand_dims(grad, axis)
    elif axis is None and not keepdims:
        grad = grad.reshape((1,) * len(in_shape))
    return np.broadcast_to(grad, in_shape)


def _row_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=1)`` bit for bit: below 8 columns, a running maximum over
    the columns, a fraction of the cost of numpy's reduction set-up."""
    return functools.reduce(np.maximum, a.T) if 1 < a.shape[1] < 8 else a.max(axis=1)


def _row_sum(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=1)`` bit for bit. Below 8 columns, a column chain from
    +0.0, where numpy's sum starts, so zero signs agree (float64, for a bool
    ``a`` too); numpy adds 8 or more values pairwise, so it sums wider rows."""
    return sum(a.T, 0.0) if 0 < a.shape[1] < 8 else a.sum(axis=1)


_ROW_BLOCK = 64
_K_CHUNK = 256


def _rowwise_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # One gemm per _ROW_BLOCK rows of ``a``, the last block zero-padded, so
    # every call has the same m, k and strides whatever the batch and BLAS
    # takes the same path: a row's result cannot depend on the other rows
    # in its batch. A single (m, k) @ (k, n) gemm gives no such guarantee,
    # as its blocking changes with m. ``a`` is made C-contiguous so that the
    # full blocks and the padded tail share strides. numpy promises none of
    # this; tests/test_tensor.py pins it on the shapes the model uses.
    a = np.ascontiguousarray(a)
    m, k = a.shape
    n = b.shape[1]
    out = np.empty((m, n))
    blocks = m // _ROW_BLOCK
    full = blocks * _ROW_BLOCK
    _block_matmul(a[:full].reshape(blocks, _ROW_BLOCK, k), b, out[:full].reshape(blocks, _ROW_BLOCK, n))
    if full < m:
        tail = np.zeros((1, _ROW_BLOCK, k))
        tail[0, : m - full] = a[full:]
        tail_out = np.empty((1, _ROW_BLOCK, n))
        _block_matmul(tail, b, tail_out)
        out[full:] = tail_out[0, : m - full]
    return out


def _block_matmul(blocks: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    # numpy runs a stacked matmul as one gemm per block, with no Python
    # loop. K is cut into _K_CHUNK-wide slices added in a fixed order
    # because OpenBLAS splits a longer K one way with one thread and another
    # way with several, which changes the bits.
    np.matmul(blocks[:, :, :_K_CHUNK], b[:_K_CHUNK], out=out)
    for j in range(_K_CHUNK, b.shape[0], _K_CHUNK):
        out += blocks[:, :, j : j + _K_CHUNK] @ b[j : j + _K_CHUNK]


def _check_binary_shapes(op: str, a: np.ndarray, b: np.ndarray) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ValueError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


def _fw_matmul(values, attrs):
    a, b = values
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul needs 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: inner dimensions disagree ({a.shape} @ {b.shape})")
    return _rowwise_matmul(a, b)


def _vjp_matmul(g, values, out, attrs, needs):
    a, b = values
    # The input gradient keeps the row contract like the forward pass; the
    # weight gradient sums over the batch, so it has none and is one gemm.
    return (
        _rowwise_matmul(g, b.T) if needs[0] else None,
        a.T @ g if needs[1] else None,
    )


def _fw_add(values, attrs):
    a, b = values
    _check_binary_shapes("add", a, b)
    return a + b


def _vjp_add(g, values, out, attrs, needs):
    a, b = values
    return _unbroadcast(g, a.shape) if needs[0] else None, _unbroadcast(g, b.shape) if needs[1] else None


def _fw_sub(values, attrs):
    a, b = values
    _check_binary_shapes("sub", a, b)
    return a - b


def _vjp_sub(g, values, out, attrs, needs):
    a, b = values
    return _unbroadcast(g, a.shape) if needs[0] else None, _unbroadcast(-g, b.shape) if needs[1] else None


def _fw_mul(values, attrs):
    a, b = values
    _check_binary_shapes("mul", a, b)
    return a * b


def _vjp_mul(g, values, out, attrs, needs):
    a, b = values
    return _unbroadcast(g * b, a.shape) if needs[0] else None, _unbroadcast(g * a, b.shape) if needs[1] else None


def _fw_div(values, attrs):
    a, b = values
    _check_binary_shapes("div", a, b)
    if np.any(b == 0.0):
        raise ValueError("div: divisor contains zero")
    return a / b


def _vjp_div(g, values, out, attrs, needs):
    a, b = values
    return (
        _unbroadcast(g / b, a.shape) if needs[0] else None,
        _unbroadcast(-g * a / (b * b), b.shape) if needs[1] else None,
    )


def _fw_scale(values, attrs):
    c = attrs.get("constant")
    if c is None:
        raise ValueError("scale requires a constant")
    c = float(c)
    if not np.isfinite(c):
        raise ValueError("scale constant must be finite")
    attrs["constant"] = c
    return values[0] * c


def _vjp_scale(g, values, out, attrs, needs):
    return (g * attrs["constant"],)


def _fw_relu(values, attrs):
    return np.maximum(values[0], 0.0)


def _vjp_relu(g, values, out, attrs, needs):
    # Subgradient 0 at exactly 0.
    return (g * (values[0] > 0.0),)


def _fw_exp(values, attrs):
    return np.exp(values[0])


def _vjp_exp(g, values, out, attrs, needs):
    return (g * out,)


def _fw_ln(values, attrs):
    a = values[0]
    if np.any(a <= 0.0):
        raise ValueError("ln requires strictly positive input")
    return np.log(a)


def _vjp_ln(g, values, out, attrs, needs):
    return (g / values[0],)


def _fw_square(values, attrs):
    a = values[0]
    return a * a


def _vjp_square(g, values, out, attrs, needs):
    return (2.0 * g * values[0],)


def _resolve_axis(a: np.ndarray, axis) -> int | None:
    if axis is None:
        return None
    axis = int(axis)
    if not -a.ndim <= axis < a.ndim:
        raise ValueError(f"axis {axis} out of range for shape {a.shape}")
    return axis % a.ndim if a.ndim else 0


def _fw_sum(values, attrs):
    a = values[0]
    attrs["axis"] = _resolve_axis(a, attrs.get("axis"))
    return np.sum(a, axis=attrs["axis"], keepdims=attrs.get("keepdims", False))


def _vjp_sum(g, values, out, attrs, needs):
    a = values[0]
    return (_expand_reduced(g, a.shape, attrs["axis"], attrs.get("keepdims", False)).copy(),)


def _fw_mean(values, attrs):
    a = values[0]
    attrs["axis"] = _resolve_axis(a, attrs.get("axis"))
    return np.mean(a, axis=attrs["axis"], keepdims=attrs.get("keepdims", False))


def _vjp_mean(g, values, out, attrs, needs):
    a = values[0]
    axis = attrs["axis"]
    n = a.size if axis is None else a.shape[axis]
    return (_expand_reduced(g, a.shape, axis, attrs.get("keepdims", False)) / n,)


def _fw_l2norm(values, attrs):
    a = values[0]
    attrs["axis"] = _resolve_axis(a, attrs.get("axis"))
    return np.sqrt(np.sum(a * a, axis=attrs["axis"], keepdims=attrs.get("keepdims", False)))


def _vjp_l2norm(g, values, out, attrs, needs):
    a = values[0]
    axis = attrs["axis"]
    keepdims = attrs.get("keepdims", False)
    out_full = _expand_reduced(out, a.shape, axis, keepdims)
    g_full = _expand_reduced(g, a.shape, axis, keepdims)
    # Zero vectors get zero gradient (subgradient of the norm at 0).
    direction = np.divide(a, out_full, out=np.zeros_like(a), where=out_full > 0.0)
    return (g_full * direction,)


def _fw_logsumexp(values, attrs):
    a = values[0]
    axis = _resolve_axis(a, attrs.get("axis"))
    attrs["axis"] = axis
    keepdims = attrs.get("keepdims", False)
    m = np.max(a, axis=axis, keepdims=True)
    shifted = np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True))
    result = m + shifted
    if not keepdims:
        result = np.squeeze(result, axis=axis) if axis is not None else result.reshape(())
    return result


def _vjp_logsumexp(g, values, out, attrs, needs):
    a = values[0]
    axis = attrs["axis"]
    keepdims = attrs.get("keepdims", False)
    out_full = _expand_reduced(out, a.shape, axis, keepdims)
    g_full = _expand_reduced(g, a.shape, axis, keepdims)
    return (g_full * np.exp(a - out_full),)


def _fw_dense(values, attrs):
    x, w, b, *bn = values
    act, mask = attrs.get("act"), attrs.get("mask")
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ValueError(f"dense needs x (n, k), w (k, d) and b (d,), got {x.shape}, {w.shape} and {b.shape}")
    if act not in (None, "relu", "exp") or (mask is not None and np.shape(mask) != (x.shape[0], w.shape[1])):
        raise ValueError(f"dense needs act None, 'relu' or 'exp' and an (n, d) mask or None, got {act!r}")
    z = _rowwise_matmul(x, w)
    z += b
    if bn:
        # Train-mode batchnorm over the rows; gamma and beta are (d,) and
        # epsilon is the ``constant`` attr.
        gamma, beta = bn
        if gamma.shape != b.shape or beta.shape != b.shape:
            raise ValueError(f"dense needs (d,) batchnorm vectors, got {gamma.shape} and {beta.shape} for d = {b.shape}")
        eps = attrs.get("constant")
        if eps is None or not 0.0 < float(eps) < np.inf:
            raise ValueError("dense batchnorm epsilon must be positive and finite")
        attrs["constant"] = float(eps)
        # sum / n: the add.reduce and divide that np.mean runs, without its
        # Python wrapper.
        n = len(z)
        mean = z.sum(axis=0) / n
        centered = z - mean
        var = (centered * centered).sum(axis=0) / n
        # Batch statistics for the caller's running averages; the biased
        # variance, as np.var gives it. The VJP reuses z_hat.
        attrs["mean"], attrs["var"] = mean, var
        attrs["z_hat"] = z_hat = centered / np.sqrt(var + attrs["constant"])
        z = z_hat * gamma
        z += beta
    # dense's own finiteness scans, once where once catches all: the
    # pre-activation (relu could hide it) unless it is the output, and the
    # output unless relu made it unmasked (exp and a mask can overflow).
    if (act is not None or mask is not None) and not np.isfinite(z).all():
        raise _non_finite("dense", attrs)
    # z is this node's own array, so the activation overwrites it.
    if act == "relu":
        np.maximum(z, 0.0, out=z)
    elif act == "exp":
        np.exp(z, out=z)
    attrs["act_out"] = z
    out = z if mask is None else z * mask
    if (act != "relu" or mask is not None) and not np.isfinite(out).all():
        raise _non_finite("dense", attrs)
    return out


def _vjp_dense(g, values, out, attrs, needs):
    # Back through the mask, the activation (relu's subgradient is 0 at 0),
    # batchnorm and the affine map. Batchnorm's closed form (Ioffe & Szegedy
    # 2015), with z_hat the normalized input and means over the batch:
    #   dz = gamma / std * (g - mean(g) - z_hat * mean(g * z_hat)).
    x, w = values[0], values[1]
    if attrs["mask"] is not None:
        g = g * attrs["mask"]
    if attrs["act"] == "relu":
        g = g * (attrs["act_out"] > 0.0)
    elif attrs["act"] == "exp":
        g = g * attrs["act_out"]
    bn_grads = ()
    if len(values) == 5:
        gamma, z_hat = values[3], attrs["z_hat"]
        g_beta = g.sum(axis=0)
        g_gamma = (g * z_hat).sum(axis=0)
        bn_grads = g_gamma, g_beta
        if any(needs[:3]):
            n = z_hat.shape[0]
            g = gamma / np.sqrt(attrs["var"] + attrs["constant"]) * (g - g_beta / n - z_hat * (g_gamma / n))
    # The input gradient keeps the row contract like the forward pass; the
    # weight gradient sums over the batch, so it has none and is one gemm.
    return (
        _rowwise_matmul(g, w.T) if needs[0] else None,
        x.T @ g if needs[1] else None,
        g.sum(axis=0) if needs[2] else None,
        *bn_grads,
    )


def _fw_tempered_ce(values, attrs):
    p, t = values
    labels, floor = attrs.get("labels"), attrs.get("norm_floor")
    if p.ndim != 2 or t.shape != (p.shape[0], 1) or (labels is not None and labels.shape != p.shape):
        got = (p.shape, t.shape, None if labels is None else labels.shape)
        raise ValueError(f"tempered_ce needs p (n, k), t (n, 1) and labels (n, k) or None, got {got}")
    if (t <= 0.0).any() or not (floor is None or 0.0 < floor < np.inf) or attrs.get("reduction") not in ("mean", "sum"):
        raise ValueError("tempered_ce needs positive temperatures and norm floor, and reduction 'mean' or 'sum'")
    p_bar = p
    if floor is not None:
        attrs["norms"] = norms = np.sqrt(_row_sum(p * p))[:, None]
        p_bar = p / np.maximum(norms, floor)
    attrs["p_bar"] = p_bar
    z = p_bar / t
    if labels is None:
        return z
    m = _row_max(z)[:, None]
    e = np.exp(z - m)
    total = _row_sum(e)[:, None]
    attrs["softmax"] = e / total
    per_row = (m + np.log(total))[:, 0] - _row_sum(z * labels)
    summed = per_row.sum()
    attrs["ce"] = ce = float(summed if attrs["reduction"] == "sum" else summed / len(per_row))
    return ce


def _vjp_tempered_ce(g, values, out, attrs, needs):
    # z = p_bar / t, s = softmax(z): dz = g (s - y) / n (no 1/n for a sum),
    # dt = -sum_k dz p_bar / t^2 and dp_bar = dz / t. Normalization gives
    # dp = (dp_bar - p_bar (dp_bar . p_bar)) / ||p|| above the floor, and
    # dp_bar / floor below it, where p_bar = p / floor.
    p, t = values
    p_bar, labels, floor = attrs["p_bar"], attrs["labels"], attrs["norm_floor"]
    dz = g
    if labels is not None:
        dz = (g if attrs["reduction"] == "sum" else g / p.shape[0]) * (attrs["softmax"] - labels)
    d_pbar = dz / t
    g_p = d_pbar
    if floor is not None and needs[0]:
        radial = (attrs["norms"] > floor) * _row_sum(d_pbar * p_bar)[:, None]
        g_p = (d_pbar - p_bar * radial) / np.maximum(attrs["norms"], floor)
    return g_p, -_row_sum(d_pbar * p_bar)[:, None] / t if needs[1] else None


def _fw_resample(values, attrs):
    u, w = values[0], attrs.get("weights")
    if u.ndim != 2 or np.ndim(w) != 2 or len(w) != len(u) or u.shape[1] not in (1, w.shape[1]):
        raise ValueError(f"resample needs u (n, d) or (n, 1) and weights (n, d), got {u.shape} and {np.shape(w)}")
    floor, scale_ = attrs.get("floor"), attrs.get("constant")
    if (u <= 0.0).any() or floor is None or scale_ is None or not (0.0 < floor < np.inf and 0.0 < scale_ < np.inf):
        raise ValueError("resample: u, the floor and the scale must be positive")
    attrs["raw"] = raw = (u * w).sum(axis=1, keepdims=True)
    attrs["uhat"] = uhat = np.maximum(raw, floor) * scale_
    return uhat


def _vjp_resample(g, values, out, attrs, needs):
    # Zero where the floor holds, as relu's gradient at 0.
    g_raw = g * attrs["constant"] * (attrs["raw"] > attrs["floor"])
    return (_unbroadcast(g_raw * attrs["weights"], values[0].shape),)


def _fw_kl(values, attrs):
    u, form, weight = values[0], attrs.get("form"), attrs.get("constant")
    if u.ndim != 2 or (u <= 0.0).any():
        raise ValueError(f"kl needs a strictly positive u of shape (n, d), got shape {u.shape}")
    if form not in ("variance", "std") or weight is None or not 0.0 <= weight < np.inf:
        raise ValueError(f"kl needs form 'variance' or 'std' and a non-negative weight, got {form!r}, {weight}")
    # Both forms of KL(N(0, u) || N(0, 1)) vanish exactly at u = 1.
    log_u = np.log(u)
    per_dim = 0.5 * (u - log_u - 1.0) if form == "variance" else 0.5 * (u * u - 2.0 * log_u - 1.0)
    attrs["kl"] = kl_ = float(per_dim.sum(axis=1).sum() / len(u))
    return weight * kl_


def _vjp_kl(g, values, out, attrs, needs):
    u = values[0]
    slope = 0.5 * (1.0 - 1.0 / u) if attrs["form"] == "variance" else u - 1.0 / u
    return (g * attrs["constant"] / u.shape[0] * slope,)


class _Primitive(NamedTuple):
    n_inputs: int | tuple[int, ...]  # the accepted input counts
    forward: Callable
    vjp: Callable


PRIMITIVES: dict[str, _Primitive] = {
    "matmul": _Primitive(2, _fw_matmul, _vjp_matmul),
    "add": _Primitive(2, _fw_add, _vjp_add),
    "sub": _Primitive(2, _fw_sub, _vjp_sub),
    "mul": _Primitive(2, _fw_mul, _vjp_mul),
    "div": _Primitive(2, _fw_div, _vjp_div),
    "scale": _Primitive(1, _fw_scale, _vjp_scale),
    "relu": _Primitive(1, _fw_relu, _vjp_relu),
    "exp": _Primitive(1, _fw_exp, _vjp_exp),
    "ln": _Primitive(1, _fw_ln, _vjp_ln),
    "square": _Primitive(1, _fw_square, _vjp_square),
    "sum": _Primitive(1, _fw_sum, _vjp_sum),
    "mean": _Primitive(1, _fw_mean, _vjp_mean),
    "l2norm": _Primitive(1, _fw_l2norm, _vjp_l2norm),
    "logsumexp": _Primitive(1, _fw_logsumexp, _vjp_logsumexp),
    "dense": _Primitive((3, 5), _fw_dense, _vjp_dense),
    "tempered_ce": _Primitive(2, _fw_tempered_ce, _vjp_tempered_ce),
    "resample": _Primitive(1, _fw_resample, _vjp_resample),
    "kl": _Primitive(1, _fw_kl, _vjp_kl),
}


def apply(op: str, *inputs, axis=None, keepdims: bool = False, constant: float | None = None, **extra) -> GraphNode:
    """Apply a named primitive to graph nodes (or values, which become leaves);
    ``extra`` keyword arguments go to the node's ``attrs`` as they are.

    Raises ValueError for an unknown primitive name, a wrong input count, or
    operand shapes the primitive rejects; FloatingPointError if the result is
    non-finite (overflow or an invalid operation), naming the ``name`` attr
    when there is one.
    """
    prim = PRIMITIVES.get(op)
    if prim is None:
        known = ", ".join(sorted(PRIMITIVES))
        raise ValueError(f"unknown primitive {op!r} (known: {known})")
    counts = prim.n_inputs if isinstance(prim.n_inputs, tuple) else (prim.n_inputs,)
    if len(inputs) not in counts:
        raise ValueError(f"{op} takes {' or '.join(map(str, counts))} input(s), got {len(inputs)}")
    nodes = tuple(as_node(x) for x in inputs)
    attrs = {"axis": axis, "keepdims": keepdims, "constant": constant, **extra}
    # Overflow and invalid operations are detected by the finiteness check,
    # so numpy's own warnings would be redundant noise.
    with np.errstate(over="ignore", invalid="ignore"):
        out = checked_forward(op, tuple(n.value.array for n in nodes), attrs)
    return GraphNode(op, nodes, Tensor._wrap(out), attrs)


def checked_forward(op: str, values: tuple, attrs: dict) -> np.ndarray:
    """``PRIMITIVES[op].forward(values, attrs)`` as a float64 array. Raises
    FloatingPointError if any value is non-finite (``dense`` scans its own),
    naming the ``name`` attr if any; the caller decides numpy's error state."""
    out = np.asarray(PRIMITIVES[op].forward(values, attrs), dtype=np.float64)
    if op != "dense" and not np.isfinite(out).all():
        raise _non_finite(op, attrs)
    return out


def _non_finite(op: str, attrs: dict) -> FloatingPointError:
    return FloatingPointError(f"{attrs['name'] + ': ' if attrs.get('name') else ''}{op} produced non-finite values")


def backward(loss: GraphNode, wrt=None) -> dict[GraphNode, Tensor]:
    """Reverse-mode gradients of a scalar node with respect to every node
    in its graph, or only to the nodes in ``wrt``.

    Returns a dict keyed by node identity; a node consumed several times
    accumulates the contributions from each use. Nodes outside the graph are
    simply absent from the result.

    With ``wrt`` (an iterable of nodes), a VJP runs only at nodes with a
    parent that has a path to a ``wrt`` node, it computes only the parents
    on such a path (each VJP gets a ``needs`` tuple, one bool per parent),
    and the result holds the ``wrt`` nodes alone. Their gradients equal the
    ``wrt=None`` ones bit for bit. Input gradients keep the row contract of
    the module docstring.
    """
    if loss.value.shape != ():
        raise ValueError(f"backward requires a scalar node, got shape {loss.value.shape}")

    order: list[GraphNode] = []
    seen: set[int] = set()
    stack: list[tuple[GraphNode, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            stack.append((parent, False))

    # ``order`` lists parents before children, so one pass marks every node
    # with a path to a wanted node.
    needed: set[int] | None = None
    if wrt is not None:
        wrt = list(wrt)
        needed = {id(n) for n in wrt}
        for node in order:
            if any(id(p) in needed for p in node.parents):
                needed.add(id(node))

    grads: dict[GraphNode, np.ndarray] = {loss: np.ones(())}
    for node in reversed(order):
        g = grads.get(node)
        if g is None or not node.parents:
            continue
        if needed is None:
            needs = (True,) * len(node.parents)
        else:
            needs = tuple(id(p) in needed for p in node.parents)
            if not any(needs):
                continue
        parent_values = tuple(p.value.array for p in node.parents)
        contributions = PRIMITIVES[node.op].vjp(g, parent_values, node.value.array, node.attrs, needs)
        for parent, need, contribution in zip(node.parents, needs, contributions):
            if not need:
                continue
            if contribution.shape != parent.value.shape:
                raise AssertionError(
                    f"{node.op} vjp produced shape {contribution.shape} for parent of shape {parent.value.shape}"
                )
            held = grads.get(parent)
            grads[parent] = contribution if held is None else held + contribution
    keep = grads if wrt is None else [n for n in wrt if n in grads]
    return {node: Tensor._wrap(grads[node]) for node in keep}


def matmul(a, b) -> GraphNode:
    return apply("matmul", a, b)


def add(a, b) -> GraphNode:
    return apply("add", a, b)


def sub(a, b) -> GraphNode:
    return apply("sub", a, b)


def mul(a, b) -> GraphNode:
    return apply("mul", a, b)


def div(a, b) -> GraphNode:
    return apply("div", a, b)


def scale(a, constant: float) -> GraphNode:
    return apply("scale", a, constant=constant)


def relu(a) -> GraphNode:
    return apply("relu", a)


def exp(a) -> GraphNode:
    return apply("exp", a)


def ln(a) -> GraphNode:
    return apply("ln", a)


def square(a) -> GraphNode:
    return apply("square", a)


def reduce_sum(a, axis=None, keepdims: bool = False) -> GraphNode:
    return apply("sum", a, axis=axis, keepdims=keepdims)


def reduce_mean(a, axis=None, keepdims: bool = False) -> GraphNode:
    return apply("mean", a, axis=axis, keepdims=keepdims)


def l2norm(a, axis=None, keepdims: bool = False) -> GraphNode:
    return apply("l2norm", a, axis=axis, keepdims=keepdims)


def logsumexp(a, axis=None, keepdims: bool = False) -> GraphNode:
    return apply("logsumexp", a, axis=axis, keepdims=keepdims)


def dense(x, w, b, gamma=None, beta=None, *, act=None, mask=None, epsilon=None, name=None) -> GraphNode:
    """One layer as one node: act(batchnorm(x @ w + b)) * mask, ``act`` None,
    "relu" or "exp", ``mask`` None or an (n, d) array. Train-mode batchnorm
    runs only with ``gamma`` and ``beta``, and leaves the batch mean and
    biased variance in ``attrs["mean"]`` and ``attrs["var"]``. ``name``
    labels the node and its errors."""
    if (gamma is None) != (beta is None):
        raise ValueError("dense needs both gamma and beta for batchnorm, or neither")
    bn = () if gamma is None else (gamma, beta)
    return apply("dense", x, w, b, *bn, constant=epsilon, act=act, mask=mask, name=name)


def tempered_ce(p, t, labels=None, norm_floor: float | None = None, reduction: str = "mean") -> GraphNode:
    """Mean (or summed) softmax cross-entropy of z = p_bar / t against one-hot
    ``labels`` (n, k), or z itself without labels. p_bar = p / max(||p||,
    norm_floor) row by row, or p when ``norm_floor`` is None; t is (n, 1)."""
    return apply("tempered_ce", p, t, labels=labels, norm_floor=norm_floor, reduction=reduction)


def resample(u, weights: np.ndarray, floor: float, scale: float = 1.0) -> GraphNode:
    """The (n, 1) column max(sum_i u_i * weights_i, floor) * scale; u is (n, d) or (n, 1)."""
    return apply("resample", u, constant=float(scale), weights=weights, floor=float(floor))


def kl(u, form: str = "variance", weight: float = 1.0) -> GraphNode:
    """weight * mean over rows of sum_i KL(N(0, u_i) || N(0, 1)), u_i a variance or a std."""
    return apply("kl", u, constant=float(weight), form=form)
