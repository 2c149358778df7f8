"""Training objectives: uncertainty-tempered cross-entropy on normalized
logits, its KL regularizer, and the plain and fixed-temperature baselines.

Labels are 1-based everywhere: class ids live in {1, ..., k}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import RngStream
from .tensor import (
    GraphNode,
    add,
    as_node,
    div,
    floor_at,
    l2norm,
    leaf,
    ln,
    logsumexp,
    mul,
    reduce_mean,
    reduce_sum,
    scale,
    square,
    sub,
)

__all__ = [
    "NORM_EPSILON",
    "UHAT_FLOOR",
    "LossBreakdown",
    "normalize_logits",
    "resample_uncertainty",
    "ce_with_temperature",
    "kl_regularizer",
    "uenl_total",
    "plain_ce",
    "logitnorm_ce",
]

# Floor on the logit norm: keeps rows with vanishing logits finite while
# leaving every realistic norm untouched, so scaling the logits by any
# positive constant leaves the normalized values bit-for-bit unchanged.
NORM_EPSILON = 1e-7

# Floor on the resampled temperature; a draw of all-zero epsilons would
# otherwise divide by zero.
UHAT_FLOOR = 1e-6


@dataclass
class LossBreakdown:
    """Total objective and its parts. ``uhat`` holds the per-sample resampled
    temperatures actually used by the cross-entropy term (empty when the
    temperature was fixed)."""

    total: GraphNode
    ce_term: GraphNode
    kl_term: GraphNode | None
    kl_weight: float
    uhat: np.ndarray


def _check_labels(y, batch: int, num_classes: int) -> np.ndarray:
    y = np.asarray(y)
    if y.shape != (batch,):
        raise ValueError(f"labels must have shape ({batch},), got {y.shape}")
    if not np.issubdtype(y.dtype, np.integer):
        if not np.all(y == np.floor(y)):
            raise ValueError("labels must be integers")
        y = y.astype(np.int64)
    if np.any(y < 1) or np.any(y > num_classes):
        raise ValueError(f"labels must lie in 1..{num_classes}")
    return y.astype(np.int64)


def _one_hot(y: np.ndarray, num_classes: int) -> np.ndarray:
    onehot = np.zeros((y.shape[0], num_classes))
    onehot[np.arange(y.shape[0]), y - 1] = 1.0
    return onehot


def _softmax_ce(z: GraphNode, y: np.ndarray) -> GraphNode:
    """Mean cross-entropy of softmax(z) against labels, via logsumexp(z) - z_y."""
    onehot = leaf(_one_hot(y, z.shape[1]))
    per_sample = sub(logsumexp(z, axis=1), reduce_sum(mul(z, onehot), axis=1))
    return reduce_mean(per_sample)


def normalize_logits(p) -> GraphNode:
    """Project each logit row onto the unit sphere: p / max(||p||, epsilon).

    The floor only engages when ||p|| < 1e-7; above it the result is exactly
    scale-invariant (normalize(c * p) == normalize(p) for any c > 0).
    """
    p = as_node(p)
    if p.value.ndim != 2:
        raise ValueError(f"logits must be 2-d (batch, classes), got shape {p.value.shape}")
    norms = l2norm(p, axis=1, keepdims=True)
    return div(p, floor_at(norms, NORM_EPSILON))


def resample_uncertainty(
    u,
    rng: RngStream | None = None,
    *,
    epsilon: np.ndarray | None = None,
    n_dims: int | None = None,
    floor: float = UHAT_FLOOR,
) -> tuple[GraphNode, np.ndarray]:
    """Sample per-example temperatures u_hat = sum_i u_i * eps_i^2, eps ~ N(0, I).

    ``u`` is (batch, delta), or (batch, 1) for a shared scalar uncertainty, in
    which case ``n_dims`` must give the number of resampling dimensions.
    For u == 1 the draw is chi-square with delta degrees of freedom, so its
    mean is delta. Returns the (batch, 1) node and the epsilon draw used, so
    a step can be replayed exactly.
    """
    u = as_node(u)
    if u.value.ndim != 2:
        raise ValueError(f"uncertainty must be 2-d (batch, dims), got shape {u.value.shape}")
    if np.any(u.value.array <= 0.0):
        raise ValueError("uncertainty values must be strictly positive")
    batch, u_dims = u.value.shape
    dims = u_dims if n_dims is None else int(n_dims)
    if u_dims not in (1, dims):
        raise ValueError(f"uncertainty width {u_dims} incompatible with {dims} resampling dims")
    if epsilon is None:
        if rng is None:
            raise ValueError("resample_uncertainty needs an rng stream or an explicit epsilon")
        epsilon = rng.normal((batch, dims))
    else:
        epsilon = np.asarray(epsilon, dtype=np.float64)
        if epsilon.shape != (batch, dims):
            raise ValueError(f"epsilon must have shape ({batch}, {dims}), got {epsilon.shape}")
    uhat = reduce_sum(mul(u, leaf(epsilon * epsilon)), axis=1, keepdims=True)
    return floor_at(uhat, floor), epsilon


def ce_with_temperature(p_bar, uhat, y) -> GraphNode:
    """Mean cross-entropy of softmax(p_bar / u_hat) against 1-based labels.

    ``p_bar`` must already be normalized (rows on the unit sphere, up to the
    norm floor); ``uhat`` is a strictly positive (batch, 1) node or array of
    per-sample temperatures.
    """
    p_bar = as_node(p_bar)
    if p_bar.value.ndim != 2:
        raise ValueError(f"normalized logits must be 2-d, got shape {p_bar.value.shape}")
    batch, num_classes = p_bar.value.shape
    row_norms = np.sqrt(np.sum(p_bar.value.array**2, axis=1))
    if np.any(row_norms > 1.0 + 1e-6):
        raise ValueError("logits are not normalized; call normalize_logits first")
    if not isinstance(uhat, GraphNode):
        uhat = leaf(np.asarray(uhat, dtype=np.float64).reshape(batch, 1))
    if uhat.value.shape != (batch, 1):
        raise ValueError(f"uhat must have shape ({batch}, 1), got {uhat.value.shape}")
    if np.any(uhat.value.array <= 0.0):
        raise ValueError("temperatures must be strictly positive")
    y = _check_labels(y, batch, num_classes)
    return _softmax_ce(div(p_bar, uhat), y)


def kl_regularizer(u, form: str = "variance") -> GraphNode:
    """Mean over the batch of sum_i KL(N(0, u_i) || N(0, 1)).

    With ``form="variance"`` each u_i is read as a variance:
    0.5 * (u - ln u - 1). With ``form="std"`` it is read as a standard
    deviation: 0.5 * (u^2 - 2 ln u - 1). Both vanish exactly at u = 1.
    """
    u = as_node(u)
    if u.value.ndim != 2:
        raise ValueError(f"uncertainty must be 2-d (batch, dims), got shape {u.value.shape}")
    if np.any(u.value.array <= 0.0):
        raise ValueError("uncertainty values must be strictly positive")
    one = as_node(1.0)
    if form == "variance":
        per_dim = scale(sub(sub(u, ln(u)), one), 0.5)
    elif form == "std":
        per_dim = scale(sub(sub(square(u), scale(ln(u), 2.0)), one), 0.5)
    else:
        raise ValueError(f"unknown KL form {form!r} (expected 'variance' or 'std')")
    return reduce_mean(reduce_sum(per_dim, axis=1))


def uenl_total(
    p,
    u,
    y,
    kl_weight: float,
    rng: RngStream | None = None,
    *,
    epsilon: np.ndarray | None = None,
    n_dims: int | None = None,
    uhat_scale: float = 1.0,
    kl_form: str = "variance",
) -> LossBreakdown:
    """Full objective: CE(normalize(p) / u_hat, y) + kl_weight * KL(u).

    ``uhat_scale`` rescales the resampled temperature (an ablation knob;
    1.0 leaves it untouched). The breakdown's ``uhat`` holds the per-sample
    temperatures after ``uhat_scale``; the epsilon draw itself is not kept.
    """
    if kl_weight < 0.0:
        raise ValueError("kl_weight must be non-negative")
    if uhat_scale <= 0.0:
        raise ValueError("uhat_scale must be positive")
    p_bar = normalize_logits(p)
    uhat, _ = resample_uncertainty(u, rng, epsilon=epsilon, n_dims=n_dims)
    if uhat_scale != 1.0:
        uhat = scale(uhat, uhat_scale)
    ce = ce_with_temperature(p_bar, uhat, y)
    if kl_weight > 0.0:
        kl = kl_regularizer(u, kl_form)
        total = add(ce, scale(kl, kl_weight))
    else:
        kl = None
        total = ce
    return LossBreakdown(total, ce, kl, kl_weight, uhat.value.array.ravel().copy())


def plain_ce(p, y) -> GraphNode:
    """Standard mean softmax cross-entropy on raw logits."""
    p = as_node(p)
    if p.value.ndim != 2:
        raise ValueError(f"logits must be 2-d (batch, classes), got shape {p.value.shape}")
    y = _check_labels(y, p.value.shape[0], p.value.shape[1])
    return _softmax_ce(p, y)


def logitnorm_ce(p, y, temperature: float = 0.04) -> GraphNode:
    """Cross-entropy on normalized logits at a fixed temperature."""
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    p = as_node(p)
    if p.value.ndim != 2:
        raise ValueError(f"logits must be 2-d (batch, classes), got shape {p.value.shape}")
    batch = p.value.shape[0]
    uhat = leaf(np.full((batch, 1), float(temperature)))
    return ce_with_temperature(normalize_logits(p), uhat, y)
