"""Training objectives: uncertainty-tempered cross-entropy on normalized
logits, its KL regularizer, and the plain and fixed-temperature baselines.

A baseline is one ``tempered_ce`` node; the full objective adds a
``resample``, a ``kl`` and an ``add`` node. Labels are 1-based everywhere:
class ids live in {1, ..., k}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import RngStream
from .tensor import GraphNode, add, as_node, kl, leaf, resample, tempered_ce

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

# Floor on the logit norm: keeps rows with vanishing logits finite and
# leaves every realistic norm, and so scale invariance, untouched.
NORM_EPSILON = 1e-7

# Floor on the resampled temperature, against a draw of all-zero epsilons.
UHAT_FLOOR = 1e-6


@dataclass
class LossBreakdown:
    """Total objective and its parts. ``kl_term`` is the unweighted KL as a
    constant leaf, read from the graph's weighted ``kl`` node, so ``total ==
    ce_term + kl_weight * kl_term`` exactly. ``uhat`` holds the per-sample
    temperatures the cross-entropy term used."""

    total: GraphNode
    ce_term: GraphNode
    kl_term: GraphNode | None
    kl_weight: float
    uhat: np.ndarray


def _logits(p) -> GraphNode:
    p = as_node(p)
    if p.value.ndim != 2:
        raise ValueError(f"logits must be 2-d (batch, classes), got shape {p.value.shape}")
    return p


def _one_hot(y, batch: int, num_classes: int) -> np.ndarray:
    y = np.asarray(y)
    if y.shape != (batch,):
        raise ValueError(f"labels must have shape ({batch},), got {y.shape}")
    if not np.issubdtype(y.dtype, np.integer) and not (y == np.floor(y)).all():
        raise ValueError("labels must be integers")
    if (y < 1).any() or (y > num_classes).any():
        raise ValueError(f"labels must lie in 1..{num_classes}")
    onehot = np.zeros((batch, num_classes))
    onehot[np.arange(batch), y.astype(np.int64) - 1] = 1.0
    return onehot


def _ce(p: GraphNode, t, y, norm_floor: float | None) -> GraphNode:
    # One tempered_ce node; a scalar temperature becomes a constant column.
    batch, num_classes = p.value.shape
    if not isinstance(t, (GraphNode, np.ndarray)):
        t = np.full((batch, 1), float(t))
    return tempered_ce(p, t, _one_hot(y, batch, num_classes), norm_floor=norm_floor)


def normalize_logits(p) -> GraphNode:
    """Project each logit row onto the unit sphere: p / max(||p||,
    NORM_EPSILON), a ``tempered_ce`` node at temperature 1 without labels.
    Above the floor the result is scale-invariant up to rounding."""
    p = _logits(p)
    return tempered_ce(p, np.ones((p.value.shape[0], 1)), norm_floor=NORM_EPSILON)


def resample_uncertainty(
    u,
    rng: RngStream | None = None,
    *,
    epsilon: np.ndarray | None = None,
    n_dims: int | None = None,
    floor: float = UHAT_FLOOR,
    scale: float = 1.0,
) -> tuple[GraphNode, np.ndarray]:
    """Sample per-example temperatures u_hat = max(sum_i u_i * eps_i^2, floor)
    * scale, eps ~ N(0, I), as one ``resample`` node. ``u`` is (batch, delta),
    or (batch, 1) for a shared scalar uncertainty, in which case ``n_dims``
    gives the number of resampling dimensions. For u == 1 the draw is
    chi-square with delta degrees of freedom. Returns the (batch, 1) node and
    the epsilon draw used, so a step can be replayed exactly.
    """
    u = as_node(u)
    if u.value.ndim != 2:
        raise ValueError(f"uncertainty must be 2-d (batch, dims), got shape {u.value.shape}")
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
    return resample(u, epsilon * epsilon, floor, scale), epsilon


def ce_with_temperature(p_bar, uhat, y) -> GraphNode:
    """Mean cross-entropy of softmax(p_bar / u_hat) against 1-based labels.
    ``p_bar`` must already be normalized; ``uhat`` is a strictly positive
    (batch, 1) node or array of per-sample temperatures."""
    p_bar = _logits(p_bar)
    if np.any(np.sqrt(np.sum(p_bar.value.array**2, axis=1)) > 1.0 + 1e-6):
        raise ValueError("logits are not normalized; call normalize_logits first")
    if not isinstance(uhat, GraphNode):
        uhat = np.asarray(uhat, dtype=np.float64).reshape(p_bar.value.shape[0], 1)
    return _ce(p_bar, uhat, y, None)


def kl_regularizer(u, form: str = "variance", weight: float = 1.0) -> GraphNode:
    """``weight`` times the batch mean of sum_i KL(N(0, u_i) || N(0, 1)); the
    ``kl`` node's ``attrs["kl"]`` holds the unweighted value. Each u_i is a
    variance (``form="variance"``: 0.5 (u - ln u - 1)) or a standard deviation
    (``form="std"``: 0.5 (u^2 - 2 ln u - 1)); both vanish exactly at u = 1."""
    return kl(u, form, weight)


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
    p, u = _logits(p), as_node(u)
    uhat, _ = resample_uncertainty(u, rng, epsilon=epsilon, n_dims=n_dims, scale=uhat_scale)
    ce = _ce(p, uhat, y, NORM_EPSILON)
    uhat_values = uhat.value.array.ravel()
    if kl_weight == 0.0:
        return LossBreakdown(ce, ce, None, kl_weight, uhat_values)
    weighted_kl = kl_regularizer(u, kl_form, kl_weight)
    return LossBreakdown(add(ce, weighted_kl), ce, leaf(weighted_kl.attrs["kl"]), kl_weight, uhat_values)


def plain_ce(p, y) -> GraphNode:
    """Standard mean softmax cross-entropy on raw logits."""
    return _ce(_logits(p), 1.0, y, None)


def logitnorm_ce(p, y, temperature: float = 0.04) -> GraphNode:
    """Cross-entropy on normalized logits at a fixed temperature."""
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    return _ce(_logits(p), temperature, y, NORM_EPSILON)
