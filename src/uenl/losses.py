"""Training objectives: uncertainty-tempered cross-entropy on normalized
logits with its KL regularizer, and the plain and fixed-temperature
baselines.

A baseline is one ``tempered_ce`` node; the full objective adds a
``resample``, a ``kl`` and an ``add`` node. The CE and KL terms and the
per-sample temperatures live in the ``attrs`` of the ``tempered_ce``,
``kl`` and ``resample`` nodes. Labels are 1-based everywhere: class ids
live in {1, ..., k}.
"""

from __future__ import annotations

import numpy as np

from .rng import RngStream
from .tensor import GraphNode, add, as_node, kl, resample, tempered_ce

__all__ = ["NORM_EPSILON", "UHAT_FLOOR", "uenl_total", "plain_ce", "logitnorm_ce"]

# Floor on the logit norm: keeps rows with vanishing logits finite and
# leaves every realistic norm, and so scale invariance, untouched.
NORM_EPSILON = 1e-7

# Floor on the resampled temperature, against a draw of all-zero epsilons.
UHAT_FLOOR = 1e-6


def _ce(p, t, y, norm_floor: float | None) -> GraphNode:
    """One ``tempered_ce`` node against 1-based labels ``y``; a scalar
    temperature ``t`` becomes a constant column."""
    p = as_node(p)
    if p.value.ndim != 2:
        raise ValueError(f"logits must be 2-d (batch, classes), got shape {p.value.shape}")
    batch, num_classes = p.value.shape
    y = np.asarray(y)
    if y.shape != (batch,):
        raise ValueError(f"labels must have shape ({batch},), got {y.shape}")
    if not np.issubdtype(y.dtype, np.integer) and not (y == np.floor(y)).all():
        raise ValueError("labels must be integers")
    if (y < 1).any() or (y > num_classes).any():
        raise ValueError(f"labels must lie in 1..{num_classes}")
    onehot = np.zeros((batch, num_classes))
    onehot[np.arange(batch), y.astype(np.int64) - 1] = 1.0
    if not isinstance(t, GraphNode):
        t = np.full((batch, 1), float(t))
    return tempered_ce(p, t, onehot, norm_floor=norm_floor)


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
) -> GraphNode:
    """Full objective CE(normalize(p) / u_hat, y) + kl_weight * KL(u), as
    one graph node.

    u_hat = max(sum_i u_i * eps_i^2, UHAT_FLOOR) * uhat_scale per sample,
    with eps ~ N(0, I) of shape (batch, n_dims) drawn from ``rng``, or the
    given ``epsilon`` to replay a step. ``u`` is (batch, delta), or
    (batch, 1) for a shared scalar uncertainty with ``n_dims`` dims. KL(u)
    is that of ``kl_form`` (see ``tensor.kl``); at kl_weight 0 the total is
    the CE node itself.
    """
    u = as_node(u)
    if u.value.ndim != 2:
        raise ValueError(f"uncertainty must be 2-d (batch, dims), got shape {u.value.shape}")
    shape = (u.value.shape[0], u.value.shape[1] if n_dims is None else int(n_dims))
    if epsilon is None:
        if rng is None:
            raise ValueError("uenl_total needs an rng stream or an explicit epsilon")
        epsilon = rng.normal(shape)
    elif np.shape(epsilon) != shape:
        raise ValueError(f"epsilon must have shape {shape}, got {np.shape(epsilon)}")
    epsilon = np.asarray(epsilon, dtype=np.float64)
    ce = _ce(p, resample(u, epsilon * epsilon, UHAT_FLOOR, uhat_scale), y, NORM_EPSILON)
    return ce if kl_weight == 0.0 else add(ce, kl(u, kl_form, kl_weight))


def plain_ce(p, y) -> GraphNode:
    """Standard mean softmax cross-entropy on raw logits."""
    return _ce(p, 1.0, y, None)


def logitnorm_ce(p, y, temperature: float = 0.04) -> GraphNode:
    """Cross-entropy on normalized logits at a fixed temperature."""
    return _ce(p, temperature, y, NORM_EPSILON)
