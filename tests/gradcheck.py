"""Finite-difference verification of analytic gradients."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from uenl.tensor import GraphNode, backward, leaf

__all__ = ["GradCheckResult", "compare_gradient", "finite_diff_check"]


@dataclass
class GradCheckResult:
    """Per-coordinate comparison of analytic and central-difference gradients.

    ``rel_err`` is NaN at coordinates flagged as kinks; ``max_rel_err`` is
    taken over the remaining (smooth) coordinates.
    """

    max_rel_err: float
    rel_err: np.ndarray
    kinks: np.ndarray
    analytic: np.ndarray
    numeric: np.ndarray

    @property
    def n_checked(self) -> int:
        return int((~self.kinks).sum())


def _eval_scalar(f: Callable[[GraphNode], GraphNode], point: np.ndarray) -> tuple[float, GraphNode, GraphNode]:
    node = leaf(point)
    out = f(node)
    if not isinstance(out, GraphNode):
        raise TypeError("function under test must return a GraphNode")
    if out.value.shape != ():
        raise ValueError(f"function under test must return a scalar, got shape {out.value.shape}")
    return out.value.item(), node, out


def finite_diff_check(
    f: Callable[[GraphNode], GraphNode],
    point,
    step: float = 1e-6,
    kink_tol: float = 1e-3,
) -> GradCheckResult:
    """Compare backward() gradients of ``f`` against central differences.

    ``f`` maps one leaf node to a scalar node. Each input coordinate is
    perturbed by ``step`` in both directions. A coordinate whose forward and
    backward difference quotients disagree by more than ``kink_tol``
    (relative to max(1, |quotient|)) sits on a non-smooth point, e.g. a relu
    or max kink; it is excluded from the error and reported in ``kinks``.
    """
    point = np.array(point, dtype=np.float64)
    if not np.all(np.isfinite(point)):
        raise ValueError("finite_diff_check point must be finite")
    if step <= 0:
        raise ValueError("step must be positive")

    f0, x_node, out = _eval_scalar(f, point)
    grads = backward(out, wrt=[x_node])
    analytic_t = grads.get(x_node)
    analytic = np.zeros_like(point) if analytic_t is None else analytic_t.copy()
    return compare_gradient(lambda x: _eval_scalar(f, x)[0], point, analytic, step, kink_tol)


def compare_gradient(
    value: Callable[[np.ndarray], float],
    point: np.ndarray,
    analytic: np.ndarray,
    step: float = 1e-6,
    kink_tol: float = 1e-3,
) -> GradCheckResult:
    """Compare an ``analytic`` gradient at ``point`` against central
    differences of the scalar function ``value``, flagging kinks as
    ``finite_diff_check`` does."""
    point = np.array(point, dtype=np.float64)
    f0 = value(point)
    flat = point.ravel()
    numeric = np.zeros(flat.shape)
    kinks = np.zeros(flat.shape, dtype=bool)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + step
        f_plus = value(bumped.reshape(point.shape))
        bumped[i] = flat[i] - step
        f_minus = value(bumped.reshape(point.shape))
        forward_q = (f_plus - f0) / step
        backward_q = (f0 - f_minus) / step
        scale = max(1.0, abs(forward_q), abs(backward_q))
        if abs(forward_q - backward_q) > kink_tol * scale:
            kinks[i] = True
        numeric[i] = (f_plus - f_minus) / (2.0 * step)

    numeric = numeric.reshape(point.shape)
    kinks = kinks.reshape(point.shape)
    rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
    rel[kinks] = np.nan
    smooth = rel[~kinks]
    max_rel = float(smooth.max()) if smooth.size else 0.0
    return GradCheckResult(max_rel, rel, kinks, analytic, numeric)
