"""Post-hoc detection scores. Every score is oriented the same way:
higher means more in-distribution. A sample is declared ID when its score
reaches the decision threshold.
The softmax and logsumexp kernels repeat scipy.special's (1.17) operations
in order, so scores.csv has the same bits without scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .model import EVAL, ForwardOutput, ModelParams, forward, uncertainty_forward
from .tensor import backward, tempered_ce

__all__ = [
    "msp_score",
    "energy_score",
    "odin_score",
    "odin_from_pass",
    "uncertainty_score",
    "eval_pass",
    "ScoreSet",
    "write_scores_csv",
    "SCORE_METHODS",
]

SCORE_METHODS = ("msp", "energy", "odin", "uncertainty")


def _as_rows(values, name: str) -> tuple[np.ndarray, bool]:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 1:
        return arr[None, :], True
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 1-d or 2-d, got shape {arr.shape}")
    return arr, False


def _max_softmax(logits: np.ndarray) -> np.ndarray:
    # The largest softmax entry is exp(0) / sum(exp(z - max)).
    return 1.0 / np.exp(logits - logits.max(axis=-1, keepdims=True)).sum(axis=-1)


def msp_score(logits):
    """Maximum softmax probability. Shift-invariant in the logits."""
    arr, single = _as_rows(logits, "logits")
    out = _max_softmax(arr)
    return float(out[0]) if single else out


def energy_score(logits, temperature: float = 0.1):
    """Energy score T * logsumexp(logits / T); approaches max(logits) as T -> 0."""
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    arr, single = _as_rows(logits, "logits")
    z = arr / temperature
    z_max = z.max(axis=-1, keepdims=True)
    at_max = z == z_max
    # logsumexp(z) = log1p(s / m) + log(m) + max: m maximal entries, s the sum of the others' exp(z - max).
    s = np.exp(z - z_max, out=np.zeros_like(z), where=~at_max).sum(axis=-1)
    m = at_max.sum(axis=-1)
    out = temperature * (np.log1p(s / m) + np.log(m) + z_max[:, 0])
    return float(out[0]) if single else out


def odin_score(
    params: ModelParams,
    x,
    temperature: float = 1000.0,
    epsilon: float = 0.0014,
    clip_range: tuple[float, float] | None = None,
):
    """Temperature-scaled max softmax after a small adversarial-style input nudge.

    The input moves a step of size ``epsilon`` against the sign of the
    gradient of the predicted class's temperature-scaled NLL, which inflates
    the confidence of samples near the training manifold more than that of
    outliers. ``clip_range`` (lo, hi), normally the ID training feature range,
    bounds the perturbed input; it is only applied when epsilon > 0, so with
    epsilon = 0 and temperature = 1 the score is exactly msp_score.
    """
    x, single = _as_rows(x, "x")
    scores = odin_from_pass(params, forward(params, x, EVAL), temperature, epsilon, clip_range)
    return float(scores[0]) if single else scores


def odin_from_pass(
    params: ModelParams,
    out: ForwardOutput,
    temperature: float,
    epsilon: float,
    clip_range: tuple[float, float] | None = None,
) -> np.ndarray:
    """odin_score of the rows of ``out``, an eval-mode forward pass of them.

    The input gradient comes from ``out``'s own graph, so only the
    perturbed forward runs again, and with epsilon = 0 nothing does: the
    unperturbed rows' logits are ``out``'s.
    """
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    if epsilon < 0.0:
        raise ValueError("epsilon must be non-negative")
    if epsilon > 0.0:
        out = forward(params, _odin_perturbed(out, temperature, epsilon, clip_range), EVAL)
    return _max_softmax(out.logits.array / temperature)


def _odin_perturbed(
    out: ForwardOutput,
    temperature: float,
    epsilon: float,
    clip_range: tuple[float, float] | None,
) -> np.ndarray:
    logits = out.logits.array
    onehot = np.zeros_like(logits)
    onehot[np.arange(len(logits)), np.argmax(logits, axis=1)] = 1.0
    # Sum of per-sample NLLs at the ODIN temperature: rows are independent,
    # so each input row's gradient is exactly its own NLL gradient.
    nll = tempered_ce(out.logits, np.full((len(logits), 1), temperature), onehot, reduction="sum")
    grad = backward(nll, wrt=[out.x])[out.x].array
    x_perturbed = out.x.array - epsilon * np.sign(grad)
    if clip_range is not None:
        lo, hi = clip_range
        if not hi > lo:
            raise ValueError("clip_range must satisfy hi > lo")
        x_perturbed = np.clip(x_perturbed, lo, hi)
    return x_perturbed


def eval_pass(params: ModelParams, x, score: Callable, chunk: int = 512) -> list:
    """Run backbone and head in eval mode on ``x``, ``chunk`` rows at a time,
    and return ``[score(out, u_total)]``, one entry per chunk.

    ``out`` is the chunk's ForwardOutput, graph included, so a score may
    differentiate it (ODIN does); ``u_total`` is each row's total
    uncertainty sum_i u_i (the row sums only, which keeps memory flat).
    Only one chunk's graph is alive at a time. Eval rows do not depend on
    their batch, so the chunks together equal an unchunked pass bit for bit.
    """
    x = np.asarray(x, dtype=np.float64)
    return [score(*_chunk_pass(params, x[i : i + chunk])) for i in range(0, len(x), chunk)]


def _chunk_pass(params: ModelParams, x: np.ndarray) -> tuple[ForwardOutput, np.ndarray]:
    out = forward(params, x, EVAL)
    u = uncertainty_forward(params, out.embedding, EVAL).u.array
    return out, np.sum(u, axis=1)


def uncertainty_score(params: ModelParams, x):
    """Negated total predicted uncertainty: -sum_i u_i(x). Higher = more ID."""
    x, single = _as_rows(x, "x")
    scores = -np.concatenate([np.zeros(0), *eval_pass(params, x, lambda out, u_total: u_total)])
    return float(scores[0]) if single else scores


@dataclass
class ScoreSet:
    """Scores of one method on the ID test set and each OOD set."""

    method: str
    id_scores: np.ndarray
    ood_scores: dict[str, np.ndarray] = field(default_factory=dict)
    id_name: str = "id"


def write_scores_csv(score_sets, path) -> None:
    """Per-sample score dump: dataset, sample_index, method, score."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("dataset,sample_index,method,score\n")
        for s in score_sets:
            for name, scores in [(s.id_name, s.id_scores), *s.ood_scores.items()]:
                # One write per dataset, so only one dataset's text is held at
                # a time. Python floats have the numpy scalars' repr and
                # format faster.
                values = np.asarray(scores, dtype=np.float64).ravel().tolist()
                fh.write("".join(f"{name},{i},{s.method},{value!r}\n" for i, value in enumerate(values)))
