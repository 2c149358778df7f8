"""Post-hoc detection scores. Every score is oriented the same way:
higher means more in-distribution. A sample is declared ID when its score
reaches the decision threshold.

``msp_score`` and ``energy_score`` score (n, k) logit rows. ``eval_pass``
hands each chunk's eval-mode pass and total uncertainty sum_i u_i to a
score: the uncertainty score is -sum_i u_i, and ``odin_from_pass`` perturbs
the chunk's inputs along its graph. ``scores_csv`` only formats CSV text.

The softmax and logsumexp kernels repeat scipy.special's (1.17) operations
in order, so scores.csv has the same bits without scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .model import FoldedModel, ForwardOutput, ModelParams, forward, uncertainty_forward
from .tensor import backward, tempered_ce

__all__ = [
    "msp_score",
    "energy_score",
    "odin_from_pass",
    "eval_pass",
    "ScoreSet",
    "scores_csv",
    "SCORE_METHODS",
]

SCORE_METHODS = ("msp", "energy", "odin", "uncertainty")


def _logit_rows(logits) -> np.ndarray:
    arr = np.asarray(logits, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"logits must be 2-d (rows, classes), got shape {arr.shape}")
    return arr


def _max_softmax(logits: np.ndarray) -> np.ndarray:
    # The largest softmax entry is exp(0) / sum(exp(z - max)).
    return 1.0 / np.exp(logits - logits.max(axis=-1, keepdims=True)).sum(axis=-1)


def msp_score(logits) -> np.ndarray:
    """Maximum softmax probability of each (n, k) logit row; shift-invariant."""
    return _max_softmax(_logit_rows(logits))


def energy_score(logits, temperature: float = 0.1) -> np.ndarray:
    """T * logsumexp(logits / T) of each (n, k) logit row; max(logits) as T -> 0."""
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    z = _logit_rows(logits) / temperature
    z_max = z.max(axis=-1, keepdims=True)
    at_max = z == z_max
    # logsumexp(z) = log1p(s / m) + log(m) + max: m maximal entries, s the sum of the others' exp(z - max).
    s = np.exp(z - z_max, out=np.zeros_like(z), where=~at_max).sum(axis=-1)
    m = at_max.sum(axis=-1)
    return temperature * (np.log1p(s / m) + np.log(m) + z_max[:, 0])


def odin_from_pass(
    model: ModelParams | FoldedModel,
    out: ForwardOutput,
    temperature: float,
    epsilon: float,
    clip_range: tuple[float, float] | None = None,
) -> np.ndarray:
    """ODIN: the temperature-scaled max softmax of the rows of ``out``, an
    eval-mode pass on ``model.fold()``, after each input moves ``epsilon``
    against the sign of the gradient of its predicted class's tempered NLL
    (taken through ``out``'s graph). ``clip_range`` (lo, hi), normally the ID
    training feature range, bounds the moved input. With epsilon = 0 nothing
    runs again, and at temperature 1 the score is exactly msp_score.
    """
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    if epsilon < 0.0:
        raise ValueError("epsilon must be non-negative")
    if epsilon > 0.0:
        out = forward(model.fold(), _odin_perturbed(out, temperature, epsilon, clip_range))
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
    # x - epsilon * sign(grad), in one buffer: x + sign(grad) * -epsilon
    # rounds the same, signed zeros included.
    x_perturbed = np.sign(grad)
    x_perturbed *= -epsilon
    x_perturbed += out.x.array
    if clip_range is not None:
        lo, hi = clip_range
        if not hi > lo:
            raise ValueError("clip_range must satisfy hi > lo")
        np.clip(x_perturbed, lo, hi, out=x_perturbed)
    return x_perturbed


def eval_pass(params: ModelParams | FoldedModel, x, score: Callable, chunk: int = 512) -> list:
    """Run backbone and head in eval mode on ``x``, ``chunk`` rows at a time,
    and return ``[score(out, u_total)]``, one entry per chunk.

    ``out`` is the chunk's ForwardOutput, graph included, so a score may
    differentiate it (ODIN does); ``u_total`` is each row's total
    uncertainty sum_i u_i (the row sums only, which keeps memory flat).
    Only one chunk's graph is alive at a time. Eval rows do not depend on
    their batch, so the chunks together equal an unchunked pass bit for bit.
    ``params`` is folded once (``ModelParams.fold``; a ``FoldedModel`` is
    used as it is), and every chunk runs on the same constant leaves.
    """
    x = np.asarray(x, dtype=np.float64)
    model = params.fold()
    return [score(*_chunk_pass(model, x[i : i + chunk])) for i in range(0, len(x), chunk)]


def _chunk_pass(model: FoldedModel, x: np.ndarray) -> tuple[ForwardOutput, np.ndarray]:
    out = forward(model, x)
    u = uncertainty_forward(model, out.embedding).u.array
    return out, np.sum(u, axis=1)


@dataclass
class ScoreSet:
    """Scores of one method on the ID test set and each OOD set."""

    method: str
    id_scores: np.ndarray
    ood_scores: dict[str, np.ndarray] = field(default_factory=dict)
    id_name: str = "id"


def scores_csv(score_sets) -> Iterator[str]:
    """Per-sample score dump (dataset, sample_index, method, score) as CSV text:
    the header, then one chunk per (method, dataset), so one is held at a time."""
    yield "dataset,sample_index,method,score\n"
    for s in score_sets:
        for name, scores in [(s.id_name, s.id_scores), *s.ood_scores.items()]:
            # Python floats have the numpy scalars' repr and format faster.
            values = np.asarray(scores, dtype=np.float64).ravel().tolist()
            yield "".join(f"{name},{i},{s.method},{value!r}\n" for i, value in enumerate(values))
