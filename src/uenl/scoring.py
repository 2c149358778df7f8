"""Post-hoc detection scores. Every score is oriented the same way:
higher means more in-distribution. A sample is declared ID when its score
reaches the decision threshold.

``msp_score`` and ``energy_score`` score (n, k) logit rows. ``eval_pass``
hands each chunk's graph-free eval pass to a score: the uncertainty score
is -sum_i u_i, and ``odin_from_pass`` perturbs the chunk's inputs along the
gradient it walks back on the chunk's tape. ``scores_csv`` only formats CSV
text.

The softmax and logsumexp kernels repeat scipy.special's (1.17) operations
in order, so scores.csv has the same bits without scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple

import numpy as np

# forward, uncertainty_forward and backward are unused, but perfbench/tracing.py rebinds them here.
from .model import FoldedModel, ModelParams, forward, uncertainty_forward
from .tensor import PRIMITIVES, backward, checked_forward

__all__ = [
    "msp_score",
    "energy_score",
    "odin_from_pass",
    "eval_pass",
    "EvalChunk",
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


class EvalChunk(NamedTuple):
    """One ``eval_pass`` chunk: its rows, their eval-mode logits and sum_i
    u_i, and the tape of its backbone calls (``FoldedModel.run``)."""

    x: np.ndarray
    logits: np.ndarray
    u_total: np.ndarray
    tape: list


def odin_from_pass(model: ModelParams | FoldedModel, chunk: EvalChunk, temperature: float, epsilon: float,
                   clip_range: tuple[float, float] | None = None) -> np.ndarray:
    """ODIN: the temperature-scaled max softmax of the rows of ``chunk``, an
    eval_pass chunk on ``model.fold()``, after each input moves ``epsilon``
    against the sign of the gradient of its predicted class's tempered NLL
    (walked back along the chunk's tape). ``clip_range`` (lo, hi), normally
    the ID training feature range, bounds the moved input. With epsilon = 0
    nothing runs again, and at temperature 1 the score is exactly msp_score.
    """
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    if epsilon < 0.0:
        raise ValueError("epsilon must be non-negative")
    logits = chunk.logits
    if epsilon > 0.0:
        logits = model.fold().run(_odin_perturbed(chunk, temperature, epsilon, clip_range), head=False)[1]
    return _max_softmax(logits / temperature)


def _input_gradient(chunk: EvalChunk, temperature: float) -> np.ndarray:
    """d/dx of the summed NLLs of each row's argmax class at ``temperature``
    (rows are independent, so each row's gradient is its own NLL's):
    ``tempered_ce``'s forward and VJP, then each taped call's input VJP in
    reverse, the float operations of ``backward(nll, wrt=[x])``."""
    logits = chunk.logits
    onehot = np.zeros_like(logits)
    onehot[np.arange(len(logits)), np.argmax(logits, axis=1)] = 1.0
    values = (logits, np.full((len(logits), 1), temperature))
    attrs = {"labels": onehot, "norm_floor": None, "reduction": "sum"}
    with np.errstate(over="ignore", invalid="ignore"):  # the finiteness check reports them
        nll = checked_forward("tempered_ce", values, attrs)
    grad = PRIMITIVES["tempered_ce"].vjp(np.ones(()), values, nll, attrs, (True, False))[0]
    for values, out, attrs in reversed(chunk.tape):
        grad = PRIMITIVES["dense"].vjp(grad, values, out, attrs, (True, False, False))[0]
    return grad


def _odin_perturbed(chunk: EvalChunk, temperature: float, epsilon: float, clip_range) -> np.ndarray:
    # x - epsilon * sign(grad), in one buffer: x + sign(grad) * -epsilon
    # rounds the same, signed zeros included.
    x_perturbed = np.sign(_input_gradient(chunk, temperature))
    x_perturbed *= -epsilon
    x_perturbed += chunk.x
    if clip_range is not None:
        lo, hi = clip_range
        if not hi > lo:
            raise ValueError("clip_range must satisfy hi > lo")
        np.clip(x_perturbed, lo, hi, out=x_perturbed)
    return x_perturbed


def eval_pass(params: ModelParams | FoldedModel, x, score: Callable, chunk: int = 512) -> list:
    """Run backbone and head in eval mode on ``x``, ``chunk`` rows at a time,
    without a graph, and return ``[score(EvalChunk)]``, one entry per chunk.

    A chunk keeps its rows' total uncertainty only (which keeps memory
    flat), and its tape lets a score take an input gradient (ODIN does).
    Eval rows do not depend on their batch, so the chunks together equal an
    unchunked pass bit for bit. ``params`` is folded once, and every chunk
    runs on the same folded arrays.
    """
    x, model, results = np.asarray(x, dtype=np.float64), params.fold(), []
    for rows in (x[i : i + chunk] for i in range(0, len(x), chunk)):
        tape = []
        _, logits, u = model.run(rows, tape)
        results.append(score(EvalChunk(rows, logits, np.sum(u, axis=1), tape)))
    return results


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
