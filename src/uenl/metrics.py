"""Detection metrics over ID/OOD score samples.

Conventions: scores are oriented so higher means more in-distribution; the
positive class for AUPR is ID; FPR95 reports the fraction of OOD samples
scoring at or above the loosest threshold that still keeps 95% of ID.
AUROC, AUPR and FPR95 all read one ranking of the pooled scores. They read
its cumulative counts only at the end of each block of equal scores, so the
order within a tie does not matter and numpy's default (unstable) sort does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "auroc",
    "aupr",
    "fpr_at_tpr",
    "fpr_at_95_tpr",
    "FprResult",
    "error_rate",
    "histogram",
    "histogram_range",
    "MetricReport",
    "write_metrics_csv",
    "write_histogram_csv",
]


def _validated(scores, name: str) -> np.ndarray:
    arr = np.asarray(scores, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True)
class FprResult:
    fpr: float
    threshold: float


def _ranking(id_scores, ood_scores) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct pooled scores in descending order, with the counts tp/fp
    of ID/OOD scores at or above each: one sort, whose order within ties
    does not matter, cut at the end of each block of equal scores.

    A block holding both 0.0 and -0.0 is represented by whichever the sort
    put last, so its value (an FPR threshold) may read either sign; the
    two compare equal, and the counts do not depend on it."""
    id_s = _validated(id_scores, "id_scores")
    scores = np.concatenate([id_s, _validated(ood_scores, "ood_scores")])
    order = np.argsort(-scores)
    ranked = scores[order]
    last = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))  # of each block of equal scores
    tp = np.cumsum(order < id_s.size)[last]
    return ranked[last], tp, last + 1 - tp


def _auroc(tp, fp) -> float:
    # 2U: each ID score counts 2 per lower OOD score and 1 per tied one.
    two_u = np.sum(np.diff(tp, prepend=0) * (2 * (fp[-1] - fp) + np.diff(fp, prepend=0)))
    return int(two_u) / (2 * int(tp[-1]) * int(fp[-1]))


def _aupr(tp, fp) -> float:
    return float(np.sum(np.diff(tp / tp[-1], prepend=0.0) * (tp / (tp + fp))))


def _fpr_at_tpr(values, tp, fp, tpr: float) -> FprResult:
    j = np.searchsorted(tp, math.ceil(tpr * tp[-1]))
    return FprResult(int(fp[j]) / int(fp[-1]), float(values[j]))


def auroc(id_scores, ood_scores) -> float:
    """Probability a random ID sample outscores a random OOD sample, ties 1/2:
    the Mann-Whitney U, counted exactly in integers and divided once."""
    return _auroc(*_ranking(id_scores, ood_scores)[1:])


def aupr(id_scores, ood_scores) -> float:
    """Area under the precision-recall curve with ID as the positive class.

    Average-precision style step integration: sum over descending distinct
    thresholds of (recall increment) * precision.
    """
    return _aupr(*_ranking(id_scores, ood_scores)[1:])


def fpr_at_tpr(id_scores, ood_scores, tpr: float = 0.95) -> FprResult:
    """False-positive rate at the largest threshold keeping TPR >= ``tpr``.

    The threshold is the ceil(tpr * n_id)-th largest ID score; OOD samples
    scoring at or above it count as false positives.
    """
    if not 0.0 < tpr <= 1.0:
        raise ValueError("tpr must lie in (0, 1]")
    return _fpr_at_tpr(*_ranking(id_scores, ood_scores), tpr)


def fpr_at_95_tpr(id_scores, ood_scores) -> FprResult:
    return fpr_at_tpr(id_scores, ood_scores, 0.95)


def error_rate(predicted, actual) -> float:
    """Fraction of mismatched labels."""
    predicted = np.asarray(predicted).ravel()
    actual = np.asarray(actual).ravel()
    if predicted.size != actual.size:
        raise ValueError(f"length mismatch: {predicted.size} predictions vs {actual.size} labels")
    if predicted.size == 0:
        raise ValueError("cannot compute an error rate over zero samples")
    return float(np.mean(predicted != actual))


def histogram_range(scores) -> tuple[float, float]:
    """The (lowest, highest) score, widened by 0.5 on each side when the two
    are equal, so that a histogram over it has a positive width."""
    lo, hi = float(np.min(scores)), float(np.max(scores))
    if hi == lo:
        return lo - 0.5, hi + 0.5
    return lo, hi


def histogram(scores, n_bins: int, value_range: tuple[float, float] | None = None):
    """Equal-width score histogram as (bin_left, bin_right, count) rows.

    Bins are left-open and right-closed except the first, which is closed at
    both ends, so counts always total the sample size when the range covers
    the data; scores outside an explicit range are dropped.
    """
    scores = _validated(scores, "scores")
    if n_bins < 1:
        raise ValueError("n_bins must be at least 1")
    if value_range is not None and not value_range[1] > value_range[0]:
        raise ValueError("value_range must satisfy hi > lo")
    lo, hi = histogram_range(scores) if value_range is None else map(float, value_range)
    edges = np.linspace(lo, hi, n_bins + 1)
    kept = scores[(scores >= lo) & (scores <= hi)]
    idx = np.searchsorted(edges[1:-1], kept, side="left")
    counts = np.bincount(idx, minlength=n_bins)
    return [(float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(n_bins)]


@dataclass(frozen=True)
class MetricReport:
    """Headline detection numbers for one (method, OOD set) pair."""

    fpr95: float
    auroc: float
    aupr: float
    threshold: float
    n_id: int
    n_ood: int

    @classmethod
    def from_scores(cls, id_scores, ood_scores) -> "MetricReport":
        values, tp, fp = _ranking(id_scores, ood_scores)
        fpr = _fpr_at_tpr(values, tp, fp, 0.95)
        return cls(fpr.fpr, _auroc(tp, fp), _aupr(tp, fp), fpr.threshold, int(tp[-1]), int(fp[-1]))

    @staticmethod
    def method_means(rows) -> dict[str, dict[str, float]]:
        """Per method, in first-seen order, the arithmetic means of fpr95,
        auroc and aupr over its (method, ood_dataset, report) rows."""
        by_method: dict[str, list[MetricReport]] = {}
        for method, _, report in rows:
            by_method.setdefault(method, []).append(report)
        return {
            method: {k: float(np.mean([getattr(r, k) for r in reports])) for k in ("fpr95", "auroc", "aupr")}
            for method, reports in by_method.items()
        }


def write_metrics_csv(rows, path) -> None:
    """Write (method, ood_dataset, report) rows, appending one arithmetic-mean
    row per method across its OOD sets."""
    lines = ["method,ood_dataset,fpr95,auroc,aupr"]
    lines += [f"{method},{ood_name},{r.fpr95!r},{r.auroc!r},{r.aupr!r}" for method, ood_name, r in rows]
    for method, m in MetricReport.method_means(rows).items():
        lines.append(f"{method},mean,{m['fpr95']!r},{m['auroc']!r},{m['aupr']!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_histogram_csv(rows, path) -> None:
    """Write (dataset, method, bin_left, bin_right, count) rows."""
    lines = ["dataset,method,bin_left,bin_right,count"]
    for dataset, method, left, right, count in rows:
        lines.append(f"{dataset},{method},{float(left)!r},{float(right)!r},{int(count)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
