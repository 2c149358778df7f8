"""Detection metrics over ID/OOD score samples.

Conventions: scores are oriented so higher means more in-distribution; the
positive class for AUPR is ID; FPR95 reports the fraction of OOD samples
scoring at or above the loosest threshold that still keeps 95% of ID.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

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


def auroc(id_scores, ood_scores) -> float:
    """Probability a random ID sample outscores a random OOD sample, ties 1/2.

    Computed from average ranks (the Mann-Whitney statistic), which matches
    the direct all-pairs count exactly in float64 for sample sizes where the
    half-integer rank sums are exactly representable.
    """
    id_s = _validated(id_scores, "id_scores")
    ood_s = _validated(ood_scores, "ood_scores")
    n_id, n_ood = id_s.size, ood_s.size
    ranks = rankdata(np.concatenate([id_s, ood_s]), method="average")
    u_stat = ranks[:n_id].sum() - n_id * (n_id + 1) / 2
    return float(u_stat / (n_id * n_ood))


def aupr(id_scores, ood_scores) -> float:
    """Area under the precision-recall curve with ID as the positive class.

    Average-precision style step integration: sum over descending distinct
    thresholds of (recall increment) * precision.
    """
    id_s = _validated(id_scores, "id_scores")
    ood_s = _validated(ood_scores, "ood_scores")
    scores = np.concatenate([id_s, ood_s])
    labels = np.concatenate([np.ones(id_s.size), np.zeros(ood_s.size)])
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    tp = np.cumsum(labels[order])
    fp = np.cumsum(1.0 - labels[order])
    # Keep only the last row of each tied-score block: thresholds sit at
    # distinct score values.
    last = np.flatnonzero(np.append(np.diff(sorted_scores) != 0.0, True))
    precision = tp[last] / (tp[last] + fp[last])
    recall = tp[last] / id_s.size
    return float(np.sum(np.diff(recall, prepend=0.0) * precision))


@dataclass(frozen=True)
class FprResult:
    fpr: float
    threshold: float


def fpr_at_tpr(id_scores, ood_scores, tpr: float = 0.95) -> FprResult:
    """False-positive rate at the largest threshold keeping TPR >= ``tpr``.

    The threshold is the ceil(tpr * n_id)-th largest ID score; OOD samples
    scoring at or above it count as false positives.
    """
    if not 0.0 < tpr <= 1.0:
        raise ValueError("tpr must lie in (0, 1]")
    id_s = _validated(id_scores, "id_scores")
    ood_s = _validated(ood_scores, "ood_scores")
    k = math.ceil(tpr * id_s.size)
    threshold = np.sort(id_s)[id_s.size - k]
    fpr = np.count_nonzero(ood_s >= threshold) / ood_s.size
    return FprResult(float(fpr), float(threshold))


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
        id_s = _validated(id_scores, "id_scores")
        ood_s = _validated(ood_scores, "ood_scores")
        fpr = fpr_at_95_tpr(id_s, ood_s)
        return cls(
            fpr95=fpr.fpr,
            auroc=auroc(id_s, ood_s),
            aupr=aupr(id_s, ood_s),
            threshold=fpr.threshold,
            n_id=id_s.size,
            n_ood=ood_s.size,
        )

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
