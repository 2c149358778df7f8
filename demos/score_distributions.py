"""Where the detectors draw the line: score histograms in the terminal.

Trains the desk-scale model once, then renders ASCII histograms of the
MSP and uncertainty scores on the ID test set next to one far-OOD set,
with the 95%-TPR threshold marked. The separation (or lack of it) that
the AUROC/FPR95 numbers summarize is directly visible in the bars.

Run from the repository root with: PYTHONPATH=src python3 demos/score_distributions.py
(or without PYTHONPATH after `pip install -e .`).
"""

from pathlib import Path

import numpy as np

from uenl.config import load_config
from uenl.harness import build_datasets, evaluate, train
from uenl.metrics import fpr_at_95_tpr, histogram

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "desk_synthetic.json"
BAR_WIDTH = 48


def render(name, scores, span, threshold, bins=18):
    rows = histogram(scores, bins, span)
    top = max(count for _, _, count in rows) or 1
    print(f"  {name} (n={scores.size}, mean={scores.mean():.4f})")
    for left, right, count in rows:
        bar = "#" * round(BAR_WIDTH * count / top)
        marker = " <- 95% TPR threshold" if left <= threshold < right else ""
        print(f"    [{left:9.4f}, {right:9.4f}) {bar:<{BAR_WIDTH}} {count:4d}{marker}")


def main():
    config = load_config(CONFIG)
    bundle = build_datasets(config)
    checkpoint = train(config, bundle)
    report = evaluate(checkpoint, bundle)

    ood_name = "uniform"
    for method in ("msp", "uncertainty"):
        scores = next(s for s in report.score_sets if s.method == method)
        id_s, ood_s = scores.id_scores, scores.ood_scores[ood_name]
        pooled = np.concatenate([id_s, ood_s])
        span = (float(pooled.min()), float(pooled.max()))
        res = fpr_at_95_tpr(id_s, ood_s)
        print(f"\n=== {method} scores vs {ood_name} "
              f"(fpr95={res.fpr:.3f}, threshold={res.threshold:.4f}) ===")
        render("id_test", id_s, span, res.threshold)
        render(ood_name, ood_s, span, res.threshold)

    print("\nMSP pushes the OOD mass below the threshold; the raw uncertainty")
    print("score leaves the two distributions on top of each other.")


if __name__ == "__main__":
    main()
