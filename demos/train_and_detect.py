"""End-to-end run of the shipped desk-scale experiment.

Trains the uncertainty-aware classifier on synthetic Gaussian clusters,
then scores the ID test set and three OOD sets with every detector and
prints the headline metrics (higher score = more in-distribution).

Run from the repository root with: PYTHONPATH=src python3 demos/train_and_detect.py
(or without PYTHONPATH after `pip install -e .`).
"""

import time
from pathlib import Path

from uenl.config import load_config
from uenl.harness import build_datasets, evaluate, train

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "desk_synthetic.json"


def main():
    config = load_config(CONFIG)
    print(f"config: {CONFIG.name} (method={config.method}, seed={config.seed}, "
          f"epochs={config.epochs}, delta={config.delta}, lambda={config.kl_weight})")

    bundle = build_datasets(config)
    for name, ds in {"id_train": bundle.id_train, "id_test": bundle.id_test}.items():
        print(f"  {name:>14}: {ds.features.shape[0]} rows, dim {ds.features.shape[1]}")
    for name, ds in bundle.ood.items():
        print(f"  {name:>14}: {ds.features.shape[0]} rows (OOD)")

    def progress(epoch, mean_loss, test_error):
        if epoch % 10 == 0 or epoch == config.epochs - 1:
            print(f"  epoch {epoch:3d}: loss {mean_loss:.4f}, test error {test_error:.4f}")

    started = time.monotonic()
    checkpoint = train(config, bundle, progress=progress)
    print(f"trained in {time.monotonic() - started:.1f}s")

    report = evaluate(checkpoint, bundle)
    print(f"\nID test accuracy: {1.0 - report.id_error_rate:.4f}\n")
    print(f"{'method':>12} {'ood set':>18} {'auroc':>8} {'aupr':>8} {'fpr95':>8}")
    for method, dataset, row in report.metric_rows:
        print(f"{method:>12} {dataset:>18} {row.auroc:8.4f} {row.aupr:8.4f} {row.fpr95:8.4f}")

    out = Path(__file__).resolve().parent / "out" / "train_and_detect"
    paths = report.write(out)
    print(f"\nwrote {', '.join(p.name for p in paths.values())} to {out}")


if __name__ == "__main__":
    main()
