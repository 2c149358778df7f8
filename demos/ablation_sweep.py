"""Ablation sweep over the resampling width delta and the KL weight lambda.

Runs the full cross product on a scaled-down copy of the desk config (each
cell trains its own model on its own derived seed), prints the grid, and
writes the rows to a CSV ready for plotting.

Run from the repository root with: PYTHONPATH=src python3 demos/ablation_sweep.py
(or without PYTHONPATH after `pip install -e .`).
"""

import json
from pathlib import Path

from uenl.config import ExperimentConfig, load_config
from uenl.harness import sweep, write_sweep_csv

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "desk_synthetic.json"


def main():
    base_dict = load_config(CONFIG).to_dict()
    base_dict["epochs"] = 15
    base_dict["lr_drop_epochs"] = [10]
    base = ExperimentConfig.from_dict(base_dict)

    grid = {"delta": [8, 32, 128], "lambda": [0.01, 0.1]}
    print(f"sweeping {json.dumps(grid)} on a {base.epochs}-epoch base "
          f"({len(grid['delta']) * len(grid['lambda'])} cells)\n")

    rows = sweep(base, grid, progress=lambda i, cell: print(f"  cell {i}: {cell}"))

    columns = ["delta", "lambda", "seed", "error_rate", "uncertainty_auroc", "msp_auroc"]
    print()
    print(" ".join(f"{c:>18}" for c in columns))
    for row in rows:
        print(" ".join(
            f"{row[c]:>18.4f}" if isinstance(row[c], float) else f"{row[c]:>18}" for c in columns
        ))

    out = Path(__file__).resolve().parent / "out" / "ablation_sweep.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    write_sweep_csv(rows, out)
    print(f"\nwrote {len(rows)} rows to {out}")
    print("(auroc columns are means over the three OOD sets; cells are short")
    print("runs to keep the demo fast, so expect noisy metrics -- raise")
    print("epochs for a real ablation.)")


if __name__ == "__main__":
    main()
