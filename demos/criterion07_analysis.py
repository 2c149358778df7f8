"""Why the learned uncertainty score misses its criterion-07 AUROC target.

Trains the shipped desk config, then prints the two measurements that the
criterion-07 AUROC test message points to:

1. Three rank measures of the uncertainty head's weight ``head.w``, from
   its singular values s_1 >= s_2 >= ...:
   - participation ratio: (sum s_i^2)^2 / sum s_i^4
   - stable rank: sum s_i^2 / s_1^2
   - entropy effective rank (Roy & Vetterli 2007): exp(-sum p_i ln p_i)
     with p_i = s_i / sum s_j
2. The held-out AUROC of a linear probe on the backbone embedding, ID test
   set against the gaussian_noise OOD set: an L2-regularized logistic
   regression (weight 1e-3, fitted with L-BFGS). It is fitted on the even
   rows of both standardized sets and scored on the odd rows.

The ranks say how many directions ``head.w`` uses; the probe bounds what
any linear read-out of the embedding can separate.

Run from the repository root with: PYTHONPATH=src python3 demos/criterion07_analysis.py
(or without PYTHONPATH after `pip install -e .`).
"""

from pathlib import Path

import numpy as np
from scipy.optimize import minimize

from uenl.config import load_config
from uenl.harness import build_datasets, train
from uenl.metrics import auroc

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "desk_synthetic.json"
PROBE_L2 = 1e-3


def rank_measures(w: np.ndarray) -> dict[str, float]:
    s = np.linalg.svd(w, compute_uv=False)
    energy = s**2
    p = s / s.sum()
    return {
        "participation ratio": energy.sum() ** 2 / (energy**2).sum(),
        "stable rank": energy.sum() / energy[0],
        "entropy effective rank": float(np.exp(-(p * np.log(p)).sum())),
    }


def fit_logistic_probe(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Weights (bias last) of an L2-regularized logistic regression, y in {0, 1}."""
    xb = np.column_stack([x, np.ones(len(x))])

    def loss_and_grad(w):
        z = xb @ w
        loss = np.logaddexp(0.0, z).mean() - (y * z).mean() + PROBE_L2 * (w[:-1] @ w[:-1])
        grad = xb.T @ (1.0 / (1.0 + np.exp(-z)) - y) / len(y)
        grad[:-1] += 2.0 * PROBE_L2 * w[:-1]
        return loss, grad

    return minimize(loss_and_grad, np.zeros(xb.shape[1]), jac=True, method="L-BFGS-B").x


def main():
    config = load_config(CONFIG)
    bundle = build_datasets(config)
    checkpoint = train(config, bundle)
    params = checkpoint.params()
    print(f"trained {CONFIG.name}: final loss {checkpoint.train_loss[-1]:.4f}, "
          f"test error {checkpoint.test_error[-1]:.4f}")

    w = params.weights["head.w"]
    s = np.linalg.svd(w, compute_uv=False)
    print(f"\nhead.w {w.shape[0]}x{w.shape[1]}: singular values / largest, top 5: "
          + ", ".join(f"{v:.2f}" for v in s[:5] / s[0]))
    for name, value in rank_measures(w).items():
        print(f"  {name:>22}: {value:.2f}")

    model = params.fold()
    id_emb = model.run(bundle.id_test.features, head=False)[0]
    noise_emb = model.run(bundle.ood["gaussian_noise"].features, head=False)[0]
    fit_id, fit_noise = id_emb[0::2], noise_emb[0::2]
    probe = fit_logistic_probe(np.vstack([fit_id, fit_noise]), np.r_[np.ones(len(fit_id)), np.zeros(len(fit_noise))])
    held_id, held_noise = (emb[1::2] @ probe[:-1] + probe[-1] for emb in (id_emb, noise_emb))
    print(f"\nlinear probe on the {id_emb.shape[1]}-d embedding, id_test vs gaussian_noise "
          f"(fit on {len(fit_id) + len(fit_noise)} even rows, scored on {len(held_id) + len(held_noise)} odd rows):")
    print(f"  held-out AUROC: {auroc(held_id, held_noise):.4f}")


if __name__ == "__main__":
    main()
