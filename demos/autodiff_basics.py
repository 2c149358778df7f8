"""Tour of the reverse-mode autodiff core.

Builds a small expression graph by hand, runs one backward pass, and then
confirms every gradient against central finite differences, as the test
suite does to validate the training stack.

Run from the repository root with: PYTHONPATH=src python3 demos/autodiff_basics.py
(or without PYTHONPATH after `pip install -e .`).
"""

import numpy as np

from uenl.tensor import backward, div, exp, l2norm, leaf, matmul, reduce_mean, relu, square, sub
from uenl.losses import logitnorm_ce, plain_ce


def max_rel_err(f, point, step=1e-6):
    """Largest gap between backward()'s gradient of the scalar graph
    ``f(leaf)`` at ``point`` and the central difference
    (f(x + h e_i) - f(x - h e_i)) / 2h, relative to max(1, |analytic|)."""
    x = leaf(point)
    analytic = backward(f(x), wrt=[x])[x]
    numeric = np.zeros_like(analytic)
    for i in np.ndindex(point.shape):
        plus, minus = point.copy(), point.copy()
        plus[i], minus[i] = point[i] + step, point[i] - step
        numeric[i] = (f(leaf(plus)).value.item() - f(leaf(minus)).value.item()) / (2.0 * step)
    return float(np.max(np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))))


def main():
    rng = np.random.default_rng(0)

    # --- 1. A scalar expression, differentiated by hand vs. backward() ----
    # f(x, w) = mean(relu(x @ w)^2)
    x = leaf(rng.standard_normal((4, 3)))
    w = leaf(rng.standard_normal((3, 2)))
    f = reduce_mean(square(relu(matmul(x, w))))
    grads = backward(f)
    print("f(x, w) = mean(relu(x @ w)^2)")
    print(f"  value          : {f.value.item():.6f}")
    print(f"  df/dw (3 x 2)  :\n{np.array2string(grads[w], precision=4)}")

    # --- 2. The same gradients, verified by finite differences ------------
    err = max_rel_err(lambda n: reduce_mean(square(relu(matmul(n, w)))), x.value)
    print("\nfinite-difference check on df/dx:")
    print(f"  coordinates checked : {x.value.size}")
    print(f"  max relative error  : {err:.2e}")

    # --- 3. Scale invariance of normalized logits --------------------------
    # Dividing each row by its norm makes the downstream loss indifferent to
    # any positive rescaling of the logits -- the property the training
    # objective is built on. logitnorm_ce at temperature 1 is the plain
    # cross-entropy of the normalized logits.
    p = rng.standard_normal((5, 4))
    y = rng.integers(1, 5, size=5)
    base = plain_ce(p, y).item()
    scaled = plain_ce(100.0 * p, y).item()
    norm_base = logitnorm_ce(p, y, temperature=1.0).item()
    norm_scaled = logitnorm_ce(100.0 * p, y, temperature=1.0).item()
    print("\ncross-entropy under logit scaling p -> 100 p:")
    print(f"  raw logits        : {base:.4f} -> {scaled:.4f}   (collapses)")
    print(f"  normalized logits : {norm_base:.4f} -> {norm_scaled:.4f}   (unchanged)")

    # --- 4. Gradients flow through the normalization, too ------------------
    err = max_rel_err(
        lambda n: reduce_mean(l2norm(sub(exp(div(n, leaf(2.0))), leaf(np.ones((3, 3)))), axis=1)),
        rng.standard_normal((3, 3)),
    )
    print("\ncomposite exp/div/l2norm graph:")
    print(f"  max relative error  : {err:.2e}")


if __name__ == "__main__":
    main()
