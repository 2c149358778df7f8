"""Independent brute-force oracles used to pin down the library's outputs.

Everything here is written on a deliberately different route from the
library code (pairwise enumeration instead of rank statistics, explicit
threshold sweeps instead of cumulative sums, Monte-Carlo estimates instead
of closed forms) so agreement is meaningful.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp as _logsumexp


def pairwise_auroc(id_scores, ood_scores) -> float:
    """Mean over all (id, ood) pairs of 1 / 0.5 / 0 for win / tie / loss."""
    a = np.asarray(id_scores, dtype=np.float64)[:, None]
    b = np.asarray(ood_scores, dtype=np.float64)[None, :]
    wins = (a > b).sum()
    ties = (a == b).sum()
    return (wins + 0.5 * ties) / (a.shape[0] * b.shape[1])


def step_aupr(id_scores, ood_scores) -> float:
    """Average precision by explicit enumeration of distinct thresholds.

    ID is the positive class and a sample is called positive when its score
    is >= the threshold. Thresholds run through the distinct scores in
    descending order; AP sums precision weighted by recall increments.
    """
    id_scores = np.asarray(id_scores, dtype=np.float64)
    ood_scores = np.asarray(ood_scores, dtype=np.float64)
    n_id = id_scores.size
    thresholds = np.unique(np.concatenate([id_scores, ood_scores]))[::-1]
    ap = 0.0
    prev_recall = 0.0
    for t in thresholds:
        tp = int((id_scores >= t).sum())
        fp = int((ood_scores >= t).sum())
        recall = tp / n_id
        precision = tp / (tp + fp)
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def enumerate_fpr_at_tpr(id_scores, ood_scores, tpr: float = 0.95) -> tuple[float, float]:
    """(fpr, threshold) with the threshold found by exhaustive enumeration.

    The threshold is the largest candidate beta (taken from the ID scores)
    whose TPR -- the fraction of ID scores >= beta -- still reaches ``tpr``.
    """
    id_scores = np.asarray(id_scores, dtype=np.float64)
    ood_scores = np.asarray(ood_scores, dtype=np.float64)
    best = None
    for beta in np.unique(id_scores)[::-1]:
        if (id_scores >= beta).mean() >= tpr:
            best = beta
            break
    assert best is not None  # beta = min(id_scores) always reaches TPR 1
    return float((ood_scores >= best).mean()), float(best)


def mc_kl(u: float, form: str, n: int, seed: int) -> float:
    """Monte-Carlo KL(N(0, sigma^2) || N(0, 1)) via the log-density ratio.

    ``u`` is the variance when form="variance" and the standard deviation
    when form="std".
    """
    var = u if form == "variance" else u * u
    rng = np.random.default_rng(seed)
    x = np.sqrt(var) * rng.standard_normal(n)
    log_ratio = -(x * x) / (2.0 * var) - 0.5 * np.log(var) + (x * x) / 2.0
    return float(log_ratio.mean())


def softmax_ce(logits, labels_one_based) -> float:
    """Mean softmax cross-entropy computed directly with scipy."""
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels_one_based, dtype=np.int64) - 1
    lse = _logsumexp(z, axis=1)
    picked = z[np.arange(z.shape[0]), y]
    return float(np.mean(lse - picked))


def numeric_gradient(f, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    flat = out.ravel()
    base = x.copy()
    for i in range(x.size):
        hi = base.copy().ravel()
        lo = base.copy().ravel()
        hi[i] += step
        lo[i] -= step
        flat[i] = (f(hi.reshape(x.shape)) - f(lo.reshape(x.shape))) / (2.0 * step)
    return out


def expected_param_count(config) -> int:
    """Closed-form trainable weight count for the architecture of the
    ExperimentConfig ``config``."""
    count = 0
    fan_in = config.backbone.input_dim
    for width in config.backbone.hidden_dims:
        count += (fan_in + 1) * width
        if config.backbone.use_batchnorm:
            count += 2 * width
        fan_in = width
    count += (fan_in + 1) * config.backbone.num_classes
    out_dim = 1 if config.scalar_uncertainty else config.delta
    count += (fan_in + 1) * out_dim + 2 * out_dim
    return count


def _composed_floor(a, floor: float):
    """Elementwise max(a, floor) as relu(a - floor) + floor."""
    from uenl.tensor import add, leaf, relu, sub

    return add(relu(sub(a, leaf(floor))), leaf(floor))


def composed_ce(z, onehot, reduction: str = "mean"):
    """Softmax cross-entropy of the logits node ``z`` against one-hot labels,
    as logsumexp(z) - z_y from elementwise and reduction primitives."""
    from uenl.tensor import leaf, logsumexp, mul, reduce_mean, reduce_sum, sub

    per_sample = sub(logsumexp(z, axis=1), reduce_sum(mul(z, leaf(onehot)), axis=1))
    return reduce_sum(per_sample) if reduction == "sum" else reduce_mean(per_sample)


def composed_uenl(p, u, onehot, kl_weight, epsilon, *, uhat_scale=1.0, kl_form="variance"):
    """The UE-NL objective composed node by node from elementwise and
    reduction primitives (floors 1e-7 on the logit norm and 1e-6 on u_hat):
    returns the (total, ce, kl) nodes for logits node ``p`` and uncertainty
    node ``u``."""
    from uenl.tensor import add, div, l2norm, leaf, ln, mul, reduce_mean, reduce_sum, scale, square, sub

    p_bar = div(p, _composed_floor(l2norm(p, axis=1, keepdims=True), 1e-7))
    uhat = reduce_sum(mul(u, leaf(epsilon * epsilon)), axis=1, keepdims=True)
    uhat = scale(_composed_floor(uhat, 1e-6), uhat_scale)
    ce = composed_ce(div(p_bar, uhat), onehot)
    one = leaf(1.0)
    if kl_form == "variance":
        per_dim = scale(sub(sub(u, ln(u)), one), 0.5)
    else:
        per_dim = scale(sub(sub(square(u), scale(ln(u), 2.0)), one), 0.5)
    kl = reduce_mean(reduce_sum(per_dim, axis=1))
    return add(ce, scale(kl, kl_weight)), ce, kl


def unfolded_eval(params, x, temperature: float = 1000.0):
    """(logits, u, input gradient) of an eval-mode pass in plain numpy, with
    each batchnorm applied after its linear layer, unfolded, as
    (z - mean) / sqrt(var + eps) * gamma + beta. The gradient is ODIN's: that
    of the summed NLL of each row's argmax class at ``temperature``."""
    cfg, backbone = params.config, params.config.backbone
    w = {k: t.array for k, t in params.weights.items()}
    st = {k: t.array for k, t in params.bn_state.items()}

    def inv_std(prefix):
        return 1.0 / np.sqrt(st[f"{prefix}.var"] + cfg.bn_epsilon)

    def bn(z, prefix):
        return (z - st[f"{prefix}.mean"]) * inv_std(prefix) * w[f"{prefix}.gamma"] + w[f"{prefix}.beta"]

    h, masks = np.asarray(x, dtype=np.float64), []
    for i in range(len(backbone.hidden_dims)):
        z = h @ w[f"backbone.h{i}.w"] + w[f"backbone.h{i}.b"]
        if backbone.use_batchnorm:
            z = bn(z, f"backbone.h{i}.bn")
        masks.append(z > 0.0)
        h = np.maximum(z, 0.0)
    logits = h @ w["backbone.out.w"] + w["backbone.out.b"]
    u = np.exp(bn(h @ w["head.w"] + w["head.b"], "head.bn"))

    # d/dlogits of sum_rows logsumexp(l / T) - l_y / T is (softmax(l / T) - onehot) / T.
    g = np.exp(logits / temperature - _logsumexp(logits / temperature, axis=1, keepdims=True))
    g[np.arange(len(g)), logits.argmax(axis=1)] -= 1.0
    g = (g / temperature) @ w["backbone.out.w"].T
    for i in reversed(range(len(backbone.hidden_dims))):
        g = g * masks[i]
        if backbone.use_batchnorm:
            g = g * (w[f"backbone.h{i}.bn.gamma"] * inv_std(f"backbone.h{i}.bn"))
        g = g @ w[f"backbone.h{i}.w"].T
    return logits, u, g


def sgd_per_parameter(weights, velocity, grads, lr, momentum, weight_decay):
    """One step of SGD with momentum and coupled weight decay, one parameter
    at a time on plain numpy arrays: the per-parameter update the flat step
    replaced. A gradient that is None (a weight outside the loss graph) is
    zero. Returns the new (weights, velocity) dicts; the inputs are untouched."""
    new_w, new_v = {}, {}
    for name, w in weights.items():
        g = grads[name]
        g = np.zeros(w.shape) if g is None else np.asarray(g, dtype=np.float64)
        new_v[name] = v = momentum * velocity[name] - lr * (g + weight_decay * w)
        new_w[name] = w + v
    return new_w, new_v


def stable_ranking(id_scores, ood_scores):
    """The metrics ranking as a stable sort gives it: the distinct pooled
    scores in descending order, with the counts tp/fp of ID/OOD scores at or
    above each. Ties keep their pooled order (ID first, then OOD), so the
    last member of each tie block, whose value represents the block, is
    fixed."""
    id_s = np.asarray(id_scores, dtype=np.float64).ravel()
    scores = np.concatenate([id_s, np.asarray(ood_scores, dtype=np.float64).ravel()])
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    last = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
    tp = np.cumsum(order < id_s.size)[last]
    return ranked[last], tp, last + 1 - tp
