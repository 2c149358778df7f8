"""Independent brute-force oracles used to pin down the library's outputs.

Everything here is written on a deliberately different route from the
library code (pairwise enumeration instead of rank statistics, explicit
threshold sweeps instead of cumulative sums, Monte-Carlo estimates instead
of closed forms) so agreement is meaningful. ``batch_loss`` and the
graph eval pass (``graph_eval_pass``, ``odin_from_pass``, ``odin_perturbed``)
are the exceptions: they build a train step's loss and each eval chunk's
pass and ODIN gradient as graphs from the public model, objective and
autodiff functions, the references that the graph-free train step and
eval pass must match bit for bit. So are the numpy-reduction kernels
(``msp_numpy``, ``energy_numpy``, ``tempered_ce_numpy`` and
``tempered_ce_vjp_numpy``): the same expressions with numpy's row
reductions, which the column passes of the library must match bit for bit.
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
    w, st = params.weights, params.bn_state

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


def batch_loss(params, xb, yb, dropout_rng, resample_rng, leaves):
    """Loss graph for one minibatch on the weight ``leaves`` of ``params``
    (``model.param_leaves``), plus the batchnorm running statistics it
    implies by name: what ``harness.train`` built every step before its
    graph-free step."""
    from uenl.losses import logitnorm_ce, plain_ce, uenl_total
    from uenl.model import forward, uncertainty_forward
    from uenl.tensor import add, kl

    config = params.config
    fo = forward(params, xb, dropout_rng, leaves=leaves)
    updates = dict(fo.bn_updates)
    if config.method == "ce":
        return plain_ce(fo.logits, yb), updates
    if config.method == "logitnorm":
        return logitnorm_ce(fo.logits, yb, config.temperature), updates
    if config.pinned_uhat is not None:
        # Fixed temperature ablation: the resampler is bypassed entirely, and
        # with kl weight 0 the head never runs, so the loss is the
        # fixed-temperature baseline's own tempered_ce node.
        total = logitnorm_ce(fo.logits, yb, config.pinned_uhat)
        if config.kl_weight > 0.0:
            head = uncertainty_forward(params, fo.embedding, leaves=fo.leaves)
            updates.update(head.bn_updates)
            total = add(total, kl(head.u, config.kl_form, config.kl_weight))
        return total, updates
    head = uncertainty_forward(params, fo.embedding, leaves=fo.leaves)
    updates.update(head.bn_updates)
    total = uenl_total(
        fo.logits,
        head.u,
        yb,
        config.kl_weight,
        resample_rng,
        n_dims=config.delta,
        uhat_scale=config.uhat_scale,
        kl_form=config.kl_form,
    )
    return total, updates


def graph_eval_pass(params, x, score, chunk: int = 512) -> list:
    """``[score(out, u_total)]`` per ``chunk`` rows of ``x``, ``out`` the
    chunk's eval-mode ForwardOutput on one fold of ``params``, graph
    included, and ``u_total`` its rows' sum_i u_i from the graph head: what
    ``scoring.eval_pass`` ran before it went graph-free."""
    from uenl.model import forward, uncertainty_forward

    x = np.asarray(x, dtype=np.float64)
    model = params.fold()
    results = []
    for i in range(0, len(x), chunk):
        out = forward(model, x[i : i + chunk])
        results.append(score(out, np.sum(uncertainty_forward(model, out.embedding).u.value, axis=1)))
    return results


def odin_from_pass(model, out, temperature: float, epsilon: float, clip_range=None) -> np.ndarray:
    """ODIN on the graph: the temperature-scaled max softmax of the rows of
    ``out`` (an eval-mode ForwardOutput on ``model.fold()``) after the
    ``odin_perturbed`` step, with a graph forward of the moved rows."""
    from uenl.model import forward
    from uenl.scoring import _max_softmax

    if epsilon > 0.0:
        out = forward(model.fold(), odin_perturbed(out, temperature, epsilon, clip_range))
    return _max_softmax(out.logits.value / temperature)


def odin_perturbed(out, temperature: float, epsilon: float, clip_range) -> np.ndarray:
    """Each row of ``out.x`` moved ``epsilon`` against the sign of the
    gradient of its argmax class's tempered NLL, by ``backward`` through
    ``out``'s graph, and clipped to ``clip_range``."""
    from uenl.tensor import backward, tempered_ce

    logits = out.logits.value
    onehot = np.zeros_like(logits)
    onehot[np.arange(len(logits)), np.argmax(logits, axis=1)] = 1.0
    nll = tempered_ce(out.logits, np.full((len(logits), 1), temperature), onehot, reduction="sum")
    grad = backward(nll, wrt=[out.x])[out.x]
    x_perturbed = out.x.value - epsilon * np.sign(grad)
    return x_perturbed if clip_range is None else np.clip(x_perturbed, *clip_range)


def msp_numpy(logits: np.ndarray) -> np.ndarray:
    """msp_score with numpy's row reductions."""
    return 1.0 / np.exp(logits - logits.max(axis=-1, keepdims=True)).sum(axis=-1)


def energy_numpy(logits: np.ndarray, temperature: float) -> np.ndarray:
    """energy_score with numpy's row reductions and an int64 count of maxima."""
    z = logits / temperature
    z_max = z.max(axis=-1, keepdims=True)
    at_max = z == z_max
    s = np.exp(z - z_max, out=np.zeros_like(z), where=~at_max).sum(axis=-1)
    m = at_max.sum(axis=-1)
    return temperature * (np.log1p(s / m) + np.log(m) + z_max[:, 0])


def tempered_ce_numpy(p, t, labels, floor, reduction) -> dict:
    """tempered_ce's forward with numpy's row reductions: the loss ("ce")
    and the arrays its VJP reads ("p_bar", "softmax", and "norms" with a
    floor)."""
    out = {}
    p_bar = p
    if floor is not None:
        out["norms"] = norms = np.sqrt((p * p).sum(axis=1, keepdims=True))
        p_bar = p / np.maximum(norms, floor)
    out["p_bar"] = p_bar
    z = p_bar / t
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    total = e.sum(axis=1, keepdims=True)
    out["softmax"] = e / total
    summed = ((m + np.log(total))[:, 0] - (z * labels).sum(axis=1)).sum()
    out["ce"] = float(summed if reduction == "sum" else summed / len(p))
    return out


def tempered_ce_vjp_numpy(g, p, t, labels, floor, reduction) -> tuple[np.ndarray, np.ndarray]:
    """tempered_ce's (d/dp, d/dt) with numpy's row reductions."""
    fw = tempered_ce_numpy(p, t, labels, floor, reduction)
    p_bar = fw["p_bar"]
    d_pbar = (g if reduction == "sum" else g / p.shape[0]) * (fw["softmax"] - labels) / t
    g_p = d_pbar
    if floor is not None:
        radial = (fw["norms"] > floor) * (d_pbar * p_bar).sum(axis=1, keepdims=True)
        g_p = (d_pbar - p_bar * radial) / np.maximum(fw["norms"], floor)
    return g_p, -(d_pbar * p_bar).sum(axis=1, keepdims=True) / t
