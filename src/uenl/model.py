"""MLP backbone with a batch-normalized exponential uncertainty head.

The architecture is read from an ``ExperimentConfig``: ``backbone`` (input,
hidden and class widths, batchnorm on or off), ``dropout``, ``delta``,
``scalar_uncertainty``, ``bn_momentum`` and ``bn_epsilon``. The backbone
maps inputs to an embedding (the last hidden activation) and class logits.
The head maps the same embedding to a strictly positive uncertainty vector
u = exp(batchnorm(linear(e))), ``delta`` wide (1 with
``scalar_uncertainty``). Each layer, its batchnorm, activation and dropout
included, is one ``dense`` primitive call. The model argument's type picks
the mode. ``ModelParams`` run in train mode, where every output is
differentiable with respect to parameters and inputs alike. A
``FoldedModel`` (``ModelParams.fold``) runs in eval mode: batchnorm's
running statistics, a fixed per-column affine map, are folded into the
linear layer before it (Ioffe & Szegedy 2015). Its ``run`` is the eval
forward: one ``dense`` call per layer without a graph, with an optional
tape for an input gradient (ODIN's); an eval pass folds once for all its
chunks. Training runs ``dense`` without a graph too
(``harness._train_step``). ``forward`` and ``uncertainty_forward`` build a
graph in either mode: the public autodiff API and the tests' reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .rng import RngStream
from .tensor import GraphNode, Tensor, as_node, checked_forward, dense, leaf

if TYPE_CHECKING:
    from .config import ExperimentConfig

__all__ = [
    "ModelParams",
    "FoldedModel",
    "ForwardOutput",
    "HeadOutput",
    "param_shapes",
    "init_params",
    "param_leaves",
    "forward",
    "uncertainty_forward",
    "eval_logits",
    "predict_classes",
]

@dataclass
class ModelParams:
    """Trainable weights plus batchnorm running statistics.

    ``weights`` take gradient steps; ``bn_state`` holds running means and
    variances, which are updated by exponential moving average and must never
    receive gradient or weight-decay updates.
    """

    config: ExperimentConfig
    weights: dict[str, Tensor] = field(default_factory=dict)
    bn_state: dict[str, Tensor] = field(default_factory=dict)

    def fold(self) -> FoldedModel:
        """The eval-mode model of the current weights and running statistics.

        Each running-statistics batchnorm is a fixed per-column affine map,
        folded into the linear layer before it: with s = gamma / sqrt(var +
        eps), w' = w * s and b' = (b - mean) * s + beta. Every layer's ``w``
        and ``b`` (w' and b' with batchnorm) become one read-only array
        each; a layer without batchnorm keeps its weights' arrays, uncopied.
        """
        shapes, eps = param_shapes(self.config)[0], self.config.bn_epsilon
        arrays: dict[str, np.ndarray] = {}
        for prefix in (name[:-2] for name in shapes if name.endswith(".w")):
            w, b = self.weights[f"{prefix}.w"], self.weights[f"{prefix}.b"]
            if f"{prefix}.bn.gamma" in shapes:
                mean, var = (self.bn_state[f"{prefix}.bn.{stat}"].array for stat in ("mean", "var"))
                if np.any(var < 0.0):
                    raise ValueError(f"{prefix}.bn: running variance has negative entries")
                s = self.weights[f"{prefix}.bn.gamma"].array / np.sqrt(var + eps)
                w = Tensor(w.array * s)
                b = Tensor((b.array - mean) * s + self.weights[f"{prefix}.bn.beta"].array)
            arrays[f"{prefix}.w"], arrays[f"{prefix}.b"] = w.array, b.array
        return FoldedModel(self.config, arrays)

    def running_stats(self, prefix: str, batch: dict) -> dict[str, Tensor]:
        """Layer ``prefix``'s batchnorm running mean and variance, by name,
        after a train batch with statistics ``batch["mean"]`` and
        ``batch["var"]`` (the attrs of its ``dense`` call): one exponential
        moving average each, checked for finiteness and adopted uncopied."""
        momentum, stats = self.config.bn_momentum, {}
        for stat in ("mean", "var"):
            key = f"{prefix}.bn.{stat}"
            new = (1.0 - momentum) * self.bn_state[key].array + momentum * batch[stat]
            if not np.isfinite(new).all():
                raise ValueError(f"non-finite values in tensor of shape {new.shape}")
            stats[key] = Tensor._wrap(new)
        return stats


@dataclass(frozen=True)
class FoldedModel:
    """An eval-mode model: each layer's ``{prefix}.w`` and ``{prefix}.b``,
    batchnorm folded in, as read-only arrays that every eval pass given
    this value shares. Built by ``ModelParams.fold`` and never changed; it
    does not follow later edits to the parameters it was folded from."""

    config: ExperimentConfig
    arrays: dict[str, np.ndarray]

    def fold(self) -> FoldedModel:
        """Already folded: the model itself."""
        return self

    @np.errstate(over="ignore", invalid="ignore")  # the finiteness checks report overflow and invalid values
    def run(self, x: np.ndarray, tape: list | None = None, head: bool = True):
        """(embedding, logits, u) of the rows ``x`` without a graph, u None
        unless ``head``: one ``checked_forward("dense", ...)`` per layer, the
        values and errors of ``forward`` and ``uncertainty_forward`` on this
        model. ``tape`` receives each backbone call's (inputs, output, attrs)."""
        _check_rows("input", np.shape(x), self.config.backbone.input_dim)

        def layer(prefix, h, act, calls):
            values = (h, self.arrays[f"{prefix}.w"], self.arrays[f"{prefix}.b"])
            attrs = {"act": act, "mask": None, "name": prefix}
            calls.append((values, checked_forward("dense", values, attrs), attrs))
            return calls[-1][1]

        h, calls = x, [] if tape is None else tape
        for i in range(len(self.config.backbone.hidden_dims)):
            h = layer(f"backbone.h{i}", h, "relu", calls)
        return h, layer("backbone.out", h, None, calls), (layer("head", h, "exp", []) if head else None)


@dataclass
class ForwardOutput:
    """Backbone outputs as graph nodes, ready for losses or input gradients.

    ``leaves`` maps each weight name to its graph leaf in train mode; an
    eval-mode pass reports no parameter leaves, so it is empty there."""

    logits: GraphNode
    embedding: GraphNode
    x: GraphNode
    leaves: dict[str, GraphNode]
    bn_updates: dict[str, Tensor]


@dataclass
class HeadOutput:
    u: GraphNode
    bn_updates: dict[str, Tensor]


def param_shapes(config: ExperimentConfig) -> tuple[dict[str, tuple[int, ...]], dict[str, tuple[int, ...]]]:
    """Names and shapes of the trainable weights and of the batchnorm
    running statistics, in layout order: each layer's ``w``, ``b`` and, with
    batchnorm, ``bn.gamma`` and ``bn.beta`` (its ``bn.mean`` and ``bn.var``
    in the second dict), for every hidden layer, the logits layer and the
    head. The head reads the embedding, the last hidden activation, and is
    ``delta`` wide (1 with ``scalar_uncertainty``)."""
    backbone = config.backbone
    layers, fan_in = [], backbone.input_dim
    for i, width in enumerate(backbone.hidden_dims):
        layers.append((f"backbone.h{i}", fan_in, width, backbone.use_batchnorm))
        fan_in = width
    layers.append(("backbone.out", fan_in, backbone.num_classes, False))
    layers.append(("head", fan_in, 1 if config.scalar_uncertainty else config.delta, True))
    weights: dict[str, tuple[int, ...]] = {}
    bn_state: dict[str, tuple[int, ...]] = {}
    for prefix, fan_in, width, bn in layers:
        weights[f"{prefix}.w"] = (fan_in, width)
        weights[f"{prefix}.b"] = (width,)
        if bn:
            weights[f"{prefix}.bn.gamma"] = weights[f"{prefix}.bn.beta"] = (width,)
            bn_state[f"{prefix}.bn.mean"] = bn_state[f"{prefix}.bn.var"] = (width,)
    return weights, bn_state


def init_params(config: ExperimentConfig, rng: RngStream) -> ModelParams:
    """Fresh parameters for the architecture ``config`` describes, laid out
    as ``param_shapes`` lists them.

    Backbone linear layers draw LeCun-uniform weights (zero biases) from
    per-layer sub-streams. The head's linear layer starts at zero, so with
    zero-mean batchnorm output the initial uncertainty is exp(0) = 1
    everywhere. Batchnorm starts at identity (gamma 1, beta 0) with running
    mean 0 and running variance 1.
    """
    weight_shapes, bn_shapes = param_shapes(config)
    weights: dict[str, Tensor] = {}
    for name, shape in weight_shapes.items():
        prefix, kind = name.rsplit(".", 1)
        if kind == "w" and prefix != "head":
            limit = math.sqrt(3.0 / shape[0])
            weights[name] = Tensor(rng.substream(f"init.{prefix}").uniform(-limit, limit, shape))
        else:
            weights[name] = Tensor(np.ones(shape)) if kind == "gamma" else Tensor.zeros(shape)
    bn_state = {
        name: Tensor(np.ones(shape)) if name.endswith(".var") else Tensor.zeros(shape)
        for name, shape in bn_shapes.items()
    }
    return ModelParams(config, weights, bn_state)


def param_leaves(params: ModelParams) -> dict[str, GraphNode]:
    """One fresh graph leaf per trainable weight, keyed by weight name."""
    return {name: leaf(tensor) for name, tensor in params.weights.items()}


def _dense(
    params: ModelParams | FoldedModel,
    leaves: dict[str, GraphNode],
    prefix: str,
    h: GraphNode,
    bn: bool,
    act: str | None,
    updates: dict[str, Tensor],
    mask: np.ndarray | None = None,
) -> GraphNode:
    """``act(h @ w + b) * mask`` on the ``leaves`` of layer ``prefix``,
    batch-normalized by ``{prefix}.bn`` before ``act`` when ``bn`` (train
    mode only: eval-mode leaves have batchnorm folded in), as one ``dense``
    node named ``prefix``. Train-mode batchnorm reports its running-stat
    updates in ``updates``."""
    cfg = params.config
    gamma, beta = (leaves[f"{prefix}.bn.{p}"] for p in ("gamma", "beta")) if bn else (None, None)
    w, b = leaves[f"{prefix}.w"], leaves[f"{prefix}.b"]
    node = dense(h, w, b, gamma, beta, act=act, mask=mask, epsilon=cfg.bn_epsilon, name=prefix)
    if bn:
        updates.update(params.running_stats(prefix, node.attrs))
    return node


def _layer_leaves(params: ModelParams | FoldedModel, leaves: dict[str, GraphNode] | None) -> tuple[bool, dict]:
    """Whether a pass on ``params`` trains, and the leaves its layers read:
    ``leaves`` (fresh ``param_leaves`` when None) for ``ModelParams``, fresh
    leaves on the folded arrays for a ``FoldedModel``, which takes none."""
    if isinstance(params, FoldedModel):
        if leaves:
            raise ValueError("a folded model runs in eval mode and takes no parameter leaves")
        return False, {name: leaf(Tensor._wrap(array)) for name, array in params.arrays.items()}
    return True, param_leaves(params) if leaves is None else leaves


def _check_rows(what: str, shape: tuple[int, ...], width: int) -> None:
    if len(shape) != 2 or shape[1] != width:
        raise ValueError(f"{what} must have shape (batch, {width}), got {shape}")


def forward(
    params: ModelParams | FoldedModel,
    x,
    rng: RngStream | None = None,
    leaves: dict[str, GraphNode] | None = None,
) -> ForwardOutput:
    """Run the backbone on a batch.

    ``x`` is a (batch, input_dim) array or node. ``ModelParams`` run in train
    mode: batchnorm uses batch statistics (and reports running-stat updates),
    dropout needs ``rng``, and the layers read ``leaves``, fresh
    ``param_leaves`` when None. A ``FoldedModel`` (``ModelParams.fold``)
    runs in eval mode: the pass is deterministic and each row's outputs are
    exactly the values it would get in any other batch. It reports no
    parameter leaves (``leaves`` must be None or empty, and the output's is
    empty) and so is differentiable with respect to ``x`` only.
    """
    train, layers = _layer_leaves(params, leaves)
    backbone, rate = params.config.backbone, params.config.dropout
    x_node = as_node(x)
    _check_rows("input", x_node.shape, backbone.input_dim)
    if train and rate > 0.0 and rng is None:
        raise ValueError("train-mode forward with dropout needs an rng stream")

    bn = backbone.use_batchnorm and train
    updates: dict[str, Tensor] = {}
    h = x_node
    for i, width in enumerate(backbone.hidden_dims):
        mask = None
        if train and rate > 0.0:
            # Inverted dropout: surviving units scaled so the expectation is unchanged.
            mask = (rng.uniform(0.0, 1.0, (h.shape[0], width)) >= rate) / (1.0 - rate)
        h = _dense(params, layers, f"backbone.h{i}", h, bn, "relu", updates, mask)
    embedding = h
    logits = _dense(params, layers, "backbone.out", embedding, False, None, updates)
    return ForwardOutput(logits, embedding, x_node, layers if train else {}, updates)


def uncertainty_forward(
    params: ModelParams | FoldedModel,
    embedding,
    leaves: dict[str, GraphNode] | None = None,
) -> HeadOutput:
    """Uncertainty head: u = exp(batchnorm(linear(embedding))), strictly positive.

    On ``ModelParams`` (train mode), pass the ``leaves`` of a backbone
    ForwardOutput to share one parameter leaf set across backbone and head
    (required for joint gradients). On a ``FoldedModel`` (eval mode), as in
    ``forward``: u = exp(e @ w' + b'), with no parameter leaves reported.
    """
    train, layers = _layer_leaves(params, leaves)
    width = params.config.backbone.hidden_dims[-1]
    e = as_node(embedding)
    _check_rows("embedding", e.shape, width)
    updates: dict[str, Tensor] = {}
    return HeadOutput(_dense(params, layers, "head", e, train, "exp", updates), updates)


def eval_logits(params: ModelParams | FoldedModel, x, batch_size: int = 512) -> np.ndarray:
    """Deterministic eval-mode logits, in batches on one fold, without a graph."""
    x = np.asarray(x, dtype=np.float64)
    model = params.fold()
    parts = [model.run(x[i : i + batch_size], head=False)[1] for i in range(0, len(x), batch_size)]
    return np.concatenate(parts, axis=0) if parts else np.zeros((0, params.config.backbone.num_classes))


def predict_classes(params: ModelParams | FoldedModel, x, batch_size: int = 512) -> np.ndarray:
    """Predicted labels in 1..num_classes."""
    return np.argmax(eval_logits(params, x, batch_size), axis=1) + 1
