"""MLP backbone with a batch-normalized exponential uncertainty head.

The architecture is read from an ``ExperimentConfig``: ``backbone`` (input,
hidden and class widths, batchnorm on or off), ``dropout``, ``delta``,
``scalar_uncertainty``, ``bn_momentum`` and ``bn_epsilon``. The backbone
maps inputs to an embedding (the last hidden activation) and class logits.
The head maps the same embedding to a strictly positive uncertainty vector
u = exp(batchnorm(linear(e))), ``delta`` wide (1 with
``scalar_uncertainty``). Each layer, its batchnorm, activation and dropout
included, is one ``dense`` graph node. In train mode every output is
differentiable with respect to parameters and inputs alike. In eval mode
batchnorm uses its running statistics, a fixed per-column affine map, so it
is folded into the linear layer before it (Ioffe & Szegedy 2015):
``ModelParams.fold`` builds a ``FoldedModel`` of constant per-layer leaves
from the current parameters, each layer is one ``dense`` node on them, and
the pass is differentiable with respect to its input only. An eval pass
over many chunks folds once and hands the ``FoldedModel`` to every chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .rng import RngStream
from .tensor import GraphNode, Tensor, as_node, dense, leaf

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

TRAIN = "train"
EVAL = "eval"


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
        and ``b`` (w' and b' with batchnorm) become one constant leaf each;
        a layer without batchnorm wraps its own weight tensors, uncopied.
        """
        shapes, eps = param_shapes(self.config)[0], self.config.bn_epsilon
        leaves: dict[str, GraphNode] = {}
        for prefix in (name[:-2] for name in shapes if name.endswith(".w")):
            w, b = self.weights[f"{prefix}.w"], self.weights[f"{prefix}.b"]
            if f"{prefix}.bn.gamma" in shapes:
                mean, var = (self.bn_state[f"{prefix}.bn.{stat}"].array for stat in ("mean", "var"))
                if np.any(var < 0.0):
                    raise ValueError(f"{prefix}.bn: running variance has negative entries")
                s = self.weights[f"{prefix}.bn.gamma"].array / np.sqrt(var + eps)
                w = Tensor(w.array * s)
                b = Tensor((b.array - mean) * s + self.weights[f"{prefix}.bn.beta"].array)
            leaves[f"{prefix}.w"], leaves[f"{prefix}.b"] = leaf(w), leaf(b)
        return FoldedModel(self.config, leaves)


@dataclass(frozen=True)
class FoldedModel:
    """An eval-mode model: each layer's ``{prefix}.w`` and ``{prefix}.b``,
    batchnorm folded in, as constant graph leaves that every eval forward
    and head pass given this value shares. Built by ``ModelParams.fold``
    and never changed; it does not follow later edits to the parameters
    it was folded from."""

    config: ExperimentConfig
    leaves: dict[str, GraphNode]

    def fold(self) -> FoldedModel:
        """Already folded: the model itself."""
        return self


@dataclass
class ForwardOutput:
    """Backbone outputs as graph nodes, ready for losses or input gradients.

    ``leaves`` maps each weight name to its graph leaf in train mode; an
    eval-mode pass builds no parameter leaves, so it is empty there."""

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
    for stat in ("mean", "var") if bn else ():
        old = params.bn_state[f"{prefix}.bn.{stat}"].array
        updates[f"{prefix}.bn.{stat}"] = Tensor((1.0 - cfg.bn_momentum) * old + cfg.bn_momentum * node.attrs[stat])
    return node


def _mode_leaves(
    params: ModelParams | FoldedModel, mode: str, leaves: dict[str, GraphNode] | None
) -> dict[str, GraphNode]:
    if mode not in (TRAIN, EVAL):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    if mode == TRAIN:
        if isinstance(params, FoldedModel):
            raise ValueError("a folded model runs in eval mode only")
        return param_leaves(params) if leaves is None else leaves
    if leaves:
        raise ValueError("eval mode folds batchnorm into constant weights and takes no parameter leaves")
    return {}


def forward(
    params: ModelParams | FoldedModel,
    x,
    mode: str,
    rng: RngStream | None = None,
    leaves: dict[str, GraphNode] | None = None,
) -> ForwardOutput:
    """Run the backbone on a batch.

    ``x`` is a (batch, input_dim) array or node. In train mode batchnorm uses
    batch statistics (and reports running-stat updates); dropout needs ``rng``.
    In eval mode the pass is deterministic and each row's outputs are exactly
    the values it would get in any other batch. Eval mode runs on
    ``params.fold()``: a ``FoldedModel`` as it is, ``ModelParams`` folded
    from their current values. It builds no parameter leaves (``leaves``
    must be None or empty, and the output's is empty) and so is
    differentiable with respect to ``x`` only.
    """
    leaves = _mode_leaves(params, mode, leaves)
    backbone, rate = params.config.backbone, params.config.dropout
    x_node = as_node(x)
    if x_node.value.ndim != 2 or x_node.value.shape[1] != backbone.input_dim:
        raise ValueError(
            f"input must have shape (batch, {backbone.input_dim}), got {x_node.value.shape}"
        )
    if mode == TRAIN and rate > 0.0 and rng is None:
        raise ValueError("train-mode forward with dropout needs an rng stream")

    layers = leaves if mode == TRAIN else params.fold().leaves
    bn = backbone.use_batchnorm and mode == TRAIN
    updates: dict[str, Tensor] = {}
    h = x_node
    for i, width in enumerate(backbone.hidden_dims):
        mask = None
        if mode == TRAIN and rate > 0.0:
            # Inverted dropout: surviving units scaled so the expectation is unchanged.
            mask = (rng.uniform(0.0, 1.0, (h.shape[0], width)) >= rate) / (1.0 - rate)
        h = _dense(params, layers, f"backbone.h{i}", h, bn, "relu", updates, mask)
    embedding = h
    logits = _dense(params, layers, "backbone.out", embedding, False, None, updates)
    return ForwardOutput(logits, embedding, x_node, leaves, updates)


def uncertainty_forward(
    params: ModelParams | FoldedModel,
    embedding,
    mode: str,
    leaves: dict[str, GraphNode] | None = None,
) -> HeadOutput:
    """Uncertainty head: u = exp(batchnorm(linear(embedding))), strictly positive.

    Pass the ``leaves`` of a backbone ForwardOutput to share one parameter
    leaf set across backbone and head (required for joint gradients). In
    eval mode the head runs on ``params.fold()``, as in ``forward``: u =
    exp(e @ w' + b'), with no parameter leaves.
    """
    leaves = _mode_leaves(params, mode, leaves)
    width = params.config.backbone.hidden_dims[-1]
    e = as_node(embedding)
    if e.value.ndim != 2 or e.value.shape[1] != width:
        raise ValueError(f"embedding must have shape (batch, {width}), got {e.value.shape}")
    layers = leaves if mode == TRAIN else params.fold().leaves
    updates: dict[str, Tensor] = {}
    return HeadOutput(_dense(params, layers, "head", e, mode == TRAIN, "exp", updates), updates)


def eval_logits(params: ModelParams | FoldedModel, x, batch_size: int = 512) -> np.ndarray:
    """Deterministic eval-mode logits, computed in batches on one fold."""
    x = np.asarray(x, dtype=np.float64)
    model = params.fold()
    parts = [
        forward(model, x[i : i + batch_size], EVAL).logits.array
        for i in range(0, len(x), batch_size)
    ]
    return np.concatenate(parts, axis=0) if parts else np.zeros((0, params.config.backbone.num_classes))


def predict_classes(params: ModelParams | FoldedModel, x, batch_size: int = 512) -> np.ndarray:
    """Predicted labels in 1..num_classes."""
    return np.argmax(eval_logits(params, x, batch_size), axis=1) + 1
