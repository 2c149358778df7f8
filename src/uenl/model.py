"""MLP backbone with a batch-normalized exponential uncertainty head.

The architecture is read from an ``ExperimentConfig``: ``backbone`` (input,
hidden and class widths, batchnorm on or off), ``dropout``, ``delta``,
``scalar_uncertainty``, ``bn_momentum`` and ``bn_epsilon``. The backbone
maps inputs to an embedding (the last hidden activation) and class logits.
The head maps the same embedding to a strictly positive uncertainty vector
u = exp(batchnorm(linear(e))), ``delta`` wide (1 with
``scalar_uncertainty``). Both are built from graph primitives. In train
mode every output is differentiable with respect to parameters and inputs
alike. In eval mode batchnorm uses its running statistics, a fixed
per-column affine map, so it is folded into the linear layer before it
(Ioffe & Szegedy 2015): each layer is one matmul and one add on weights
derived from the current parameters, and the pass is differentiable with
respect to its input only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .rng import RngStream
from .tensor import (
    GraphNode,
    Tensor,
    add,
    as_node,
    batchnorm,
    exp,
    leaf,
    matmul,
    mul,
    relu,
)

if TYPE_CHECKING:
    from .config import ExperimentConfig

__all__ = [
    "ModelParams",
    "ForwardOutput",
    "HeadOutput",
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

    def weight_count(self) -> int:
        return sum(t.size for t in self.weights.values())


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


def _lecun_uniform(rng: RngStream, fan_in: int, fan_out: int) -> Tensor:
    limit = math.sqrt(3.0 / fan_in)
    return Tensor(rng.uniform(-limit, limit, (fan_in, fan_out)))


def init_params(config: ExperimentConfig, rng: RngStream) -> ModelParams:
    """Fresh parameters for the architecture ``config`` describes.

    Linear layers draw LeCun-uniform weights (zero biases) from per-layer
    sub-streams. The head's linear layer starts at zero, so with zero-mean
    batchnorm output the initial uncertainty is exp(0) = 1 everywhere.
    Batchnorm starts at identity (gamma 1, beta 0) with running mean 0 and
    running variance 1.
    """
    weights: dict[str, Tensor] = {}
    bn_state: dict[str, Tensor] = {}

    def bn_block(prefix: str, width: int) -> None:
        weights[f"{prefix}.gamma"] = Tensor(np.ones(width))
        weights[f"{prefix}.beta"] = Tensor.zeros(width)
        bn_state[f"{prefix}.mean"] = Tensor.zeros(width)
        bn_state[f"{prefix}.var"] = Tensor(np.ones(width))

    backbone = config.backbone
    fan_in = backbone.input_dim
    for i, width in enumerate(backbone.hidden_dims):
        name = f"backbone.h{i}"
        weights[f"{name}.w"] = _lecun_uniform(rng.substream(f"init.{name}"), fan_in, width)
        weights[f"{name}.b"] = Tensor.zeros(width)
        if backbone.use_batchnorm:
            bn_block(f"{name}.bn", width)
        fan_in = width
    weights["backbone.out.w"] = _lecun_uniform(rng.substream("init.backbone.out"), fan_in, backbone.num_classes)
    weights["backbone.out.b"] = Tensor.zeros(backbone.num_classes)

    # The head reads the embedding, the last hidden activation (width fan_in).
    out_dim = 1 if config.scalar_uncertainty else config.delta
    weights["head.w"] = Tensor.zeros((fan_in, out_dim))
    weights["head.b"] = Tensor.zeros(out_dim)
    bn_block("head.bn", out_dim)

    return ModelParams(config, weights, bn_state)


def param_leaves(params: ModelParams) -> dict[str, GraphNode]:
    """One fresh graph leaf per trainable weight, keyed by weight name."""
    return {name: leaf(tensor) for name, tensor in params.weights.items()}


def _dense(
    params: ModelParams,
    leaves: dict[str, GraphNode],
    prefix: str,
    h: GraphNode,
    bn: bool,
    mode: str,
    updates: dict[str, Tensor],
) -> GraphNode:
    """``h @ w + b``, batch-normalized by ``{prefix}.bn`` when ``bn``.

    In eval mode the running statistics make batchnorm a fixed per-column
    affine map, folded into the layer from the current weights: with
    s = gamma / sqrt(var + eps), w' = w * s and b' = (b - mean) * s + beta.
    The layer is then one matmul and one add on constant leaves.
    """
    cfg = params.config
    if mode == EVAL:
        w, b = params.weights[f"{prefix}.w"].array, params.weights[f"{prefix}.b"].array
        if bn:
            mean, var = (params.bn_state[f"{prefix}.bn.{stat}"].array for stat in ("mean", "var"))
            if np.any(var < 0.0):
                raise ValueError(f"{prefix}.bn: running variance has negative entries")
            s = params.weights[f"{prefix}.bn.gamma"].array / np.sqrt(var + cfg.bn_epsilon)
            w, b = w * s, (b - mean) * s + params.weights[f"{prefix}.bn.beta"].array
        return add(matmul(h, w), b)
    z = add(matmul(h, leaves[f"{prefix}.w"]), leaves[f"{prefix}.b"])
    if not bn:
        return z
    z = batchnorm(z, leaves[f"{prefix}.bn.gamma"], leaves[f"{prefix}.bn.beta"], cfg.bn_epsilon)
    for stat in ("mean", "var"):
        old = params.bn_state[f"{prefix}.bn.{stat}"].array
        updates[f"{prefix}.bn.{stat}"] = Tensor((1.0 - cfg.bn_momentum) * old + cfg.bn_momentum * z.attrs[stat])
    return z


def _mode_leaves(params: ModelParams, mode: str, leaves: dict[str, GraphNode] | None) -> dict[str, GraphNode]:
    if mode not in (TRAIN, EVAL):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    if mode == TRAIN:
        return param_leaves(params) if leaves is None else leaves
    if leaves:
        raise ValueError("eval mode folds batchnorm into constant weights and takes no parameter leaves")
    return {}


def _dropout(h: GraphNode, rate: float, rng: RngStream) -> GraphNode:
    # Inverted dropout: surviving units scaled so the expectation is unchanged.
    keep = rng.uniform(0.0, 1.0, h.shape) >= rate
    return mul(h, leaf(keep / (1.0 - rate)))


def forward(
    params: ModelParams,
    x,
    mode: str,
    rng: RngStream | None = None,
    leaves: dict[str, GraphNode] | None = None,
) -> ForwardOutput:
    """Run the backbone on a batch.

    ``x`` is a (batch, input_dim) array or node. In train mode batchnorm uses
    batch statistics (and reports running-stat updates); dropout needs ``rng``.
    In eval mode the pass is deterministic and each row's outputs are exactly
    the values it would get in any other batch. Eval mode folds batchnorm
    into each linear layer from the current ``params``, builds no parameter
    leaves (``leaves`` must be None or empty, and the output's is empty) and
    so is differentiable with respect to ``x`` only.
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

    updates: dict[str, Tensor] = {}
    h = x_node
    for i in range(len(backbone.hidden_dims)):
        h = relu(_dense(params, leaves, f"backbone.h{i}", h, backbone.use_batchnorm, mode, updates))
        if mode == TRAIN and rate > 0.0:
            h = _dropout(h, rate, rng)
    embedding = h
    logits = _dense(params, leaves, "backbone.out", embedding, False, mode, updates)
    return ForwardOutput(logits, embedding, x_node, leaves, updates)


def uncertainty_forward(
    params: ModelParams,
    embedding,
    mode: str,
    leaves: dict[str, GraphNode] | None = None,
) -> HeadOutput:
    """Uncertainty head: u = exp(batchnorm(linear(embedding))), strictly positive.

    Pass the ``leaves`` of a backbone ForwardOutput to share one parameter
    leaf set across backbone and head (required for joint gradients). In
    eval mode the head's batchnorm is folded into its linear layer, as in
    ``forward``: u = exp(e @ w' + b'), with no parameter leaves.
    """
    leaves = _mode_leaves(params, mode, leaves)
    width = params.config.backbone.hidden_dims[-1]
    e = as_node(embedding)
    if e.value.ndim != 2 or e.value.shape[1] != width:
        raise ValueError(f"embedding must have shape (batch, {width}), got {e.value.shape}")
    updates: dict[str, Tensor] = {}
    return HeadOutput(exp(_dense(params, leaves, "head", e, True, mode, updates)), updates)


def eval_logits(params: ModelParams, x, batch_size: int = 512) -> np.ndarray:
    """Deterministic eval-mode logits, computed in batches."""
    x = np.asarray(x, dtype=np.float64)
    parts = [
        forward(params, x[i : i + batch_size], EVAL).logits.array
        for i in range(0, len(x), batch_size)
    ]
    return np.concatenate(parts, axis=0) if parts else np.zeros((0, params.config.backbone.num_classes))


def predict_classes(params: ModelParams, x, batch_size: int = 512) -> np.ndarray:
    """Predicted labels in 1..num_classes."""
    return np.argmax(eval_logits(params, x, batch_size), axis=1) + 1
