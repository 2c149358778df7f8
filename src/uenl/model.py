"""MLP backbone with a batch-normalized exponential uncertainty head.

``layers(config)`` is the one table of the layers an ``ExperimentConfig``
describes: each hidden layer, the logits layer, and the head u =
exp(batchnorm(linear(e))), ``delta`` wide (1 with ``scalar_uncertainty``);
the last two read the embedding e. Each layer, its batchnorm, activation
and dropout included, is one ``dense`` primitive call. The model argument's
type picks the mode, and each mode has one forward, on a ``Tape``:
``ModelParams.run`` trains, and the ``FoldedModel`` of ``ModelParams.fold``
runs in eval mode, batchnorm's running statistics folded into the linear
layer before it (Ioffe & Szegedy 2015). ``forward`` and
``uncertainty_forward`` build a graph in either mode: the public autodiff
API and the tests' reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .rng import RngStream
from .tensor import GraphNode, Tape, Tensor, as_node, dense, leaf

if TYPE_CHECKING:
    from .config import ExperimentConfig

__all__ = [
    "ModelParams",
    "FoldedModel",
    "ForwardOutput",
    "HeadOutput",
    "layers",
    "param_shapes",
    "init_params",
    "param_leaves",
    "forward",
    "uncertainty_forward",
    "eval_logits",
    "predict_classes",
]


class Layer(NamedTuple):
    prefix: str
    fan_in: int
    width: int
    bn: bool
    act: str | None


def layers(config: ExperimentConfig) -> tuple[Layer, ...]:
    """The model's layers in order: ``backbone.h{i}`` per hidden width
    (relu), ``backbone.out`` (the logits) and ``head`` (exp, batchnorm)."""
    backbone, table, fan_in = config.backbone, [], config.backbone.input_dim
    for i, width in enumerate(backbone.hidden_dims):
        table.append(Layer(f"backbone.h{i}", fan_in, width, backbone.use_batchnorm, "relu"))
        fan_in = width
    table.append(Layer("backbone.out", fan_in, backbone.num_classes, False, None))
    table.append(Layer("head", fan_in, 1 if config.scalar_uncertainty else config.delta, True, "exp"))
    return tuple(table)


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
        table, eps, arrays = layers(self.config), self.config.bn_epsilon, {}
        for prefix, _, _, bn, _ in table:
            w, b = self.weights[f"{prefix}.w"], self.weights[f"{prefix}.b"]
            if bn:
                mean, var = (self.bn_state[f"{prefix}.bn.{stat}"].array for stat in ("mean", "var"))
                if np.any(var < 0.0):
                    raise ValueError(f"{prefix}.bn: running variance has negative entries")
                s = self.weights[f"{prefix}.bn.gamma"].array / np.sqrt(var + eps)
                w = Tensor(w.array * s)
                b = Tensor((b.array - mean) * s + self.weights[f"{prefix}.bn.beta"].array)
            arrays[f"{prefix}.w"], arrays[f"{prefix}.b"] = w.array, b.array
        return FoldedModel(self.config, arrays, table)

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
                raise FloatingPointError(f"{prefix}.bn: non-finite running {stat}")
            stats[key] = Tensor._wrap(new)
        return stats

    def run(self, x: np.ndarray, tape: Tape, dropout_rng, head: bool = True):
        """The train forward of the rows ``x``: one ``dense`` call per layer
        on ``tape``, each weight a key, dropout masks drawn from
        ``dropout_rng`` and running statistics updated in ``bn_state``. The
        (tape index, output) of the embedding, the logits and u, or (None,
        None) for u unless ``head``."""
        config = self.config
        *hidden, out, unc = layers(config)

        def layer(spec, at, h, mask=None):
            prefix = spec.prefix
            names = (f"{prefix}.w", f"{prefix}.b", *((f"{prefix}.bn.gamma", f"{prefix}.bn.beta") if spec.bn else ()))
            attrs = {"act": spec.act, "mask": mask, "constant": config.bn_epsilon, "name": prefix}
            called = tape.run("dense", (at, *names), (h, *(self.weights[name].array for name in names)), attrs)
            if spec.bn:
                self.bn_state.update(self.running_stats(prefix, attrs))
            return called

        called = None, x  # the batch is no key: training asks no input gradient
        for spec in hidden:
            mask = None
            if config.dropout > 0.0:
                # Inverted dropout: surviving units scaled so the expectation is unchanged.
                mask = (dropout_rng.uniform(0.0, 1.0, (len(x), spec.width)) >= config.dropout) / (1.0 - config.dropout)
            called = layer(spec, *called, mask)
        return called, layer(out, *called), layer(unc, *called) if head else (None, None)


@dataclass(frozen=True)
class FoldedModel:
    """An eval-mode model: the ``layers`` table, and each layer's
    ``{prefix}.w`` and ``{prefix}.b``, batchnorm folded in, as read-only
    arrays that every eval pass shares. Built by ``ModelParams.fold`` and
    never changed: it does not follow later edits to its parameters."""

    config: ExperimentConfig
    arrays: dict[str, np.ndarray]
    layers: tuple[Layer, ...]

    def fold(self) -> FoldedModel:
        """Already folded: the model itself."""
        return self

    @np.errstate(over="ignore", invalid="ignore")  # the finiteness checks report overflow and invalid values
    def run(self, x: np.ndarray, tape: Tape | None = None, head: bool = True):
        """(embedding, logits, u) of the rows ``x``, u None unless ``head``:
        one ``dense`` call per layer on ``tape`` (a fresh one when None), the
        input keyed ``"x"``; the values and errors of ``forward`` and
        ``uncertainty_forward`` on this model."""
        _check_rows("input", np.shape(x), self.config.backbone.input_dim)
        tape = Tape() if tape is None else tape
        *hidden, out, unc = self.layers

        def layer(spec, at, h):
            values = (h, self.arrays[f"{spec.prefix}.w"], self.arrays[f"{spec.prefix}.b"])
            return tape.run("dense", (at, None, None), values, {"act": spec.act, "mask": None, "name": spec.prefix})

        called = "x", x
        for spec in hidden:
            called = layer(spec, *called)
        return called[1], layer(out, *called)[1], layer(unc, *called)[1] if head else None


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
    running statistics, in ``layers`` order: each layer's ``w``, ``b`` and,
    with batchnorm, ``bn.gamma`` and ``bn.beta`` (its ``bn.mean`` and
    ``bn.var`` in the second dict)."""
    weights: dict[str, tuple[int, ...]] = {}
    bn_state: dict[str, tuple[int, ...]] = {}
    for prefix, fan_in, width, bn, _ in layers(config):
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
    spec: Layer,
    h: GraphNode,
    train: bool,
    updates: dict[str, Tensor],
    mask: np.ndarray | None = None,
) -> GraphNode:
    """Layer ``spec`` on its ``leaves`` as one ``dense`` node named after it,
    batch-normalized in ``train`` mode if the layer has batchnorm, which
    then reports its running-stat updates in ``updates``."""
    prefix, bn = spec.prefix, spec.bn and train
    gamma, beta = (leaves[f"{prefix}.bn.{p}"] for p in ("gamma", "beta")) if bn else (None, None)
    w, b = leaves[f"{prefix}.w"], leaves[f"{prefix}.b"]
    node = dense(h, w, b, gamma, beta, act=spec.act, mask=mask, epsilon=params.config.bn_epsilon, name=prefix)
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
    """Run the backbone on a batch, a (batch, input_dim) array or node, as a
    graph. On ``ModelParams`` (train mode) batchnorm reports its running-stat
    updates, dropout needs ``rng``, and the layers read ``leaves``, fresh
    ``param_leaves`` when None. A ``FoldedModel`` (eval mode) reports no
    parameter leaves (``leaves`` must be None or empty, and the output's is
    empty), so its pass is differentiable with respect to ``x`` only.
    """
    train, leaves = _layer_leaves(params, leaves)
    rate = params.config.dropout
    x_node = as_node(x)
    _check_rows("input", x_node.shape, params.config.backbone.input_dim)
    if train and rate > 0.0 and rng is None:
        raise ValueError("train-mode forward with dropout needs an rng stream")

    *hidden, out, _ = layers(params.config)
    updates: dict[str, Tensor] = {}
    h = x_node
    for spec in hidden:
        mask = None
        if train and rate > 0.0:
            mask = (rng.uniform(0.0, 1.0, (h.shape[0], spec.width)) >= rate) / (1.0 - rate)
        h = _dense(params, leaves, spec, h, train, updates, mask)
    logits = _dense(params, leaves, out, h, train, updates)
    return ForwardOutput(logits, h, x_node, leaves if train else {}, updates)


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
    train, leaves = _layer_leaves(params, leaves)
    spec = layers(params.config)[-1]
    e = as_node(embedding)
    _check_rows("embedding", e.shape, spec.fan_in)
    updates: dict[str, Tensor] = {}
    return HeadOutput(_dense(params, leaves, spec, e, train, updates), updates)


def eval_logits(params: ModelParams | FoldedModel, x, batch_size: int = 512) -> np.ndarray:
    """Deterministic eval-mode logits, in batches on one fold, without a graph."""
    x = np.asarray(x, dtype=np.float64)
    model = params.fold()
    parts = [model.run(x[i : i + batch_size], head=False)[1] for i in range(0, len(x), batch_size)]
    return np.concatenate(parts, axis=0) if parts else np.zeros((0, params.config.backbone.num_classes))


def predict_classes(params: ModelParams | FoldedModel, x, batch_size: int = 512) -> np.ndarray:
    """Predicted labels in 1..num_classes."""
    return np.argmax(eval_logits(params, x, batch_size), axis=1) + 1
