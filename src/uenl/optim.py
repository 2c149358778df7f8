"""SGD with classic momentum, coupled weight decay, and a step schedule,
on flat buffers.

Update rule per weight element:

    v <- momentum * v - lr * (grad + weight_decay * w)
    w <- w + v

Weight decay is added to the gradient (coupled), so it is also damped by
momentum. The optimizer only ever sees the trainable weights; batchnorm
running statistics must be kept out of its layout.

Flat layout: ``OptState`` lays the weights out end to end, in the order of
the shapes it starts from (``model.param_shapes``), and holds the weights,
the momentum velocity and the gradient each in one contiguous float64
vector of that layout. ``sgd_step`` copies each named gradient into its
slice of the gradient vector, checks the whole vector for finiteness once,
and updates every weight in one fused pass, block by block: the
per-element expressions above, in their order, so the bits are those of a
per-parameter update. The velocity and gradient vectors, and a one-block
scratch buffer, belong to the state and are overwritten in place every
step. The weight vector is fresh and read-only every step, and the named
weights a step returns are read-only views of it: they never change after
the step that made them, so a checkpoint or the best epoch's snapshot can
keep them without a copy.
"""

from __future__ import annotations

import numpy as np

__all__ = ["OptState", "sgd_step", "lr_at_epoch"]

# The fused update runs block by block, so that the weight, velocity,
# gradient, scratch and new-weight blocks of this many float64 values
# (256 KiB each) stay in a core's L2 cache through the six operations on
# them; six passes over whole 240k-weight vectors (image scale) spill out of
# it. The desk model (4.3k weights) is one block.
_BLOCK = 32768


class OptState:
    """One run's flat optimizer buffers, laid out in the order of ``shapes``
    (name to shape) and started from ``weights``, which must match it, with
    zero velocity.

    ``layout`` holds each weight's name, slice and shape. ``weights`` is
    replaced by every step; ``velocity``, ``grad`` and ``scratch`` are
    overwritten in place.
    """

    def __init__(self, shapes: dict[str, tuple[int, ...]], weights: dict[str, np.ndarray]) -> None:
        if set(weights) != set(shapes):
            raise ValueError(f"weights {sorted(weights)} do not match the layout {sorted(shapes)}")
        layout, offset = [], 0
        for name, shape in shapes.items():
            shape = tuple(shape)
            if weights[name].shape != shape:
                raise ValueError(f"weight {name} has shape {weights[name].shape}, the layout has {shape}")
            size = int(np.prod(shape))
            layout.append((name, slice(offset, offset + size), shape))
            offset += size
        self.layout = tuple(layout)
        self.weights = np.empty(offset)
        for name, part, _ in self.layout:
            self.weights[part] = weights[name].reshape(-1)
        self.weights.setflags(write=False)
        self.velocity = np.zeros(offset)
        self.grad = np.empty(offset)
        self.scratch = np.empty(min(offset, _BLOCK))
        # Each weight's slice of ``grad`` in its own shape, for the copy-in.
        self._grad_views = tuple((name, self.grad[part].reshape(shape)) for name, part, shape in self.layout)

    def named(self) -> dict[str, np.ndarray]:
        """The current weights by name: read-only views of the weight vector."""
        w = self.weights
        return {name: w[part].reshape(shape) for name, part, shape in self.layout}


def sgd_step(
    state: OptState,
    grads: dict[str, np.ndarray | None],
    lr: float,
    momentum: float = 0.9,
    weight_decay: float = 0.0005,
) -> dict[str, np.ndarray]:
    """One optimizer step on ``state``; returns the new weights by name.

    ``grads`` needs an entry for every weight. None stands for a weight
    outside the loss graph: its gradient is zero and it still decays. A
    missing entry, a wrong shape or a non-finite gradient aborts the step
    before the weights or the velocity change; the error names the
    parameter (the first non-finite one in layout order).
    """
    if lr <= 0.0:
        raise ValueError("lr must be positive")
    if not 0.0 <= momentum < 1.0:
        raise ValueError("momentum must lie in [0, 1)")
    if weight_decay < 0.0:
        raise ValueError("weight_decay must be non-negative")
    missing = [name for name, _ in state._grad_views if name not in grads]
    if missing:
        raise ValueError(f"missing gradient(s) for: {', '.join(sorted(missing))}")

    for name, view in state._grad_views:
        grad = grads[name]
        if grad is None:
            view[...] = 0.0
            continue
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != view.shape:
            raise ValueError(f"gradient for {name} has shape {grad.shape}, expected {view.shape}")
        view[...] = grad
    w, v, g, s = state.weights, state.velocity, state.grad, state.scratch
    if not np.isfinite(g).all():
        bad = next(name for name, part, _ in state.layout if not np.isfinite(g[part]).all())
        raise FloatingPointError(f"non-finite gradient for parameter {bad}")

    # v <- momentum * v - lr * (g + weight_decay * w), then w <- w + v: the
    # same operations on the same operands as per parameter, so the same bits.
    new = np.empty(w.shape)
    for start in range(0, len(w), _BLOCK):
        part = slice(start, start + _BLOCK)
        wb, vb = w[part], v[part]
        sb = s[: len(wb)]
        np.multiply(weight_decay, wb, out=sb)
        np.add(g[part], sb, out=sb)
        np.multiply(lr, sb, out=sb)
        np.multiply(momentum, vb, out=vb)
        np.subtract(vb, sb, out=vb)
        np.add(wb, vb, out=new[part])
    new.setflags(write=False)
    state.weights = new
    return state.named()


def lr_at_epoch(epoch: int, config) -> float:
    """Stepped learning rate: the base rate divided by 10 for each drop epoch
    already reached. ``config`` needs ``lr`` and ``lr_drop_epochs``."""
    if epoch < 0:
        raise ValueError("epoch must be non-negative")
    drops = sum(1 for d in config.lr_drop_epochs if epoch >= d)
    return float(config.lr * (0.1**drops))
