"""Span tracing of the uenl pipeline, installed from outside the library.

Tracing rebinds the names that consuming modules look up at call time
(``uenl.harness.backward``, ``uenl.tensor.apply``, ...) to timing wrappers,
and ``uninstall`` puts every original object back. Nothing under ``src/``
knows about it. Spans are aggregated as they close, keyed by

    (stage, scope, name)

where ``stage`` is the outermost open span (a pipeline stage such as
``harness.train``) and ``scope`` is the innermost enclosing span named in
``SCOPES`` (or ""), so the per-epoch test pass can be told apart from the
train steps around it.
"""

from __future__ import annotations

import functools
import time

# Primitives the benchmark pipelines call. ``max`` and ``concat`` exist in
# the primitive table but no workload path reaches them.
OPS = (
    "matmul", "add", "sub", "mul", "div", "scale", "relu",
    "exp", "ln", "square", "sum", "mean", "l2norm", "logsumexp",
)

SCOPES = frozenset({"model.predict_classes"})


class Tracer:
    """Nested wall-clock spans, aggregated on exit into calls, inclusive
    time and self time (inclusive time minus the time of child spans)."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # [stage, inner_scope, key, start, child_time]
        self.agg: dict[tuple[str, str, str], list] = {}  # key -> [calls, incl_s, self_s]

    def enter(self, name: str) -> None:
        if self._stack:
            top = self._stack[-1]
            stage, parent_scope = top[0], top[1]
        else:
            stage, parent_scope = name, ""
        inner = name if name in SCOPES else parent_scope
        self._stack.append([stage, inner, (stage, parent_scope, name), time.perf_counter(), 0.0])

    def exit(self) -> None:
        frame = self._stack.pop()
        dur = time.perf_counter() - frame[3]
        if self._stack:
            self._stack[-1][4] += dur
        entry = self.agg.get(frame[2])
        if entry is None:
            entry = self.agg[frame[2]] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += dur
        entry[2] += dur - frame[4]

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span named ``name``."""
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()

    def total(self, name: str, stage: str | None = None, scope: str | None = None) -> tuple[int, float]:
        """(calls, inclusive seconds) of every span called ``name`` (or, for a
        name ending in ".", every span starting with it) in the given stage
        and scope; None matches any."""
        calls, secs = 0, 0.0
        for (st, sc, nm), (n, incl, _) in self.agg.items():
            if stage is not None and st != stage:
                continue
            if scope is not None and sc != scope:
                continue
            if nm == name or (name.endswith(".") and nm.startswith(name)):
                calls += n
                secs += incl
        return calls, secs

    def self_time(self, name: str | None = None) -> float:
        """Self seconds of spans called ``name``, or of every span."""
        return sum(e[2] for (_, _, nm), e in self.agg.items() if name is None or nm == name)


# The wrappers inline enter/exit instead of calling Tracer.span: they run
# about 150 times per train step, and the extra call doubles their cost.


def _wrap(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()

    return traced


def _wrap_iter(tracer: Tracer, fn, name: str):
    # Time each next() on the generator, not the consumer's loop body.
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            tracer.enter(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tracer.exit()
            yield item

    return traced


def _wrap_by_arg(tracer: Tracer, fn, prefix: str, index: int):
    # The span is named after one positional argument: the primitive of
    # apply(op, ...), the score method of _scores_for(params, x, method, ...).
    names: dict[str, str] = {}

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        key = args[index]
        name = names.get(key)
        if name is None:
            name = names[key] = f"{prefix}{key}"
        tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()

    return traced


def _wrap_classmethod(tracer: Tracer, descriptor, name: str):
    return classmethod(_wrap(tracer, descriptor.__func__, name))


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else vars(owner)[key]


def _set(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Installation:
    """The set of rebound names; ``uninstall`` restores each original."""

    def __init__(self, saved: list[tuple[object, str, object]]) -> None:
        self.saved = saved

    def uninstall(self) -> None:
        for owner, key, original in reversed(self.saved):
            _set(owner, key, original)

    def unrestored(self) -> list[str]:
        """Names bound to something other than their original."""
        return [
            f"{getattr(owner, '__name__', type(owner).__name__)}.{key}"
            for owner, key, original in self.saved
            if _get(owner, key) is not original
        ]


def install(tracer: Tracer) -> Installation:
    """Rebind the library's internal lookups to timing wrappers."""
    import uenl.harness as harness
    import uenl.metrics as metrics
    import uenl.model as model
    import uenl.scoring as scoring
    import uenl.tensor as tensor

    plan = [
        # (owner, attribute, make wrapper from original)
        (harness, "batch_iter", lambda f: _wrap_iter(tracer, f, "data.batch_iter")),
        (harness, "forward", lambda f: _wrap(tracer, f, "model.forward_train")),
        (harness, "uncertainty_forward", lambda f: _wrap(tracer, f, "model.uncertainty_forward")),
        (harness, "uenl_total", lambda f: _wrap(tracer, f, "losses.uenl_total")),
        (harness, "backward", lambda f: _wrap(tracer, f, "tensor.backward")),
        (harness, "sgd_step", lambda f: _wrap(tracer, f, "optim.sgd_step")),
        (harness, "predict_classes", lambda f: _wrap(tracer, f, "model.predict_classes")),
        (harness, "eval_logits", lambda f: _wrap(tracer, f, "model.eval_logits")),
        # The per-method dispatch (forward pass included) lives in this one
        # private helper; it is the only place a method's full cost is visible.
        (harness, "_scores_for", lambda f: _wrap_by_arg(tracer, f, "scoring.", 2)),
        (harness, "histogram", lambda f: _wrap(tracer, f, "metrics.histogram")),
        (model, "forward", lambda f: _wrap(tracer, f, "model.forward")),
        (model, "eval_logits", lambda f: _wrap(tracer, f, "model.eval_logits")),
        (scoring, "forward", lambda f: _wrap(tracer, f, "model.forward")),
        (scoring, "uncertainty_forward", lambda f: _wrap(tracer, f, "model.uncertainty_forward")),
        (scoring, "backward", lambda f: _wrap(tracer, f, "tensor.backward")),
        (tensor, "apply", lambda f: _wrap_by_arg(tracer, f, "tensor.apply.", 0)),
        (metrics.MetricReport, "from_scores", lambda d: _wrap_classmethod(tracer, d, "metrics.from_scores")),
        (harness.Checkpoint, "to_json", lambda f: _wrap(tracer, f, "harness.ckpt_to_json")),
        (harness.Checkpoint, "from_json", lambda d: _wrap_classmethod(tracer, d, "harness.ckpt_from_json")),
    ]
    plan += [
        (tensor.PRIMITIVES, op, lambda p, op=op: p._replace(vjp=_wrap(tracer, p.vjp, f"tensor.vjp.{op}")))
        for op in OPS
    ]

    saved = []
    installation = Installation(saved)
    try:
        for owner, key, make in plan:
            original = _get(owner, key)
            saved.append((owner, key, original))
            _set(owner, key, make(original))
    except BaseException:
        installation.uninstall()
        raise
    return installation
