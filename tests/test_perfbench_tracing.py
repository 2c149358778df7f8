"""The benchmark's span tracer (perfbench/tracing.py) rebinds names inside the
library by lookup. A refactor that drops or renames one of them must fail
here, not only in a benchmark run. Assertions are on names, never timings."""

import sys
from collections import Counter
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracing


def test_install_rebinds_and_uninstall_restores(tracing, tiny_checkpoint, tiny_bundle, monkeypatch):
    import uenl.tensor as tensor
    from uenl.harness import evaluate

    # ODIN's input gradient must reach the VJPs through PRIMITIVES, where the
    # tracer times them; a direct call would bypass this counting one.
    dense_vjps = []
    dense = tensor.PRIMITIVES["dense"]

    def counted_vjp(*args, **kwargs):
        dense_vjps.append(args[-1])
        return dense.vjp(*args, **kwargs)

    # Eval runs without a graph: each layer is one checked_forward("dense")
    # call on the chunk's Tape, and ODIN adds one checked_forward("tempered_ce"),
    # neither of which the tracer wraps.
    forwards = []

    def counted_forward(op, values, attrs, original=tensor.checked_forward):
        forwards.append(op)
        return original(op, values, attrs)

    monkeypatch.setitem(tensor.PRIMITIVES, "dense", dense._replace(vjp=counted_vjp))
    monkeypatch.setattr(tensor, "checked_forward", counted_forward)
    tr = tracing.Tracer()
    installation = tracing.install(tr)
    try:
        assert len(installation.unrestored()) == len(installation.saved)
        evaluate(tiny_checkpoint, tiny_bundle)
    finally:
        installation.uninstall()
    assert installation.unrestored() == []

    traced = {name for _, _, name in tr.agg}
    for name in ("metrics.from_scores", "metrics.histogram"):
        assert name in traced
    # No graph: the model.forward, tensor.apply and tensor.backward spans
    # read 0 under evaluate, and the layers ran as graph-free dense calls.
    for name in ("model.forward", "model.uncertainty_forward", "tensor.apply.dense", "tensor.backward"):
        assert name not in traced
    assert set(forwards) == {"dense", "tempered_ce"}
    assert "odin" in tiny_checkpoint.config.scoring.methods
    # ODIN asks for the input gradient alone, so each dense VJP skips the weights.
    assert dense_vjps and set(dense_vjps) == {(True, False, False)}
    for method in tiny_checkpoint.config.scoring.methods:
        assert f"scoring.{method}" in traced

    before = dict(tr.agg)
    evaluate(tiny_checkpoint, tiny_bundle)
    assert tr.agg == before, "spans recorded after uninstall"


def test_odin_gradient_and_second_forward_inside_odin_span(monkeypatch, tiny_checkpoint, tiny_bundle):
    """The tracer's scoring.odin span is harness._scores_for(..., "odin", ...).
    ODIN's input gradient (its VJPs, looked up in PRIMITIVES) and its
    perturbed forward must run inside it, and no other VJP may run during
    evaluate, or scoring.odin_ms would miss or misattribute them."""
    import uenl.harness as harness
    import uenl.tensor as tensor
    from uenl.harness import evaluate
    from uenl.model import FoldedModel

    active, calls = [], []

    def track(name, fn):
        def tracked(*args, **kwargs):
            calls.append((name, tuple(active)))
            return fn(*args, **kwargs)

        return tracked

    def scores_for(*args, original=harness._scores_for, **kwargs):
        active.append(args[2])
        try:
            return original(*args, **kwargs)
        finally:
            active.pop()

    monkeypatch.setattr(harness, "_scores_for", scores_for)
    for op in tensor.PRIMITIVES:
        prim = tensor.PRIMITIVES[op]
        monkeypatch.setitem(tensor.PRIMITIVES, op, prim._replace(vjp=track(f"vjp.{op}", prim.vjp)))
    monkeypatch.setattr(FoldedModel, "run", track("forward", FoldedModel.run))
    evaluate(tiny_checkpoint, tiny_bundle)

    chunks = sum(-(-len(ds) // 512) for ds in [tiny_bundle.id_test, *tiny_bundle.ood.values()])
    vjps = Counter((name, where) for name, where in calls if name.startswith("vjp."))
    # Per chunk: tempered_ce's VJP, then one dense VJP per backbone layer.
    layers = len(tiny_checkpoint.config.backbone.hidden_dims) + 1
    assert vjps == {("vjp.tempered_ce", ("odin",)): chunks, ("vjp.dense", ("odin",)): layers * chunks}
    # Per chunk: the eval pass's forward outside any method, ODIN's inside.
    forwards = Counter(where for name, where in calls if name == "forward")
    assert forwards == {(): chunks, ("odin",): chunks}
