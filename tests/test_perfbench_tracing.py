"""The benchmark's span tracer (perfbench/tracing.py) rebinds names inside the
library by lookup. A refactor that drops or renames one of them must fail
here, not only in a benchmark run. Assertions are on names, never timings."""

import sys
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


def test_install_rebinds_and_uninstall_restores(tracing, tiny_checkpoint, tiny_bundle):
    from uenl.harness import evaluate

    tr = tracing.Tracer()
    installation = tracing.install(tr)
    try:
        assert len(installation.unrestored()) == len(installation.saved)
        evaluate(tiny_checkpoint, tiny_bundle)
    finally:
        installation.uninstall()
    assert installation.unrestored() == []

    traced = {name for _, _, name in tr.agg}
    for name in ("model.forward", "tensor.apply.matmul", "metrics.from_scores", "metrics.histogram"):
        assert name in traced
    # ODIN's input gradient must reach the VJPs through PRIMITIVES, where the
    # tracer times them; a direct call would leave tensor.vjp.matmul at zero.
    assert "odin" in tiny_checkpoint.config.scoring.methods
    for name in ("tensor.backward", "tensor.vjp.matmul"):
        assert name in traced
    for method in tiny_checkpoint.config.scoring.methods:
        assert f"scoring.{method}" in traced

    before = dict(tr.agg)
    evaluate(tiny_checkpoint, tiny_bundle)
    assert tr.agg == before, "spans recorded after uninstall"
