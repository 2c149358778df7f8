"""Demo smoke test: every demo script imports against the current API, and
the fast autodiff tour runs to the end."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _load(path: Path):
    # Each demo calls main() only under a __main__ guard, so loading runs nothing.
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.py")), ids=lambda p: p.stem)
def test_demo_loads(path):
    assert callable(_load(path).main)


def test_autodiff_basics_runs(capsys):
    _load(DEMOS / "autodiff_basics.py").main()
    out = capsys.readouterr().out
    normalized = next(line for line in out.splitlines() if line.lstrip().startswith("normalized logits"))
    before, after = normalized.split(":")[1].split("(")[0].split("->")
    assert float(before) == float(after)
