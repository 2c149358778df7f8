"""Every exported name resolves, in the package and in each submodule."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import uenl

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(uenl.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", ["uenl", *(f"uenl.{m}" for m in SUBMODULES)])
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported, f"{name} has no __all__"
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ names missing attributes {missing}"


def test_one_model_config():
    # The ExperimentConfig is the model's config; no second copy of the architecture is exported.
    config = uenl.load_config(Path(__file__).resolve().parent.parent / "configs" / "desk_synthetic.json")
    assert uenl.init_params(config, uenl.RngStream(0)).config is config
    for old in ("ModelConfig", "BackboneConfig", "UncertaintyHeadConfig"):
        assert old not in uenl.__all__
        assert not hasattr(uenl, old)
        assert not hasattr(uenl.model, old)
    assert not hasattr(uenl.ExperimentConfig, "model_config")


def test_losses_exports_only_the_objectives():
    assert uenl.losses.__all__ == ["NORM_EPSILON", "UHAT_FLOOR", "uenl_total", "plain_ce", "logitnorm_ce"]
    for old in ("LossBreakdown", "normalize_logits", "resample_uncertainty", "ce_with_temperature", "kl_regularizer"):
        assert old not in uenl.__all__
        assert not hasattr(uenl, old)
        assert not hasattr(uenl.losses, old)


def test_runtime_ships_no_test_only_helpers():
    # The finite-difference checker lives in tests/gradcheck.py; ODIN and the
    # uncertainty score run through odin_from_pass and eval_pass, and FPR95 is
    # fpr_at_tpr(..., 0.95). The model argument's type picks train or eval mode.
    assert "gradcheck" not in SUBMODULES
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("uenl.gradcheck")
    for module, old in [
        (uenl, "finite_diff_check"),
        (uenl.metrics, "fpr_at_95_tpr"),
        (uenl.scoring, "odin_score"),
        (uenl.scoring, "uncertainty_score"),
        (uenl.model, "EVAL"),
        (uenl.model, "TRAIN"),
    ]:
        assert old not in uenl.__all__ and old not in module.__all__
        assert not hasattr(uenl, old)
        assert not hasattr(module, old)


def test_no_array_wrapper_class():
    # Weights, running statistics and graph values are read-only float64
    # ndarrays; no class wraps them.
    for module in (uenl, uenl.tensor):
        assert "Tensor" not in module.__all__
        assert not hasattr(module, "Tensor")


def test_data_has_no_generators():
    # The synthetic data specs in uenl.config draw their own rows.
    leftovers = [name for name in dir(uenl.data) if name.startswith("gen_") or name == "basis_means"]
    assert leftovers == []
    assert not any(name.startswith("gen_") or name == "basis_means" for name in uenl.data.__all__)


def _write_mode(call: ast.Call) -> bool:
    """Whether an ``open`` call's mode (second positional or ``mode=``) can write."""
    modes = call.args[1:2] if isinstance(call.func, ast.Name) else call.args[:1]
    modes += [kw.value for kw in call.keywords if kw.arg == "mode"]
    return any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+") for m in modes)


def test_one_write_path():
    # harness.write_files is the package's only writer; check_writable's
    # probe opens (and removes) one empty file.
    writers, other = [], []
    for path in sorted(Path(uenl.__file__).parent.glob("*.py")):
        scopes = []

        class Visitor(ast.NodeVisitor):
            def visit_FunctionDef(self, node):
                scopes.append(node.name)
                self.generic_visit(node)
                scopes.pop()

            def visit_Call(self, node):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name == "open" and _write_mode(node):
                    writers.append(f"{path.stem}.{'.'.join(scopes)}")
                elif name in ("write_text", "write_bytes"):
                    other.append(f"{path.stem}.{'.'.join(scopes)}: {name}")
                self.generic_visit(node)

        Visitor().visit(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(writers) == ["harness.check_writable", "harness.write_files"]
    assert other == []


# Loads the package the way each entry point does, then prints every loaded
# scipy module.
_IMPORT_PROBES = {
    "import": "import uenl",
    "help": """
import runpy
sys.argv = ["uenl", "--help"]
try:
    runpy.run_module("uenl", run_name="__main__")
except SystemExit:
    pass
""",
}


@pytest.mark.parametrize("probe", sorted(_IMPORT_PROBES))
def test_runtime_loads_no_scipy(probe):
    # numpy is the only runtime dependency; scipy is a test-only reference.
    script = f"import sys\n{_IMPORT_PROBES[probe]}\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(uenl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[]"
