"""Every exported name resolves, in the package and in each submodule."""

import importlib
import pkgutil

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
    assert "ModelConfig" in uenl.__all__
    assert uenl.ModelConfig is uenl.model.ModelConfig
    for old in ("BackboneConfig", "UncertaintyHeadConfig"):
        assert old not in uenl.__all__
        assert not hasattr(uenl, old)
        assert not hasattr(uenl.model, old)


def test_losses_exports_only_the_objectives():
    assert uenl.losses.__all__ == ["NORM_EPSILON", "UHAT_FLOOR", "uenl_total", "plain_ce", "logitnorm_ce"]
    for old in ("LossBreakdown", "normalize_logits", "resample_uncertainty", "ce_with_temperature", "kl_regularizer"):
        assert old not in uenl.__all__
        assert not hasattr(uenl, old)
        assert not hasattr(uenl.losses, old)


def test_data_has_no_generators():
    # The synthetic data specs in uenl.config draw their own rows.
    leftovers = [name for name in dir(uenl.data) if name.startswith("gen_") or name == "basis_means"]
    assert leftovers == []
    assert not any(name.startswith("gen_") or name == "basis_means" for name in uenl.data.__all__)
