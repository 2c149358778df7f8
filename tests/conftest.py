"""Shared fixtures: tiny configs, datasets, and a pre-trained checkpoint."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import uenl.model
import uenl.scoring
from uenl.config import ExperimentConfig
from uenl.harness import Checkpoint, build_datasets, train
from uenl.model import ModelConfig, init_params
from uenl.rng import RngStream

# One profile for every property test: the same examples on every run, no
# example database on disk, and no per-example deadline.
settings.register_profile("uenl", derandomize=True, database=None, deadline=None)
settings.load_profile("uenl")

# A version-1 checkpoint of train(tiny_experiment_config(epochs=2)); see
# test_harness.TestCheckpointV1 for how it was written.
V1_CHECKPOINT = Path(__file__).parent / "fixtures" / "tiny_epochs2_v1.ckpt.json"


def tiny_experiment_config(**overrides) -> ExperimentConfig:
    """A 2-class linearly separable problem that trains in about a second."""
    d = {
        "method": "uenl",
        "seed": 7,
        "epochs": 20,
        "batch_size": 64,
        "lr": 0.1,
        "lr_drop_epochs": [14],
        "dropout": 0.0,
        "delta": 8,
        "lambda": 0.1,
        "backbone": {"input_dim": 6, "hidden_dims": [16, 8], "num_classes": 2},
        "data": {
            "id": {
                "kind": "gaussian_clusters",
                "dim": 6,
                "num_classes": 2,
                "n_train_per_class": 150,
                "n_test_per_class": 80,
                "sigma": 0.2,
                "seed": 11,
            },
            "ood": [
                {"kind": "uniform", "n": 160, "low": -2.0, "high": 2.0, "seed": 21},
                {"kind": "gaussian_noise", "n": 160, "seed": 22},
            ],
        },
    }
    d.update(overrides)
    return ExperimentConfig.from_dict(d)


@pytest.fixture(scope="session")
def tiny_checkpoint() -> Checkpoint:
    return train(tiny_experiment_config())


@pytest.fixture(scope="session")
def tiny_bundle():
    return build_datasets(tiny_experiment_config())


@pytest.fixture()
def backbone_calls(monkeypatch):
    """Every backbone run, through the scoring module or through
    model.eval_logits / predict_classes."""
    calls = []
    for module in (uenl.scoring, uenl.model):
        original = module.forward

        def counted(*args, original=original, **kwargs):
            calls.append(len(args[1]))
            return original(*args, **kwargs)

        monkeypatch.setattr(module, "forward", counted)
    return calls


@pytest.fixture()
def small_params():
    """Fresh random small model (3 classes, 5 inputs, 8-dim head)."""
    config = ModelConfig(input_dim=5, hidden_dims=(12, 6), num_classes=3, delta=8, dropout_rate=0.0)
    return init_params(config, RngStream(99))


def uenl_terms(total):
    """(CE, unweighted KL, per-sample u_hat) of a ``uenl_total`` graph, read
    from the attrs of its tempered_ce, kl and resample nodes. The KL is None
    at kl weight 0, where the total is the CE node itself."""
    ce_node, kl_node = total.parents if total.op == "add" else (total, None)
    kl_term = None if kl_node is None else kl_node.attrs["kl"]
    return ce_node.attrs["ce"], kl_term, ce_node.parents[1].attrs["uhat"].ravel()


def random_scores(rng: np.random.Generator, n: int, m: int, ties: bool):
    """A random (id, ood) score pair; integer grids force heavy ties."""
    if ties:
        id_s = rng.integers(0, 8, size=n).astype(np.float64)
        ood_s = rng.integers(-2, 6, size=m).astype(np.float64)
    else:
        id_s = rng.standard_normal(n) + 0.8
        ood_s = rng.standard_normal(m)
    return id_s, ood_s
