"""Shared fixtures: tiny configs, datasets, and a pre-trained checkpoint."""

from __future__ import annotations

import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import uenl.model
import uenl.scoring
from uenl.config import BackboneSpec, ExperimentConfig
from uenl.harness import Checkpoint, build_datasets, train
from uenl.model import ModelParams, init_params
from uenl.rng import RngStream

# One profile for every property test: the same examples on every run, no
# example database on disk, and no per-example deadline.
settings.register_profile("uenl", derandomize=True, database=None, deadline=None)
settings.load_profile("uenl")

# A version-1 checkpoint of train(tiny_experiment_config(epochs=2)); see
# test_harness.TestCheckpointV1 for how it was written.
V1_CHECKPOINT = Path(__file__).parent / "fixtures" / "tiny_epochs2_v1.ckpt.json"


def model_arch(input_dim, hidden_dims, num_classes, use_batchnorm=True, **fields) -> ExperimentConfig:
    """A config with no data section, for tests that only build the model."""
    return ExperimentConfig(BackboneSpec(input_dim, tuple(hidden_dims), num_classes, use_batchnorm), **fields)


# The tiny test, desk and image architectures, plus the variants without
# backbone batchnorm and with a scalar u.
FOLD_SHAPES = {
    "tiny": dict(input_dim=6, hidden_dims=(16, 8), num_classes=2, delta=8),
    "tiny_no_bn": dict(input_dim=6, hidden_dims=(16, 8), num_classes=2, delta=8, use_batchnorm=False),
    "tiny_scalar_u": dict(input_dim=6, hidden_dims=(16, 8), num_classes=2, delta=8, scalar_uncertainty=True),
    "desk": dict(input_dim=16, hidden_dims=(64, 32), num_classes=3, delta=32),
    "image": dict(input_dim=784, hidden_dims=(256, 128), num_classes=10, delta=32),
}


def frozen(values) -> np.ndarray:
    """A read-only float64 copy of ``values``, as the package keeps its weights."""
    array = np.array(values, dtype=np.float64)
    array.setflags(write=False)
    return array


def trained_like(shape: str) -> ModelParams:
    """Parameters of ``shape`` with every weight and running statistic moved
    off its initial value, so that no batchnorm is the identity."""
    params = init_params(model_arch(**FOLD_SHAPES[shape]), RngStream(0))
    rng = np.random.default_rng(zlib.crc32(shape.encode()))
    for name, t in params.weights.items():
        noise = rng.standard_normal(t.shape)
        if name.endswith(".w"):
            params.weights[name] = frozen(noise / np.sqrt(t.shape[0]))
        else:  # biases and betas near 0, gammas near 1
            params.weights[name] = frozen(float(name.endswith(".gamma")) + 0.2 * noise)
    for name, t in params.bn_state.items():
        noise = rng.standard_normal(t.shape)
        params.bn_state[name] = frozen(np.exp(0.5 * noise) if name.endswith(".var") else 0.3 * noise)
    return params


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
    """The batch size of every backbone run: each graph-free eval forward
    (``FoldedModel.run``: eval_pass chunks, ODIN's perturbed inputs,
    eval_logits and predict_classes) and each graph ``model.forward``."""
    calls = []
    for owner, name in ((uenl.model.FoldedModel, "run"), (uenl.model, "forward"), (uenl.scoring, "forward")):
        original = getattr(owner, name)

        def counted(*args, original=original, **kwargs):
            calls.append(len(args[1]))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.fixture()
def small_params():
    """Fresh random small model (3 classes, 5 inputs, 8-dim head)."""
    return init_params(model_arch(5, (12, 6), 3, delta=8, dropout=0.0), RngStream(99))


def uenl_terms(total):
    """(CE, unweighted KL, per-sample u_hat) of a ``uenl_total`` graph, read
    from the attrs of its tempered_ce, kl and resample nodes. The KL is None
    at kl weight 0, where the total is the CE node itself."""
    ce_node, kl_node = total.parents if total.op == "add" else (total, None)
    kl_term = None if kl_node is None else kl_node.attrs["kl"]
    return ce_node.attrs["ce"], kl_term, ce_node.parents[1].attrs["uhat"].ravel()


def awkward_rows(seed: int, n: int, k: int) -> np.ndarray:
    """(n, k) rows that row reductions can get wrong: magnitudes from 1e-30
    to 1e30 of either sign, about a fifth +0.0 or -0.0, a column repeated in
    every third row (ties), and every seventh row all equal."""
    rng = np.random.default_rng(seed)
    a = rng.choice([-1.0, 1.0], (n, k)) * 10.0 ** rng.uniform(-30.0, 30.0, (n, k))
    u = rng.random((n, k))
    a[u < 0.1], a[(u >= 0.1) & (u < 0.2)] = 0.0, -0.0
    a[::3, -1] = a[::3, 0]
    a[::7] = a[::7, :1]
    return a


def random_scores(rng: np.random.Generator, n: int, m: int, ties: bool | str):
    """A random (id, ood) score pair; integer grids force heavy ties. With
    ``ties="few"`` the grids are {0, 1, 2} and {-1, 0, 1}, so most scores tie
    with scores of both sets."""
    if ties == "few":
        id_s = rng.integers(0, 3, size=n).astype(np.float64)
        ood_s = rng.integers(-1, 2, size=m).astype(np.float64)
    elif ties:
        id_s = rng.integers(0, 8, size=n).astype(np.float64)
        ood_s = rng.integers(-2, 6, size=m).astype(np.float64)
    else:
        id_s = rng.standard_normal(n) + 0.8
        ood_s = rng.standard_normal(m)
    return id_s, ood_s


WRITE_FAULTS = ("write", "interrupt", "replace")


def fail_third_file(monkeypatch, fault: str) -> type[BaseException]:
    """Make the next ``harness.write_files`` call fail, and return the
    exception type it raises. ``"write"`` and ``"interrupt"`` let the third
    file it opens take half of its first chunk and then raise a full disk's
    OSError or a KeyboardInterrupt. ``"replace"`` refuses every rename, so
    the call fails once all of its files are complete."""
    import uenl.harness as harness

    error = KeyboardInterrupt() if fault == "interrupt" else OSError(28, "No space left on device")
    if fault == "replace":

        def refuse(self, target):
            raise error

        monkeypatch.setattr(Path, "replace", refuse)
        return type(error)

    class HalfWrite:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            raise error

    opened = []

    def open_third_half(*args, **kwargs):
        fh = open(*args, **kwargs)
        opened.append(args[0])
        return HalfWrite(fh) if len(opened) == 3 else fh

    monkeypatch.setattr(harness, "open", open_third_half, raising=False)
    return type(error)
