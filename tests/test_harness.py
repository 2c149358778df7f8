"""Tests for dataset assembly, training, evaluation, sweeps, and checkpoints."""

import base64
import json
import struct
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from conftest import V1_CHECKPOINT, WRITE_FAULTS, fail_third_file, frozen, tiny_experiment_config
from gradcheck import compare_gradient
from oracles import batch_loss, graph_eval_pass, odin_from_pass
from uenl.config import load_config
from uenl.data import Dataset, Normalization, batch_iter, standardize
from uenl.harness import (
    Checkpoint,
    _train_step,
    build_datasets,
    build_raw_datasets,
    evaluate,
    scores_csv_to_histograms,
    sweep,
    train,
    write_files,
    write_sweep_csv,
)
from uenl.metrics import error_rate
from uenl.model import (
    ModelParams,
    eval_logits,
    forward,
    init_params,
    param_leaves,
    param_shapes,
    predict_classes,
    uncertainty_forward,
)
from uenl.optim import OptState, sgd_step
from uenl.rng import RngStream, derive_seed
from uenl.scoring import energy_score, msp_score
from uenl.tensor import apply, backward, kl, leaf, matmul, reduce_sum


class TestBuildDatasets:
    def test_train_split_standardized(self, tiny_bundle):
        feats = tiny_bundle.id_train.features
        assert np.abs(feats.mean(axis=0)).max() < 1e-10
        assert np.abs(feats.std(axis=0) - 1.0).max() < 1e-10

    def test_test_and_ood_use_train_stats(self, tiny_bundle):
        cfg = tiny_experiment_config()
        train_raw, test_raw, ood_raw, _ = build_raw_datasets(cfg)
        stats = tiny_bundle.stats
        expected = (test_raw.features - stats.mean) / stats.std
        assert_array_equal(tiny_bundle.id_test.features, expected)
        expected_ood = (ood_raw["uniform"].features - stats.mean) / stats.std
        assert_array_equal(tiny_bundle.ood["uniform"].features, expected_ood)

    def test_statistics_fitted_once(self, monkeypatch):
        fitted = []
        original = Normalization.fit

        def counted(cls, features):
            fitted.append(features.shape)
            return original(features)

        monkeypatch.setattr(Normalization, "fit", classmethod(counted))
        build_datasets(tiny_experiment_config())
        assert fitted == [(300, 6)]  # the raw ID-train split, once

    def test_clip_range_is_train_feature_range(self, tiny_bundle):
        assert tiny_bundle.clip_range == tiny_bundle.id_train.feature_range()

    def test_noise_ood_mimics_standardized_train(self, tiny_bundle):
        # Noise is drawn with raw train moments, so after standardization it
        # sits near N(0, 1) pooled over all entries.
        noise = tiny_bundle.ood["gaussian_noise"].features
        assert abs(noise.mean()) < 0.15
        assert abs(noise.std() - 1.0) < 0.15

    def test_missing_data_section(self):
        cfg = replace(tiny_experiment_config(), data=None)
        with pytest.raises(ValueError, match="no data section"):
            build_datasets(cfg)

    # The config rejects both mismatches when it loads, before any build.
    def test_class_count_mismatch(self):
        with pytest.raises(ValueError, match="num_classes"):
            tiny_experiment_config(backbone={"input_dim": 6, "hidden_dims": [16, 8], "num_classes": 3})

    def test_input_dim_mismatch(self):
        with pytest.raises(ValueError, match="dim"):
            tiny_experiment_config(backbone={"input_dim": 7, "hidden_dims": [16, 8], "num_classes": 2})

    def test_label_outside_model_classes(self, tmp_path):
        path = tmp_path / "id.csv"
        path.write_text("x1,x2,x3,x4,x5,x6,label\n0,0,0,0,0,0,3\n1,1,1,1,1,1,1\n", encoding="utf-8")
        cfg = tiny_experiment_config(
            data={"id": {"kind": "csv", "train": str(path), "test": str(path)}, "ood": []}
        )
        with pytest.raises(ValueError, match="label 3"):
            build_datasets(cfg)

    def test_id_file_width_mismatch_names_split(self, tmp_path):
        path = tmp_path / "id.csv"
        path.write_text("x1,x2,label\n0,0,1\n1,1,2\n", encoding="utf-8")
        cfg = tiny_experiment_config(data={"id": {"kind": "csv", "train": str(path), "test": str(path)}, "ood": []})
        with pytest.raises(ValueError, match="ID split 'id_train' is 2-dimensional, model expects 6"):
            build_datasets(cfg)

    def test_ood_dim_mismatch_names_set(self, tmp_path):
        path = tmp_path / "ood.csv"
        path.write_text("x1,x2\n0.5,0.5\n", encoding="utf-8")
        cfg = tiny_experiment_config()
        d = cfg.to_dict()
        d["data"]["ood"] = [{"kind": "csv", "name": "narrow", "path": str(path)}]
        from uenl.config import ExperimentConfig

        with pytest.raises(ValueError, match="narrow"):
            build_datasets(ExperimentConfig.from_dict(d))


SHIPPED_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "desk_synthetic.json"
# The 784-d, 10-class image-scale data of the benchmark's image workload.
IMAGE_OVERRIDES = [
    "backbone.input_dim=784",
    "backbone.hidden_dims=[256,128]",
    "backbone.num_classes=10",
    "data.id.dim=784",
    "data.id.num_classes=10",
    "data.id.n_train_per_class=100",
    "data.id.n_test_per_class=100",
    *(f"data.ood[{i}].n=1000" for i in range(3)),
]


def _feature_bytes(bundle) -> int:
    return sum(ds.features.nbytes for ds in (bundle.id_train, bundle.id_test, *bundle.ood.values()))


class TestOneCopy:
    """``build_datasets`` standardizes each set in place as soon as it is
    built: set-up holds one copy of the data, with the same bits as
    standardizing the raw sets into new arrays."""

    @pytest.mark.parametrize("overrides", [[], IMAGE_OVERRIDES], ids=["shipped", "image"])
    def test_same_bits_as_standardizing_the_raw_sets(self, overrides):
        config = load_config(SHIPPED_CONFIG, overrides)
        bundle = build_datasets(config)
        train, test, ood, stats = build_raw_datasets(config)
        assert stats.mean.tobytes() == bundle.stats.mean.tobytes()
        assert stats.std.tobytes() == bundle.stats.std.tobytes()
        pairs = [(bundle.id_train, train), (bundle.id_test, test), *((bundle.ood[name], ds) for name, ds in ood.items())]
        assert list(bundle.ood) == list(ood) == [spec.name for spec in config.data.ood]
        for built, raw in pairs:
            assert built.features.tobytes() == ((raw.features - stats.mean) / stats.std).tobytes()
            assert not built.features.flags.writeable

    @staticmethod
    def traced_peak_ratio(config) -> float:
        """Peak traced allocation during ``build_datasets(config)`` over the
        feature bytes of the bundle it returns."""
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            bundle = build_datasets(config)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()
        return peak / _feature_bytes(bundle)

    def test_synthetic_peak_is_one_copy(self):
        # All three synthetic OOD kinds.
        config = load_config(SHIPPED_CONFIG, IMAGE_OVERRIDES)
        assert sorted(spec.kind for spec in config.data.ood) == ["gaussian_noise", "shifted_gaussian", "uniform"]
        assert self.traced_peak_ratio(config) <= 1.25

    def test_idx_peak_is_one_copy(self, tmp_path):
        # Sized like the image workload: 1000 rows per ID split and per OOD
        # set. Standardizing each set into a new array reads ~2.
        rng = np.random.default_rng(28)
        paths = {}
        for split in ("train", "test", "ood_a", "ood_b", "ood_c"):
            paths[split] = tmp_path / f"{split}.idx"
            labels = rng.integers(0, 10, size=1000).astype(np.uint8) if split in ("train", "test") else None
            _write_idx(paths[split], rng.integers(0, 256, size=(1000, 28, 28)).astype(np.uint8), labels)
        spec = {
            "kind": "idx",
            **{f"{split}_{what}": str(paths[split].with_suffix(suffix))
               for split in ("train", "test") for what, suffix in (("images", ".idx"), ("labels", ".labels"))},
        }
        ood = [{"kind": "idx", "name": name, "images": str(paths[name])} for name in ("ood_a", "ood_b", "ood_c")]
        overrides = ["backbone.input_dim=784", "backbone.num_classes=10", f"data.id={json.dumps(spec)}", f"data.ood={json.dumps(ood)}"]
        assert self.traced_peak_ratio(load_config(SHIPPED_CONFIG, overrides)) <= 1.25

    def test_in_place_reuses_the_array_with_the_same_bits(self):
        rng = np.random.default_rng(14)
        ds = Dataset("d", rng.normal(3.0, 2.0, size=(20, 3)), np.arange(1, 21))
        stats = Normalization.fit(ds.features)
        expected = (ds.features - stats.mean) / stats.std
        array = ds.features
        out = standardize(ds, stats)
        assert out.features is array and not array.flags.writeable
        assert out.features.tobytes() == expected.tobytes()
        assert out.name == "d" and out.labels.tolist() == list(range(1, 21))

    def test_in_place_overflow_is_an_error_and_leaves_the_array_read_only(self):
        ds = Dataset("d", np.array([[1e308], [-1e308]]))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            standardize(ds, Normalization(np.array([-1e308]), np.array([1.0])))
        assert not ds.features.flags.writeable


def _write_idx(path: Path, images: np.ndarray, labels: np.ndarray | None = None) -> None:
    """``images`` (n, rows, cols) uint8 as an IDX image file at ``path``, and
    0-based ``labels`` as an IDX label file next to it."""
    path.write_bytes(struct.pack(">4I", 0x00000803, *images.shape) + images.tobytes())
    if labels is not None:
        path.with_suffix(".labels").write_bytes(struct.pack(">2I", 0x00000801, len(labels)) + labels.tobytes())


class TestIdxConfig:
    """The ``kind: "idx"`` ID and OOD specs, end to end on a tiny synthetic
    IDX set: 4x4 images of 3 classes (each a bright quadrant over noise) and
    an IDX OOD file of plain noise."""

    def test_build_train_evaluate(self, tmp_path):
        rng = np.random.default_rng(26)

        def images(labels):
            pixels = rng.integers(0, 96, size=(len(labels), 4, 4))
            for i, c in enumerate(labels):
                pixels[i, 2 * (c // 2) : 2 * (c // 2) + 2, 2 * (c % 2) : 2 * (c % 2) + 2] += 128
            return pixels.astype(np.uint8)

        paths = {}
        for split, n in (("train", 300), ("test", 90)):
            labels = np.arange(n, dtype=np.uint8) % 3
            paths[split] = tmp_path / f"{split}.idx"
            _write_idx(paths[split], images(labels), labels)
        _write_idx(tmp_path / "noise.idx", rng.integers(0, 256, size=(60, 4, 4)).astype(np.uint8))
        cfg = tiny_experiment_config().to_dict()
        cfg.update(epochs=2, backbone={"input_dim": 16, "hidden_dims": [8], "num_classes": 3})
        cfg["data"] = {
            "id": {
                "kind": "idx",
                **{f"{split}_{what}": str(paths[split].with_suffix(suffix))
                   for split in ("train", "test") for what, suffix in (("images", ".idx"), ("labels", ".labels"))},
            },
            "ood": [{"kind": "idx", "name": "noise", "images": str(tmp_path / "noise.idx")}],
        }
        config_path = tmp_path / "idx.json"
        config_path.write_text(json.dumps(cfg), encoding="utf-8")
        config = load_config(config_path)

        bundle = build_datasets(config)
        assert (len(bundle.id_train), len(bundle.id_test), len(bundle.ood["noise"])) == (300, 90, 60)
        assert bundle.id_train.dim == bundle.ood["noise"].dim == 16
        assert sorted(set(bundle.id_test.labels.tolist())) == [1, 2, 3]
        checkpoint = train(config, bundle)
        assert len(checkpoint.train_loss) == 2
        report = evaluate(checkpoint, bundle)
        assert [(m, d) for m, d, _ in report.metric_rows] == [(m, "noise") for m in config.scoring.methods]
        assert report.n_id_test == 90 and 0.0 <= report.id_error_rate <= 1.0
        for score_set in report.score_sets:
            assert score_set.id_scores.shape == (90,) and score_set.ood_scores["noise"].shape == (60,)
            assert np.isfinite(score_set.id_scores).all() and np.isfinite(score_set.ood_scores["noise"]).all()


class TestTrain:
    def test_separable_problem_reaches_high_accuracy(self, tiny_checkpoint):
        assert tiny_checkpoint.test_error[-1] <= 0.01

    def test_loss_decreases(self, tiny_checkpoint):
        assert tiny_checkpoint.train_loss[-1] < tiny_checkpoint.train_loss[0]
        assert len(tiny_checkpoint.train_loss) == tiny_checkpoint.config.epochs
        assert len(tiny_checkpoint.test_error) == tiny_checkpoint.config.epochs

    def test_determinism_byte_identical(self):
        cfg = tiny_experiment_config(epochs=4)
        a = train(cfg)
        b = train(tiny_experiment_config(epochs=4))
        assert a.to_json() == b.to_json()

    def test_uncertainty_stays_bounded(self, tiny_checkpoint, tiny_bundle):
        """With the KL pull toward 1 at lambda=0.1, per-dim u stays in (0.01, 100)
        and the final KL term is finite."""
        model = tiny_checkpoint.params().fold()
        fo = forward(model, tiny_bundle.id_test.features)
        head = uncertainty_forward(model, fo.embedding)
        u = head.u.value
        assert u.min() > 0.01 and u.max() < 100.0
        kl_term = kl(head.u, "variance").item()
        assert np.isfinite(kl_term)

    def test_non_finite_loss_abort_names_epoch_and_batch(self):
        cfg = tiny_experiment_config(epochs=3, weight_decay=1e8)
        with pytest.raises(RuntimeError, match=r"epoch \d+, batch \d+"):
            train(cfg)

    def test_kl_form_std_trains_end_to_end_at_small_lr(self, tmp_path):
        # The std form's KL slope u - 1/u has no bound as u -> 0; at lr 0.01
        # the tiny problem still trains every epoch (at 0.1 it cannot, see
        # test_cli's TestTrain).
        checkpoint = train(tiny_experiment_config(kl_form="std", lr=0.01))
        assert len(checkpoint.train_loss) == checkpoint.config.epochs == 20
        assert np.isfinite(checkpoint.train_loss).all()
        path = tmp_path / "std.ckpt.json"
        checkpoint.save(path)
        loaded = Checkpoint.load(path)
        assert loaded.config.kl_form == "std"
        assert loaded.to_json() == checkpoint.to_json()

    def test_bn_state_disjoint_from_weights(self, tiny_checkpoint):
        weights = set(tiny_checkpoint.weights)
        bn = set(tiny_checkpoint.bn_state)
        assert not weights & bn
        assert all(k.endswith((".bn.mean", ".bn.var")) for k in bn)

    def test_final_epoch_is_last_without_selection(self, tiny_checkpoint):
        assert tiny_checkpoint.final_epoch == tiny_checkpoint.config.epochs - 1

    def test_progress_callback(self):
        seen = []
        train(tiny_experiment_config(epochs=2), progress=lambda e, loss, err: seen.append((e, loss, err)))
        assert [e for e, _, _ in seen] == [0, 1]
        assert all(np.isfinite(loss) and 0.0 <= err <= 1.0 for _, loss, err in seen)


def _graph_nodes(*outputs) -> set:
    """The non-leaf nodes reachable from ``outputs``, by identity."""
    nodes, seen, stack = [], set(), list(outputs)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if node.parents:
                nodes.append(node)
            stack.extend(node.parents)
    return {id(n): n for n in nodes}


class TestTrainStepGraph:
    """The loss graph of a train step, as ``oracles.batch_loss`` builds it
    from the public model and objective functions."""

    def _step(self, config, monkeypatch=None):
        """One train step's loss graph, and the backbone and head outputs
        it was built on."""
        built = []
        if monkeypatch is not None:
            import uenl.model as model

            for name in ("forward", "uncertainty_forward"):
                def recording(*args, _original=getattr(model, name), **kwargs):
                    built.append(_original(*args, **kwargs))
                    return built[-1]

                monkeypatch.setattr(model, name, recording)
        bundle = build_datasets(config)
        root = RngStream(config.seed)
        params = init_params(config, root)
        batch = next(iter(batch_iter(bundle.id_train, config.batch_size, config.seed, 0)))
        total, _ = batch_loss(
            params, batch.features, batch.labels,
            root.substream("dropout"), root.substream("resample"), param_leaves(params),
        )
        return total, built

    def test_desk_step_builds_8_nodes_4_of_them_dense(self):
        """One train step on the shipped desk config: each of the four model
        layers (two hidden, the logits and the head) is a single dense node,
        and so are the resampling, the cross-entropy, the KL term and their
        sum."""
        total, _ = self._step(load_config(SHIPPED_CONFIG))
        ops = Counter(node.op for node in _graph_nodes(total).values())
        assert ops == {"dense": 4, "resample": 1, "tempered_ce": 1, "kl": 1, "add": 1}, ops
        layers = sorted(node.attrs["name"] for node in _graph_nodes(total).values() if node.op == "dense")
        assert layers == ["backbone.h0", "backbone.h1", "backbone.out", "head"]

    @pytest.mark.parametrize(
        "method",
        [
            {"method": "ce"},
            {"method": "logitnorm"},
            {"pinned_uhat": 0.04},
            {"method": "uenl"},
        ],
        ids=["ce", "logitnorm", "pinned_uhat", "uenl"],
    )
    def test_loss_adds_at_most_4_nodes(self, method, monkeypatch):
        """Whatever the method, the objective adds at most four nodes to
        the backbone and head graphs it reads."""
        config = replace(load_config(SHIPPED_CONFIG), **method)
        total, built = self._step(config, monkeypatch)
        model_outputs = [out.logits if hasattr(out, "logits") else out.u for out in built]
        loss_nodes = _graph_nodes(total).keys() - _graph_nodes(*model_outputs).keys()
        assert 1 <= len(loss_nodes) <= 4, sorted(_graph_nodes(total)[i].op for i in loss_nodes)


def _moved_params(config, seed: int = 3) -> ModelParams:
    """Fresh parameters for ``config`` with every weight and running
    statistic moved off its initial value, so that no gradient is zero or
    equal to another by the symmetry of the start (the head starts at 0)."""
    params = init_params(config, RngStream(config.seed))
    rng = np.random.default_rng(seed)
    weights = {name: frozen(t + 0.3 * rng.standard_normal(t.shape)) for name, t in params.weights.items()}
    bn_state = {name: frozen(np.abs(t + 0.3 * rng.standard_normal(t.shape))) for name, t in params.bn_state.items()}
    return ModelParams(config, weights, bn_state)


def _copy(params: ModelParams) -> ModelParams:
    return ModelParams(params.config, dict(params.weights), dict(params.bn_state))


class TestTrainStep:
    """``harness._train_step`` runs the loss graph's primitives with no graph:
    its loss, weight gradients and batchnorm updates are the graph's
    (``oracles.batch_loss`` and ``backward``) bit for bit."""

    DESK_VARIANTS = {
        "uenl": [],
        "lambda_0": ["lambda=0"],
        "kl_std": ['kl_form="std"'],
        "scalar_uncertainty": ["scalar_uncertainty=true"],
        "pinned_uhat": ["pinned_uhat=0.04"],
        "pinned_uhat_lambda_0": ["pinned_uhat=0.04", "lambda=0"],
        "logitnorm": ['method="logitnorm"'],
        "ce": ['method="ce"'],
        "batchnorm_off": ["backbone.use_batchnorm=false"],
        "dropout_0": ["dropout=0"],
    }

    @pytest.mark.parametrize("overrides", DESK_VARIANTS.values(), ids=DESK_VARIANTS.keys())
    def test_equals_the_graph_bit_for_bit(self, overrides):
        """On the desk config's first batch of 128 rows and its last of 92,
        which leaves the second 64-row block short."""
        config = load_config(SHIPPED_CONFIG, overrides)
        bundle = build_datasets(config)
        params = _moved_params(config)
        batches = list(batch_iter(bundle.id_train, config.batch_size, config.seed, 0))
        assert [len(batches[0].labels), len(batches[-1].labels)] == [128, 92]
        for batch in (batches[0], batches[-1]):
            graph, step = _copy(params), _copy(params)
            leaves = param_leaves(graph)
            total, updates = batch_loss(
                graph, batch.features, batch.labels,
                RngStream(5).substream("dropout"), RngStream(5).substream("resample"), leaves,
            )
            want = backward(total, wrt=list(leaves.values()))
            loss, grads = _train_step(
                step, batch.features, batch.labels, RngStream(5).substream("dropout"), RngStream(5).substream("resample")
            )
            assert loss.hex() == total.item().hex()
            assert list(grads) == list(leaves)
            for name, node in leaves.items():
                if node not in want:
                    assert grads[name] is None, name
                else:
                    assert grads[name].shape == want[node].shape, name
                    assert grads[name].tobytes() == want[node].tobytes(), name
            expected_bn = {**params.bn_state, **updates}
            assert list(step.bn_state) == list(expected_bn)
            for name, t in expected_bn.items():
                assert step.bn_state[name].tobytes() == t.tobytes(), name
                assert not step.bn_state[name].flags.writeable
            assert graph.bn_state == params.bn_state

    def test_weight_gradients_match_finite_differences(self):
        """Criterion 1's 1e-5 on the path that trains: every weight gradient
        of a step on the tiny config, dropout on, against central
        differences of the step's own loss."""
        config = tiny_experiment_config(dropout=0.2)
        batch = next(iter(batch_iter(build_datasets(config).id_train, config.batch_size, config.seed, 0)))
        params = _moved_params(config)

        def loss_at(name):
            def value(w):
                moved = _copy(params)
                moved.weights[name] = frozen(w)
                return _train_step(moved, batch.features, batch.labels, RngStream(5), RngStream(6))[0]

            return value

        _, grads = _train_step(_copy(params), batch.features, batch.labels, RngStream(5), RngStream(6))
        for name, t in params.weights.items():
            result = compare_gradient(loss_at(name), t, grads[name])
            assert result.max_rel_err < 1e-5, (name, result.max_rel_err)
            assert result.n_checked >= t.size // 2, name

    def test_non_finite_running_variance_is_the_graph_error(self):
        """A column whose values overflow when squared gives an infinite batch
        variance but finite normalized values: the step stops at the running
        statistic with the graph's error, which names the layer."""
        config = replace(load_config(SHIPPED_CONFIG), dropout=0.0)
        params = _moved_params(config)
        xb = np.full((8, 16), 1e200) * np.array([1.0, -1.0] * 4)[:, None]
        yb = np.arange(8) % 3 + 1
        with pytest.raises(FloatingPointError) as graph_error:
            batch_loss(_copy(params), xb, yb, RngStream(5), RngStream(6), param_leaves(params))
        with pytest.raises(FloatingPointError) as step_error:
            _train_step(_copy(params), xb, yb, RngStream(5), RngStream(6))
        assert str(step_error.value) == str(graph_error.value) == "backbone.h0.bn: non-finite running var"

    def test_an_overflowing_dropout_product_names_its_layer(self):
        """A finite relu output times the dropout mask's 2.0 overflows: the
        step and the graph stop at that layer with the same error."""
        config = load_config(SHIPPED_CONFIG, ["backbone.use_batchnorm=false", "dropout=0.5"])
        params = _moved_params(config)
        w = params.weights["backbone.h0.w"]
        params.weights["backbone.h0.w"] = frozen(np.full(w.shape, 1e308 / w.shape[0]))
        params.weights["backbone.h0.b"] = frozen(np.zeros(w.shape[1]))
        xb, yb = np.ones((8, w.shape[0])), np.arange(8) % 3 + 1
        message = "^backbone.h0: dense produced non-finite values$"
        with pytest.raises(FloatingPointError, match=message):
            _train_step(_copy(params), xb, yb, RngStream(5), RngStream(6))
        with pytest.raises(FloatingPointError, match=message):
            batch_loss(_copy(params), xb, yb, RngStream(5), RngStream(6), param_leaves(params))


class TestSelectBestValidation:
    def test_deterministic(self):
        cfg = dict(epochs=5, select_best_validation=True)
        a = train(tiny_experiment_config(**cfg))
        b = train(tiny_experiment_config(**cfg))
        assert a.to_json() == b.to_json()

    def test_validation_does_not_perturb_training(self):
        """Scoring the noise validation set consumes no training randomness, so
        a one-epoch run matches the unselected run weight for weight."""
        a = train(tiny_experiment_config(epochs=1, select_best_validation=True))
        b = train(tiny_experiment_config(epochs=1))
        assert set(a.weights) == set(b.weights)
        for name in a.weights:
            assert_array_equal(a.weights[name], b.weights[name])
        for name in a.bn_state:
            assert_array_equal(a.bn_state[name], b.bn_state[name])
        assert a.final_epoch == 0

    def test_final_epoch_recorded_in_range(self):
        ck = train(tiny_experiment_config(epochs=5, select_best_validation=True))
        assert 0 <= ck.final_epoch <= 4
        assert ck.config.select_best_validation is True


    def test_returns_the_best_epochs_weights(self, monkeypatch):
        """The best epoch's weights come back bit for bit, although training
        went on after it: no step changes the weights an earlier one returned."""
        import uenl.harness as harness

        aurocs = iter([0.2, 0.9, 0.4, 0.3])
        latest = {}

        def recording_step(*args, **kwargs):
            latest["weights"] = original(*args, **kwargs)
            return latest["weights"]

        original = harness.sgd_step
        monkeypatch.setattr(harness, "sgd_step", recording_step)
        monkeypatch.setattr(harness, "auroc", lambda s_id, s_ood: next(aurocs))
        at_epoch = {}

        def progress(epoch, loss, err):
            at_epoch[epoch] = {name: t.copy() for name, t in latest["weights"].items()}

        ck = train(tiny_experiment_config(epochs=4, select_best_validation=True), progress=progress)
        assert ck.final_epoch == 1
        assert list(ck.weights) == list(at_epoch[1])
        for name, t in ck.weights.items():
            assert t.tobytes() == at_epoch[1][name].tobytes()
            assert not t.flags.writeable
        assert any(not np.array_equal(at_epoch[1][name], at_epoch[3][name]) for name in at_epoch[1])


class TestEvaluate:
    @pytest.mark.parametrize("bins, got", [(2.7, "number 2.7"), (True, "boolean true")], ids=["float", "bool"])
    def test_histogram_bins_must_be_an_integer(self, tiny_checkpoint, tiny_bundle, bins, got):
        with pytest.raises(ValueError, match=f"^histogram_bins: expected integer, got {got}$"):
            evaluate(tiny_checkpoint, tiny_bundle, histogram_bins=bins)

    def test_identical_sets_score_near_half(self, tiny_checkpoint, tiny_bundle):
        """The same distribution on both sides is undetectable: subsampled
        halves of one large ID draw give AUROC about 0.5."""
        cfg = tiny_checkpoint.config.data.id
        big, _ = replace(cfg, n_train_per_class=500, seed=777).build()
        std = standardize(big, tiny_bundle.stats)
        feats, labels = std.features, std.labels
        # Rows are blocked by class, so interleave to keep both halves on the
        # same class mixture.
        bundle_same = type(tiny_bundle)(
            id_train=tiny_bundle.id_train,
            id_test=Dataset("id_test", feats[0::2], labels[0::2]),
            ood={"other_half": Dataset("other_half", feats[1::2])},
            stats=tiny_bundle.stats,
            clip_range=tiny_bundle.clip_range,
        )
        report = evaluate(tiny_checkpoint, bundle_same, methods=("msp",))
        (_, _, metrics) = report.metric_rows[0]
        assert abs(metrics.auroc - 0.5) <= 0.05

    def test_row_per_method_and_ood_set(self, tiny_checkpoint, tiny_bundle):
        report = evaluate(tiny_checkpoint, tiny_bundle)
        methods = tiny_checkpoint.config.scoring.methods
        assert len(report.metric_rows) == len(methods) * len(tiny_bundle.ood)
        assert {(m, d) for m, d, _ in report.metric_rows} == {
            (m, d) for m in methods for d in tiny_bundle.ood
        }

    def test_mean_row_is_arithmetic_mean_exact(self, tiny_checkpoint, tiny_bundle):
        report = evaluate(tiny_checkpoint, tiny_bundle)
        for method in tiny_checkpoint.config.scoring.methods:
            rows = [r for m, _, r in report.metric_rows if m == method]
            means = report.mean_metrics(method)
            assert means["auroc"] == np.mean([r.auroc for r in rows])
            assert means["fpr95"] == np.mean([r.fpr95 for r in rows])
            assert means["aupr"] == np.mean([r.aupr for r in rows])

    def test_method_subset_and_bins_override(self, tiny_checkpoint, tiny_bundle):
        report = evaluate(tiny_checkpoint, tiny_bundle, methods=("msp", "energy"), histogram_bins=5)
        assert {m for m, _, _ in report.metric_rows} == {"msp", "energy"}
        # one histogram per dataset per method, 5 bins each
        assert len(report.histograms) == 2 * (1 + len(tiny_bundle.ood)) * 5

    def test_histograms_share_span_per_method(self, tiny_checkpoint, tiny_bundle):
        report = evaluate(tiny_checkpoint, tiny_bundle, methods=("msp",), histogram_bins=4)
        by_dataset = {}
        for dataset, method, left, right, count in report.histograms:
            by_dataset.setdefault(dataset, []).append((left, right))
        spans = {(min(l for l, _ in v), max(r for _, r in v)) for v in by_dataset.values()}
        assert len(spans) == 1

    def test_unknown_method_rejected(self, tiny_checkpoint, tiny_bundle):
        with pytest.raises(ValueError, match="mahalanobis"):
            evaluate(tiny_checkpoint, tiny_bundle, methods=("mahalanobis",))

    def test_no_ood_sets_rejected(self, tiny_checkpoint, tiny_bundle):
        empty = type(tiny_bundle)(
            id_train=tiny_bundle.id_train,
            id_test=tiny_bundle.id_test,
            ood={},
            stats=tiny_bundle.stats,
            clip_range=tiny_bundle.clip_range,
        )
        with pytest.raises(ValueError, match="OOD"):
            evaluate(tiny_checkpoint, empty)

    def test_write_emits_all_csvs(self, tiny_checkpoint, tiny_bundle, tmp_path):
        report = evaluate(tiny_checkpoint, tiny_bundle, methods=("msp",), histogram_bins=4)
        paths = report.write(tmp_path / "out")
        assert set(paths) == {"metrics", "accuracy", "scores", "histograms"}
        for p in paths.values():
            assert p.exists()
        accuracy = (tmp_path / "out" / "accuracy.csv").read_text(encoding="utf-8").splitlines()
        assert accuracy[0] == "dataset,n,error_rate,accuracy"
        _, n, err, acc = accuracy[1].split(",")
        assert int(n) == len(tiny_bundle.id_test)
        assert float(err) + float(acc) == 1.0
        scores_header = (tmp_path / "out" / "scores.csv").read_text(encoding="utf-8").splitlines()[0]
        assert scores_header == "dataset,sample_index,method,score"

    def test_mean_metrics_unknown_method(self, tiny_checkpoint, tiny_bundle):
        report = evaluate(tiny_checkpoint, tiny_bundle, methods=("msp",))
        with pytest.raises(KeyError, match="energy"):
            report.mean_metrics("energy")


def _sized_bundle(bundle, n_id, ood_sizes):
    """``bundle`` with an ID test set of ``n_id`` rows (resampled from its own)
    and one uniform-noise OOD set per entry of ``ood_sizes``."""
    rng = np.random.default_rng(n_id)
    rows = rng.integers(0, len(bundle.id_test), n_id)
    id_test = Dataset("id_test", bundle.id_test.features[rows], bundle.id_test.labels[rows])
    dim = id_test.dim
    ood = {f"ood{n}": Dataset(f"ood{n}", rng.uniform(-3.0, 3.0, (n, dim))) for n in ood_sizes}
    return type(bundle)(bundle.id_train, id_test, ood, bundle.stats, bundle.clip_range)


class TestOnePassEvaluate:
    """evaluate runs one chunked graph-free eval pass per dataset, and every
    method scores each chunk from it; ODIN adds an input gradient along the
    chunk's tape and one perturbed forward. Its outputs equal the public
    per-method scores, and ODIN's graph oracle, bit for bit."""

    @pytest.mark.parametrize("n", [1, 511, 512, 513, 1100])
    def test_scores_equal_public_references(self, tiny_checkpoint, tiny_bundle, n):
        bundle = _sized_bundle(tiny_bundle, n, [n])
        params = tiny_checkpoint.params()
        spec = tiny_checkpoint.config.scoring

        def reference(method, x):
            if method == "msp":
                return msp_score(eval_logits(params, x))
            if method == "energy":
                return energy_score(eval_logits(params, x), spec.energy_temperature)
            model = params.fold()
            if method == "odin":

                def odin(out, u_total):
                    return odin_from_pass(model, out, spec.odin_temperature, spec.odin_epsilon, bundle.clip_range)

                return np.concatenate(graph_eval_pass(model, x, odin))
            out = forward(model, x)
            return -np.sum(uncertainty_forward(model, out.embedding).u.value, axis=1)

        report = evaluate(tiny_checkpoint, bundle, methods=("msp", "energy", "odin", "uncertainty"))
        for score_set in report.score_sets:
            assert_array_equal(score_set.id_scores, reference(score_set.method, bundle.id_test.features))
            for name, ds in bundle.ood.items():
                assert_array_equal(score_set.ood_scores[name], reference(score_set.method, ds.features))
        want_error = error_rate(predict_classes(params, bundle.id_test.features), bundle.id_test.labels)
        assert report.id_error_rate == want_error

    def test_backbone_calls_per_chunk(self, tiny_checkpoint, tiny_bundle, backbone_calls):
        assert tiny_checkpoint.config.scoring.odin_epsilon > 0.0  # ODIN: one perturbed forward
        bundle = _sized_bundle(tiny_bundle, 513, [1, 512, 1100])
        chunks = sum(-(-len(ds) // 512) for ds in [bundle.id_test, *bundle.ood.values()])
        evaluate(tiny_checkpoint, bundle, methods=("msp", "energy", "odin", "uncertainty"))
        assert len(backbone_calls) == 2 * chunks
        backbone_calls.clear()
        evaluate(tiny_checkpoint, bundle, methods=("msp",))
        assert len(backbone_calls) == chunks

    def test_unperturbed_odin_runs_no_second_forward(self, tiny_checkpoint, tiny_bundle, backbone_calls):
        config = tiny_checkpoint.config
        checkpoint = replace(tiny_checkpoint, config=replace(config, scoring=replace(config.scoring, odin_epsilon=0.0)))
        bundle = _sized_bundle(tiny_bundle, 513, [1, 1100])
        datasets = [bundle.id_test, *bundle.ood.values()]
        report = evaluate(checkpoint, bundle, methods=("msp", "energy", "odin", "uncertainty"))
        assert len(backbone_calls) == sum(-(-len(ds) // 512) for ds in datasets)
        (odin,) = [s for s in report.score_sets if s.method == "odin"]
        model, spec = checkpoint.params().fold(), checkpoint.config.scoring
        for got, ds in zip([odin.id_scores, *odin.ood_scores.values()], datasets):
            want = odin_from_pass(model, forward(model, ds.features), spec.odin_temperature, 0.0, bundle.clip_range)
            assert_array_equal(got, want)

    def test_evaluate_builds_no_graph_node(self, tiny_checkpoint, tiny_bundle, monkeypatch):
        import uenl.tensor

        built, init = [], uenl.tensor.GraphNode.__init__

        def counted(self, *args, **kwargs):
            built.append(args[0])
            init(self, *args, **kwargs)

        monkeypatch.setattr(uenl.tensor.GraphNode, "__init__", counted)
        assert "odin" in tiny_checkpoint.config.scoring.methods
        evaluate(tiny_checkpoint, tiny_bundle)
        assert built == []
        forward(tiny_checkpoint.params().fold(), tiny_bundle.id_test.features[:2])
        assert built.count("dense") == 3  # the counter sees the graph pass

    def test_methods_checked_before_any_pass(self, tiny_checkpoint, tiny_bundle, backbone_calls):
        with pytest.raises(ValueError, match="bogus"):
            evaluate(tiny_checkpoint, tiny_bundle, methods=("msp", "bogus"))
        with pytest.raises(ValueError, match="at least one method"):
            evaluate(tiny_checkpoint, tiny_bundle, methods=())
        assert backbone_calls == []


class TestOneFoldPerDataset:
    """evaluate folds the model once per dataset; every chunk's forward and
    head, and ODIN's perturbed forward, run on that one FoldedModel."""

    def test_desk_evaluate_folds_each_layer_once_per_dataset(self, monkeypatch):
        from uenl.model import FoldedModel, ModelParams

        config = load_config(Path(__file__).resolve().parent.parent / "configs" / "desk_synthetic.json")
        bundle = build_datasets(config)
        params = init_params(config, RngStream(0))
        checkpoint = Checkpoint(config, params.weights, params.bn_state, 0)
        folds, runs = [], []
        fold, run = ModelParams.fold, FoldedModel.run

        def counted_fold(self):
            folds.append(fold(self))
            return folds[-1]

        def recorded(model, x, tape=None, head=True):
            runs.append((model, tape, head))
            return run(model, x, tape, head)

        monkeypatch.setattr(ModelParams, "fold", counted_fold)
        monkeypatch.setattr(FoldedModel, "run", recorded)
        evaluate(checkpoint, bundle)

        datasets = [bundle.id_test, *bundle.ood.values()]
        assert len(folds) == len(datasets) == 4
        # backbone.h0, backbone.h1, backbone.out and head: 16 layer folds in all.
        assert sum(len(m.arrays) // 2 for m in folds) == 16
        chunks = sum(-(-len(ds) // 512) for ds in datasets)
        assert config.scoring.odin_epsilon > 0.0  # so each chunk has a perturbed forward
        # Per chunk: one taped pass with the head, one perturbed pass without.
        assert sorted((tape is not None, head) for _, tape, head in runs) == [(False, False)] * chunks + [(True, True)] * chunks
        for model, tape, _ in runs:
            assert type(model) is FoldedModel and any(model is m for m in folds)
            # The tape holds the four layer calls, on the fold's own arrays,
            # and then ODIN's tempered_ce call.
            calls = [] if tape is None else tape.calls
            for _, _, values, _, attrs in calls[:4]:
                assert values[1] is model.arrays[f"{attrs['name']}.w"]
            names = ["backbone.h0", "backbone.h1", "backbone.out", "head"]
            assert tape is None or [(op, attrs.get("name")) for op, _, _, _, attrs in calls] == [
                *(("dense", name) for name in names), ("tempered_ce", None)
            ]
        # Each fold serves its own dataset's chunks: one forward and one
        # perturbed forward per chunk.
        used = [model for model, _, _ in runs]
        assert [sum(model is m for model in used) for m in folds] == [2 * -(-len(ds) // 512) for ds in datasets]


class TestMethodReductionIdentity:
    def test_pinned_uenl_equals_logitnorm(self):
        """UE-NL with lambda=0 and u-hat pinned to T builds the same loss graph
        as LogitNorm, so the traces and the trained weights match exactly."""
        T = 0.04
        pinned = train(
            tiny_experiment_config(epochs=4, **{"lambda": 0.0, "pinned_uhat": T, "temperature": T})
        )
        logitnorm = train(tiny_experiment_config(epochs=4, method="logitnorm", temperature=T))
        assert pinned.train_loss == logitnorm.train_loss
        assert pinned.test_error == logitnorm.test_error
        assert set(pinned.weights) == set(logitnorm.weights)
        for name in pinned.weights:
            assert_array_equal(pinned.weights[name], logitnorm.weights[name])
        for name in pinned.bn_state:
            assert_array_equal(pinned.bn_state[name], logitnorm.bn_state[name])


def _all_arrays(params) -> list[np.ndarray]:
    return [*params.weights.values(), *params.bn_state.values()]


def _stepped_bn_state(checkpoint):
    params, rng = checkpoint.params(), np.random.default_rng(0)
    x, y = rng.standard_normal((16, 6)), np.arange(16) % 2 + 1
    _train_step(params, x, y, RngStream(1), RngStream(2))
    return list(params.bn_state.values()), [x]


def _sgd_step_weights(checkpoint):
    params = init_params(checkpoint.config, RngStream(0))
    grads = {name: np.ones(a.shape) for name, a in params.weights.items()}
    state = OptState(param_shapes(checkpoint.config)[0], params.weights)
    return list(sgd_step(state, grads, lr=0.1).values()), list(grads.values())


def _folded_arrays(checkpoint):
    # Parameters as a caller might build them: every array a writeable copy.
    params = checkpoint.params()
    params.weights, params.bn_state = ({n: np.array(a) for n, a in d.items()} for d in (params.weights, params.bn_state))
    return list(params.fold().arrays.values()), _all_arrays(params)


def _graph_values(checkpoint):
    x = np.arange(6.0).reshape(2, 3)
    a, b = leaf(x), leaf(np.ones((3, 2)))
    loss = reduce_sum(matmul(a, b))
    values = [a.value, leaf(x.T).value, leaf(3).value, apply("add", a, a).value, loss.value]
    return [*values, *backward(loss).values()], [x]


# Each source of arrays the package keeps or returns: (its arrays, the
# writeable arrays a caller gave it).
READ_ONLY_SOURCES = {
    "init_params": lambda ck: (_all_arrays(init_params(ck.config, RngStream(0))), []),
    "checkpoint_v1": lambda ck: (_all_arrays(Checkpoint.from_json(V1_CHECKPOINT.read_text(encoding="utf-8"))), []),
    "checkpoint_v2": lambda ck: (_all_arrays(Checkpoint.from_json(ck.to_json())), []),
    "sgd_step": _sgd_step_weights,
    "train_step_bn_state": _stepped_bn_state,
    "folded_model": _folded_arrays,
    "leaf_apply_backward": _graph_values,
}


class TestReadOnlyArrays:
    """Weights, running statistics and graph values are plain float64
    arrays: C-contiguous and read-only wherever the package makes or keeps
    them, and a caller's writeable array is copied, never frozen."""

    @pytest.mark.parametrize("source", list(READ_ONLY_SOURCES))
    def test_float64_c_contiguous_and_read_only(self, tiny_checkpoint, source):
        arrays, given = READ_ONLY_SOURCES[source](tiny_checkpoint)
        assert arrays
        for a in arrays:
            assert type(a) is np.ndarray and a.dtype == np.float64
            assert a.flags.c_contiguous and not a.flags.writeable
        for x in given:
            assert x.flags.writeable
            assert not any(np.shares_memory(x, a) for a in arrays)


class TestCheckpointRoundTrip:
    def test_json_round_trip_byte_identical(self, tiny_checkpoint, tmp_path):
        path = tmp_path / "model.ckpt"
        tiny_checkpoint.save(path)
        loaded = Checkpoint.load(path)
        assert loaded.to_json() == tiny_checkpoint.to_json()

    def test_loaded_checkpoint_evaluates_identically(self, tiny_checkpoint, tiny_bundle, tmp_path):
        path = tmp_path / "model.ckpt"
        tiny_checkpoint.save(path)
        loaded = Checkpoint.load(path)
        a = evaluate(tiny_checkpoint, tiny_bundle)
        b = evaluate(loaded, tiny_bundle)
        assert a.id_error_rate == b.id_error_rate
        for (m1, d1, r1), (m2, d2, r2) in zip(a.metric_rows, b.metric_rows):
            assert (m1, d1) == (m2, d2)
            assert (r1.fpr95, r1.auroc, r1.aupr) == (r2.fpr95, r2.auroc, r2.aupr)
        for s1, s2 in zip(a.score_sets, b.score_sets):
            assert_array_equal(s1.id_scores, s2.id_scores)
            for name in s1.ood_scores:
                assert_array_equal(s1.ood_scores[name], s2.ood_scores[name])

    def test_unsupported_version_rejected(self, tiny_checkpoint):
        doc = json.loads(tiny_checkpoint.to_json())
        doc["version"] = 99
        with pytest.raises(ValueError, match="99"):
            Checkpoint.from_json(json.dumps(doc))

    def test_params_returns_copies(self, tiny_checkpoint):
        params = tiny_checkpoint.params()
        params.weights.clear()
        assert tiny_checkpoint.weights  # untouched

    def test_saves_version_2_base64(self, tiny_checkpoint):
        doc = json.loads(tiny_checkpoint.to_json())
        assert doc["version"] == 2
        for section, arrays in (("weights", tiny_checkpoint.weights), ("bn_state", tiny_checkpoint.bn_state)):
            for name, t in arrays.items():
                raw = base64.b64decode(doc[section][name]["data"], validate=True)
                assert raw == t.astype("<f8").tobytes()

    @pytest.mark.parametrize("form", ["v1", "v2"])
    def test_loaded_tensors_own_their_memory(self, tiny_checkpoint, form):
        text = V1_CHECKPOINT.read_text(encoding="utf-8") if form == "v1" else tiny_checkpoint.to_json()
        loaded = Checkpoint.from_json(text)
        for a in [*loaded.weights.values(), *loaded.bn_state.values()]:
            assert a.dtype == np.float64
            assert a.flags.owndata and a.flags.c_contiguous and not a.flags.writeable
            # The loader marks each array read-only. The memory itself must
            # be writable: numpy refuses this on a view of the decoded bytes.
            a.setflags(write=True)
            assert a.flags.writeable
            a.setflags(write=False)


class TestCheckpointSave:
    def test_writes_to_json_and_leaves_no_temporary_file(self, tiny_checkpoint, tmp_path):
        path = tmp_path / "model.ckpt"
        tiny_checkpoint.save(path)
        tiny_checkpoint.save(path)
        assert path.read_text(encoding="utf-8") == tiny_checkpoint.to_json()
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    @pytest.mark.parametrize("fault", ["write", "interrupt", "replace"])
    def test_failed_save_keeps_the_old_checkpoint(self, tiny_checkpoint, tmp_path, monkeypatch, fault):
        """A write that fails half way (a full disk, an interrupt) or a
        rename that fails leaves the old file's bytes and no temporary file."""
        import uenl.harness as harness

        path = tmp_path / "model.ckpt"
        old = tiny_checkpoint.to_json().replace('"final_epoch":', '"final_epoch" :').encode()
        path.write_bytes(old)
        error = KeyboardInterrupt() if fault == "interrupt" else OSError(28, "No space left on device")
        if fault == "replace":

            def refuse(self, target):
                raise error

            monkeypatch.setattr(Path, "replace", refuse)
        else:

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

            real_open = open
            monkeypatch.setattr(harness, "open", lambda *a, **k: HalfWrite(real_open(*a, **k)), raising=False)
        with pytest.raises(type(error)):
            tiny_checkpoint.save(path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_from_json_builds_no_parameters(self, tiny_checkpoint, monkeypatch):
        """Loading reads names and shapes from param_shapes; it draws no
        throwaway initialization."""
        import uenl.harness as harness

        def refuse(*args, **kwargs):
            raise AssertionError("init_params called")

        monkeypatch.setattr(harness, "init_params", refuse)
        assert Checkpoint.from_json(tiny_checkpoint.to_json()).to_json() == tiny_checkpoint.to_json()


class TestWriteFiles:
    def test_generator_chunks_are_written_in_order(self, tmp_path):
        def chunks():
            yield "a,b\n"
            yield ""
            yield "é,"
            yield "2\n"

        path = tmp_path / "out.csv"
        write_files({path: chunks()})
        assert path.read_bytes() == "a,b\né,2\n".encode("utf-8")
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_empty_chunks_write_an_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("old\n", encoding="utf-8")
        write_files({path: [], str(tmp_path / "new.csv"): iter(())})
        assert path.read_bytes() == b""
        assert (tmp_path / "new.csv").read_bytes() == b""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.csv", "new.csv"]

    def test_failing_chunks_leave_every_target_untouched(self, tmp_path):
        def failing():
            yield "half,"
            raise ValueError("no more rows")

        old, new = tmp_path / "old.csv", tmp_path / "new.csv"
        old.write_bytes(b"keep\n")
        with pytest.raises(ValueError, match="no more rows"):
            write_files({old: ["x\n"], tmp_path / "first.csv": ["y\n"], new: failing()})
        assert old.read_bytes() == b"keep\n"
        assert [p.name for p in tmp_path.iterdir()] == ["old.csv"]


    def test_a_directory_target_fails_before_any_rename(self, tmp_path):
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        first.write_bytes(b"keep\n")
        second.mkdir()
        with pytest.raises(IsADirectoryError, match="second.csv: it is a directory"):
            write_files({first: ["new\n"], second: ["new\n"], tmp_path / "third.csv": ["new\n"]})
        assert first.read_bytes() == b"keep\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["first.csv", "second.csv"]


class TestReportWrite:
    @pytest.mark.parametrize("fault", WRITE_FAULTS)
    def test_failed_write_keeps_the_old_report(self, fault, tiny_checkpoint, tiny_bundle, tmp_path, monkeypatch):
        """A report write that fails on its third file (scores.csv), or whose
        renames are refused, leaves all four old files and no temporary file."""
        report = evaluate(tiny_checkpoint, tiny_bundle, methods=("msp",), histogram_bins=4)
        paths = report.write(tmp_path)
        old = {name: path.read_bytes() + b"old\n" for name, path in paths.items()}
        for name, path in paths.items():
            path.write_bytes(old[name])
        with pytest.raises(fail_third_file(monkeypatch, fault)):
            report.write(tmp_path)
        assert {name: path.read_bytes() for name, path in paths.items()} == old
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in paths.values())


class TestCheckpointV1:
    """``tests/fixtures/tiny_epochs2_v1.ckpt.json`` is a version-1
    checkpoint (``data`` as lists of repr floats), written at commit 7819eb5
    from the repository root with

        PYTHONPATH=src:tests python3 -c "from conftest import tiny_experiment_config; from uenl.harness import train; train(tiny_experiment_config(epochs=2)).save('tests/fixtures/tiny_epochs2_v1.ckpt.json')"

    The tests compare the fixture with itself, never with a fresh ``train``,
    so they hold whatever the current training bits are.
    """

    def test_loads_the_listed_floats(self):
        doc = json.loads(V1_CHECKPOINT.read_text(encoding="utf-8"))
        assert doc["version"] == 1
        loaded = Checkpoint.load(V1_CHECKPOINT)
        for section, tensors in (("weights", loaded.weights), ("bn_state", loaded.bn_state)):
            for name, t in tensors.items():
                assert t.ravel().tolist() == doc[section][name]["data"]

    def test_arrays_bit_equal_to_fresh_train(self, tmp_path):
        """Loading the fixture, saving it as version 2 and loading that
        again gives the same arrays bit for bit."""
        path = tmp_path / "resaved.ckpt.json"
        loaded = Checkpoint.load(V1_CHECKPOINT)
        loaded.save(path)
        again = Checkpoint.load(path)
        for got, want in ((again.weights, loaded.weights), (again.bn_state, loaded.bn_state)):
            assert set(got) == set(want)
            for name in want:
                assert got[name].tobytes() == want[name].tobytes(), name

    def test_resave_gives_version_2_train_bytes(self, tmp_path):
        """The re-save is a version-2 file that saves back to its own bytes,
        with every other field as the fixture has it."""
        path = tmp_path / "resaved.ckpt.json"
        Checkpoint.load(V1_CHECKPOINT).save(path)
        text = path.read_text(encoding="utf-8")
        doc, v1 = json.loads(text), json.loads(V1_CHECKPOINT.read_text(encoding="utf-8"))
        assert doc["version"] == 2
        assert Checkpoint.load(path).to_json() == text
        for key in set(v1) - {"version", "weights", "bn_state"}:
            assert doc[key] == v1[key], key


class TestSweep:
    def test_delta_grid_three_rows(self):
        base = tiny_experiment_config(epochs=2)
        rows = sweep(base, {"delta": [4, 8, 16]})
        assert [row["delta"] for row in rows] == [4, 8, 16]
        for row in rows:
            for method in base.scoring.methods:
                for metric in ("fpr95", "auroc", "aupr"):
                    value = row[f"{method}_{metric}"]
                    assert np.isfinite(value) and 0.0 <= value <= 1.0
            assert 0.0 <= row["error_rate"] <= 1.0

    def test_lambda_grid_three_rows(self):
        base = tiny_experiment_config(epochs=2)
        rows = sweep(base, {"lambda": [0.01, 0.1, 1.0]})
        assert [row["lambda"] for row in rows] == [0.01, 0.1, 1.0]
        assert all(np.isfinite(row["uncertainty_auroc"]) for row in rows)

    def test_cell_seeds_derived_from_base(self):
        base = tiny_experiment_config(epochs=2)
        rows = sweep(base, {"delta": [4, 8]})
        assert rows[0]["seed"] == derive_seed(base.seed, "cell0")
        assert rows[1]["seed"] == derive_seed(base.seed, "cell1")
        assert rows[0]["seed"] != rows[1]["seed"]

    def test_empty_grid_equals_direct_run(self):
        base = tiny_experiment_config(epochs=2)
        rows = sweep(base, {})
        assert len(rows) == 1
        report = evaluate(train(base))
        row = rows[0]
        assert row["seed"] == base.seed
        assert row["error_rate"] == report.id_error_rate
        for method in base.scoring.methods:
            means = report.mean_metrics(method)
            assert row[f"{method}_auroc"] == means["auroc"]
            assert row[f"{method}_fpr95"] == means["fpr95"]
            assert row[f"{method}_aupr"] == means["aupr"]

    def test_cross_product_order(self):
        base = tiny_experiment_config(epochs=1)
        rows = sweep(base, {"delta": [4, 8], "lambda": [0.0, 0.1]})
        assert [(r["delta"], r["lambda"]) for r in rows] == [(4, 0.0), (4, 0.1), (8, 0.0), (8, 0.1)]

    def test_invalid_field_rejected(self):
        base = tiny_experiment_config(epochs=1)
        with pytest.raises(ValueError, match="lrr"):
            sweep(base, {"lrr": [0.1]})

    def test_empty_value_list_rejected(self):
        base = tiny_experiment_config(epochs=1)
        with pytest.raises(ValueError, match="delta"):
            sweep(base, {"delta": []})

    def test_datasets_built_once_per_cell(self, monkeypatch):
        import uenl.harness as harness

        built = []

        def counted(config, _original=harness.build_datasets):
            built.append(config.seed)
            return _original(config)

        monkeypatch.setattr(harness, "build_datasets", counted)
        rows = sweep(tiny_experiment_config(epochs=1), {"delta": [4, 8]})
        assert built == [row["seed"] for row in rows]

    def test_progress_reports_cells(self):
        base = tiny_experiment_config(epochs=1)
        seen = []
        sweep(base, {"delta": [4, 8]}, progress=lambda i, cell: seen.append((i, dict(cell))))
        assert seen == [(0, {"delta": 4}), (1, {"delta": 8})]


class TestSweepCsv:
    def test_write_and_round_trip(self, tmp_path):
        rows = [
            {"delta": 16, "seed": 3, "error_rate": 0.0125, "msp_auroc": 0.9375},
            {"delta": 32, "seed": 4, "error_rate": 0.1, "msp_auroc": 1.0},
        ]
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "delta,seed,error_rate,msp_auroc"
        assert lines[1] == "16,3,0.0125,0.9375"
        assert float(lines[2].split(",")[2]) == 0.1

    def test_inconsistent_columns_rejected(self, tmp_path):
        rows = [{"delta": 16}, {"lambda": 0.1}]
        with pytest.raises(ValueError, match="inconsistent"):
            write_sweep_csv(rows, tmp_path / "sweep.csv")

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no sweep rows"):
            write_sweep_csv([], tmp_path / "sweep.csv")


class TestScoresCsvToHistograms:
    def test_rebins_with_shared_span_per_method(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text(
            "dataset,sample_index,method,score\n"
            "a,0,m,0.0\n"
            "a,1,m,1.0\n"
            "b,0,m,2.0\n",
            encoding="utf-8",
        )
        rows = scores_csv_to_histograms(path, 2)
        assert rows == [
            ("a", "m", 0.0, 1.0, 2),
            ("a", "m", 1.0, 2.0, 0),
            ("b", "m", 0.0, 1.0, 0),
            ("b", "m", 1.0, 2.0, 1),
        ]

    def test_matches_report_histograms(self, tiny_checkpoint, tiny_bundle, tmp_path):
        report = evaluate(tiny_checkpoint, tiny_bundle, methods=("msp",), histogram_bins=6)
        paths = report.write(tmp_path)
        rebinned = scores_csv_to_histograms(paths["scores"], 6)
        assert sorted(rebinned) == sorted(report.histograms)

    def test_equal_scores_get_a_unit_wide_range(self, tiny_bundle, tmp_path):
        """A model whose output layer is zero gives every row the same score
        under every method; each histogram is then centred on that score
        with half a unit on each side, in the report and in the rebinning."""
        config = tiny_experiment_config()
        params = init_params(config, RngStream(config.seed))
        params.weights["backbone.out.w"] = frozen(np.zeros(params.weights["backbone.out.w"].shape))
        checkpoint = Checkpoint(config, params.weights, params.bn_state, 0)
        report = evaluate(checkpoint, tiny_bundle, histogram_bins=4)
        sizes = {"id_test": len(tiny_bundle.id_test), **{n: len(d) for n, d in tiny_bundle.ood.items()}}
        for score_set in report.score_sets:
            value = float(score_set.id_scores[0])
            assert np.all(np.concatenate([score_set.id_scores, *score_set.ood_scores.values()]) == value)
            for dataset, n in sizes.items():
                rows = [r for r in report.histograms if r[:2] == (dataset, score_set.method)]
                assert (rows[0][2], rows[-1][3]) == (value - 0.5, value + 0.5)
                assert [r[4] for r in rows] == [0, n, 0, 0]
        rebinned = scores_csv_to_histograms(report.write(tmp_path)["scores"], 4)
        assert sorted(rebinned) == sorted(report.histograms)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("dataset,method,score\na,m,0.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            scores_csv_to_histograms(path, 2)

    def test_non_numeric_score_names_line(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("dataset,sample_index,method,score\na,0,m,oops\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            scores_csv_to_histograms(path, 2)

    def test_wrong_column_count_names_line(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("dataset,sample_index,method,score\na,0,m\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            scores_csv_to_histograms(path, 2)
