"""Tests for the experiment config schema, overrides, and file loading."""

import copy
import dataclasses
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uenl.config import (
    MAX_ARRAY_VALUES,
    BackboneSpec,
    CsvIdSpec,
    CsvOodSpec,
    DataSpec,
    ExperimentConfig,
    GaussianClustersSpec,
    GaussianNoiseOodSpec,
    IdxIdSpec,
    IdxOodSpec,
    ScoringSpec,
    ShiftedGaussianOodSpec,
    UniformOodSpec,
    apply_overrides,
    load_config,
)
from uenl.harness import build_raw_datasets
from uenl.model import forward, init_params, uncertainty_forward
from uenl.rng import RngStream

from conftest import frozen

SHIPPED = Path(__file__).resolve().parent.parent / "configs" / "desk_synthetic.json"


def minimal_backbone():
    return BackboneSpec(input_dim=4, hidden_dims=(8,), num_classes=2)


def full_config_dict():
    """A config dict exercising every schema branch."""
    return {
        "method": "uenl",
        "seed": 7,
        "epochs": 12,
        "batch_size": 16,
        "lr": 0.05,
        "momentum": 0.8,
        "weight_decay": 0.001,
        "lr_drop_epochs": [6, 9],
        "dropout": 0.2,
        "delta": 16,
        "lambda": 0.25,
        "kl_form": "std",
        "scalar_uncertainty": True,
        "temperature": 0.1,
        "uhat_scale": 2.0,
        "pinned_uhat": 0.04,
        "bn_momentum": 0.2,
        "bn_epsilon": 1e-4,
        "select_best_validation": True,
        "backbone": {"input_dim": 6, "hidden_dims": [16, 8], "num_classes": 3, "use_batchnorm": False},
        "data": {
            "id": {
                "kind": "gaussian_clusters",
                "dim": 6,
                "num_classes": 3,
                "n_train_per_class": 50,
                "n_test_per_class": 20,
                "sigma": 0.3,
                "seed": 11,
                "mean_scale": 1.5,
            },
            "ood": [
                {"kind": "uniform", "name": "box", "n": 40, "low": -2.0, "high": 2.0, "seed": 12},
                {"kind": "shifted_gaussian", "n": 40, "offset": 3.0, "sigma": 0.3, "seed": 13},
                {"kind": "gaussian_noise", "n": 40, "seed": 14},
                {"kind": "csv", "name": "file_ood", "path": "ood.csv"},
                {"kind": "idx", "name": "images", "images": "t10k-images-idx3-ubyte"},
            ],
        },
        "scoring": {
            "methods": ["msp", "uncertainty"],
            "energy_temperature": 1.0,
            "odin_temperature": 100.0,
            "odin_epsilon": 0.002,
            "histogram_bins": 10,
        },
    }


class TestDefaults:
    def test_experiment_defaults(self):
        c = ExperimentConfig(backbone=minimal_backbone())
        assert c.method == "uenl"
        assert c.seed == 0
        assert c.epochs == 200
        assert c.batch_size == 128
        assert c.lr == 0.1
        assert c.momentum == 0.9
        assert c.weight_decay == 0.0005
        assert c.lr_drop_epochs == (80, 140)
        assert c.dropout == 0.3
        assert c.delta == 32
        assert c.kl_weight == 0.1
        assert c.kl_form == "variance"
        assert c.scalar_uncertainty is False
        assert c.temperature == 0.04
        assert c.uhat_scale == 1.0
        assert c.pinned_uhat is None
        assert c.bn_momentum == 0.1
        assert c.bn_epsilon == 1e-5
        assert c.select_best_validation is False
        assert c.data is None

    def test_scoring_defaults(self):
        s = ScoringSpec()
        assert s.methods == ("msp", "energy", "odin", "uncertainty")
        assert s.energy_temperature == 0.1
        assert s.odin_temperature == 1000.0
        assert s.odin_epsilon == 0.0014
        assert s.histogram_bins == 30

    def test_backbone_batchnorm_default_on(self):
        assert minimal_backbone().use_batchnorm is True


class TestFromDict:
    def test_minimal_dict(self):
        c = ExperimentConfig.from_dict({"backbone": {"input_dim": 4, "hidden_dims": [8], "num_classes": 2}})
        assert c.backbone == minimal_backbone()
        assert c.delta == 32 and c.kl_weight == 0.1

    def test_backbone_required(self):
        with pytest.raises(ValueError, match="backbone"):
            ExperimentConfig.from_dict({"method": "ce"})

    def test_lambda_key_maps_to_kl_weight(self):
        c = ExperimentConfig.from_dict(
            {"backbone": minimal_backbone().to_dict(), "lambda": 0.5}
        )
        assert c.kl_weight == 0.5

    def test_full_dict_parses_every_field(self):
        c = ExperimentConfig.from_dict(full_config_dict())
        assert c.method == "uenl" and c.seed == 7 and c.epochs == 12
        assert c.lr_drop_epochs == (6, 9)
        assert c.kl_weight == 0.25 and c.kl_form == "std"
        assert c.scalar_uncertainty is True
        assert c.pinned_uhat == 0.04
        assert c.uhat_scale == 2.0
        assert c.select_best_validation is True
        assert c.backbone.hidden_dims == (16, 8) and c.backbone.use_batchnorm is False
        assert isinstance(c.data.id, GaussianClustersSpec)
        assert c.data.id.mean_scale == 1.5
        kinds = [type(s) for s in c.data.ood]
        assert kinds == [UniformOodSpec, ShiftedGaussianOodSpec, GaussianNoiseOodSpec, CsvOodSpec, IdxOodSpec]
        assert c.scoring.methods == ("msp", "uncertainty")

    def test_ood_name_defaults_to_kind(self):
        c = ExperimentConfig.from_dict(full_config_dict())
        names = [s.name for s in c.data.ood]
        assert names == ["box", "shifted_gaussian", "gaussian_noise", "file_ood", "images"]

    def test_csv_and_idx_id_kinds(self):
        base = {"backbone": minimal_backbone().to_dict()}
        c = ExperimentConfig.from_dict(
            {**base, "data": {"id": {"kind": "csv", "train": "tr.csv", "test": "te.csv"}}}
        )
        assert c.data.id == CsvIdSpec(train="tr.csv", test="te.csv", has_labels=True)
        c = ExperimentConfig.from_dict(
            {
                **base,
                "data": {
                    "id": {
                        "kind": "idx",
                        "train_images": "a",
                        "train_labels": "b",
                        "test_images": "c",
                        "test_labels": "d",
                    }
                },
            }
        )
        assert c.data.id == IdxIdSpec("a", "b", "c", "d")

    def test_explicit_null_data_means_none(self):
        c = ExperimentConfig.from_dict({"backbone": minimal_backbone().to_dict(), "data": None})
        assert c.data is None


class TestRoundTrip:
    def test_to_dict_from_dict_identity(self):
        c = ExperimentConfig.from_dict(full_config_dict())
        assert ExperimentConfig.from_dict(c.to_dict()) == c

    def test_round_trip_without_data(self):
        c = ExperimentConfig(backbone=minimal_backbone())
        assert ExperimentConfig.from_dict(c.to_dict()) == c

    def test_to_dict_spells_lambda(self):
        c = ExperimentConfig(backbone=minimal_backbone(), kl_weight=0.3)
        d = c.to_dict()
        assert d["lambda"] == 0.3
        assert "kl_weight" not in d

    def test_json_serializable(self):
        c = ExperimentConfig.from_dict(full_config_dict())
        restored = ExperimentConfig.from_dict(json.loads(json.dumps(c.to_dict())))
        assert restored == c


class TestUnknownKeys:
    def test_top_level(self):
        d = {"backbone": minimal_backbone().to_dict(), "leerning_rate": 0.1}
        with pytest.raises(ValueError, match="leerning_rate"):
            ExperimentConfig.from_dict(d)

    def test_backbone(self):
        d = {"backbone": {"input_dim": 4, "hidden_dims": [8], "num_classes": 2, "hiden_dims": [8]}}
        with pytest.raises(ValueError, match="hiden_dims"):
            ExperimentConfig.from_dict(d)

    def test_scoring(self):
        d = {"backbone": minimal_backbone().to_dict(), "scoring": {"bins": 10}}
        with pytest.raises(ValueError, match="bins"):
            ExperimentConfig.from_dict(d)

    def test_data_section(self):
        d = {"backbone": minimal_backbone().to_dict(), "data": {"id_set": {}}}
        with pytest.raises(ValueError, match="id_set"):
            ExperimentConfig.from_dict(d)

    def test_data_id_kind(self):
        d = {"backbone": minimal_backbone().to_dict(), "data": {"id": {"kind": "moons"}}}
        with pytest.raises(ValueError, match="moons"):
            ExperimentConfig.from_dict(d)

    def test_data_id_extra_key(self):
        d = full_config_dict()
        d["data"]["id"]["rows"] = 5
        with pytest.raises(ValueError, match="rows"):
            ExperimentConfig.from_dict(d)

    def test_ood_entry_names_its_index(self):
        d = full_config_dict()
        d["data"]["ood"][2]["spread"] = 1.0
        with pytest.raises(ValueError, match=r"ood\[2\]"):
            ExperimentConfig.from_dict(d)


class TestValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("method", "svm"),
            ("seed", -1),
            ("seed", 2**64),
            ("epochs", 0),
            ("batch_size", 0),
            ("lr", 0.0),
            ("momentum", 1.0),
            ("momentum", -0.1),
            ("weight_decay", -0.1),
            ("lr_drop_epochs", (-1,)),
            ("dropout", 1.0),
            ("delta", 0),
            ("kl_weight", -0.5),
            ("kl_form", "mad"),
            ("temperature", 0.0),
            ("uhat_scale", 0.0),
            ("pinned_uhat", 0.0),
            ("bn_momentum", 0.0),
            ("bn_momentum", 1.5),
            ("bn_epsilon", 0.0),
        ],
    )
    def test_rejected_field_values(self, field, value):
        with pytest.raises(ValueError):
            ExperimentConfig(backbone=minimal_backbone(), **{field: value})

    def test_scoring_unknown_method(self):
        with pytest.raises(ValueError, match="mahalanobis"):
            ScoringSpec(methods=("msp", "mahalanobis"))

    def test_scoring_empty_methods(self):
        with pytest.raises(ValueError, match="at least one"):
            ScoringSpec(methods=())

    def test_scoring_bins_at_least_one(self):
        with pytest.raises(ValueError, match="histogram_bins"):
            ScoringSpec(histogram_bins=0)

    def test_array_budget_is_inclusive(self):
        # Loading builds no array, so a config at the limit costs nothing here.
        width = MAX_ARRAY_VALUES // 4
        ExperimentConfig(backbone=BackboneSpec(input_dim=4, hidden_dims=(width,), num_classes=2), delta=4)
        with pytest.raises(ValueError, match=r"^backbone.input_dim x backbone.hidden_dims\[0\] sizes a 4 x "):
            ExperimentConfig(backbone=BackboneSpec(input_dim=4, hidden_dims=(width + 1,), num_classes=2), delta=4)

    def test_clusters_need_two_classes(self):
        with pytest.raises(ValueError, match="num_classes"):
            GaussianClustersSpec(dim=4, num_classes=1, n_train_per_class=10, n_test_per_class=5, sigma=0.1, seed=0)

    def test_duplicate_ood_names_rejected(self):
        a = UniformOodSpec(name="x", n=10, low=-1, high=1, seed=0)
        b = GaussianNoiseOodSpec(name="x", n=10, seed=1)
        with pytest.raises(ValueError, match="unique"):
            DataSpec(id=GaussianClustersSpec(2, 2, 10, 5, 0.1, 0), ood=(a, b))

    # An empty name leaves the metrics.csv cell empty, a comma or line break
    # splits the CSV rows, and "mean" and "id_test" already name rows there.
    @pytest.mark.parametrize("name", ["", "a,b", "a\nb", "a\rb", "mean", "id_test", "\ud800"])
    def test_unwritable_ood_names_rejected(self, name):
        a = UniformOodSpec(name=name, n=10, low=-1, high=1, seed=0)
        with pytest.raises(ValueError, match=re.escape(f"ood set name {name!r} must be non-empty")):
            DataSpec(id=GaussianClustersSpec(2, 2, 10, 5, 0.1, 0), ood=(a,))


class TestModelConfigPlumbing:
    """The ExperimentConfig is the model's config: init_params and the
    forward passes read the architecture from it."""

    def test_backbone_config(self):
        config = ExperimentConfig.from_dict(full_config_dict())
        params = init_params(config, RngStream(0))
        assert params.config is config
        # 6 -> 16 -> 8 -> 3, and use_batchnorm false leaves no backbone batchnorm.
        shapes = {name: t.shape for name, t in params.weights.items() if name.startswith("backbone.")}
        assert shapes == {
            "backbone.h0.w": (6, 16),
            "backbone.h0.b": (16,),
            "backbone.h1.w": (16, 8),
            "backbone.h1.b": (8,),
            "backbone.out.w": (8, 3),
            "backbone.out.b": (3,),
        }
        assert not any(name.startswith("backbone.") for name in params.bn_state)
        with pytest.raises(ValueError, match="dropout needs an rng stream"):  # dropout 0.2
            forward(params, np.zeros((2, 6)))

    def test_head_config(self):
        params = init_params(ExperimentConfig.from_dict(full_config_dict()), RngStream(0))
        # The head reads the last hidden width and, with scalar_uncertainty, emits one value.
        assert params.weights["head.w"].shape == (8, 1)
        params.weights["head.w"] = frozen(RngStream(1).normal((8, 1)))
        e = RngStream(2).normal((10, 8))
        z = e @ params.weights["head.w"]
        # bn_momentum 0.2 and bn_epsilon 1e-4 reach the head's batchnorm in both modes.
        head = uncertainty_forward(params, e)
        np.testing.assert_allclose(head.bn_updates["head.bn.mean"], 0.2 * z.mean(axis=0), rtol=1e-12)
        z_hat = (z - z.mean(axis=0)) / np.sqrt(z.var(axis=0) + 1e-4)
        np.testing.assert_allclose(head.u.value, np.exp(z_hat), rtol=1e-12)
        u_eval = uncertainty_forward(params.fold(), e).u.value
        np.testing.assert_allclose(u_eval, np.exp(z / np.sqrt(1.0 + 1e-4)), rtol=1e-12)

    def test_config_is_frozen(self):
        config = ExperimentConfig.from_dict(full_config_dict())
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.delta = 4
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.backbone.hidden_dims = (4,)
        assert dataclasses.replace(config, delta=4).delta == 4
        assert config.delta == 16


def _leaves(value, path=()):
    """(path, value) for every scalar in a config dict; a path holds dict
    keys and list indices."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _leaves(v, path + (k,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _leaves(v, path + (i,))
    else:
        yield path, value


def _dotted(path) -> str:
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path).lstrip(".")


# JSON values of the wrong type for a leaf of each type; the last ones were
# coerced before the reader checked types.
WRONG_VALUES = {bool: ["no", 1], int: [1.5, True, "7"], float: ["0.5", True], str: [5, None]}
WRONG_TYPE_CASES = [
    (path, wrong) for path, value in _leaves(full_config_dict()) for wrong in WRONG_VALUES[type(value)]
]


class TestTypeRules:
    @pytest.mark.parametrize(
        "path,wrong", WRONG_TYPE_CASES, ids=[f"{_dotted(p)}={json.dumps(w)}" for p, w in WRONG_TYPE_CASES]
    )
    def test_wrong_json_type_names_the_dotted_key(self, path, wrong):
        d = full_config_dict()
        target = d
        for part in path[:-1]:
            target = target[part]
        target[path[-1]] = wrong
        with pytest.raises(ValueError, match="^" + re.escape(_dotted(path)) + ": expected"):
            ExperimentConfig.from_dict(d)

    def test_float_fields_take_ints_and_store_floats(self):
        d = full_config_dict()
        d["lr"], d["data"]["id"]["sigma"] = 1, 2
        c = ExperimentConfig.from_dict(d)
        assert type(c.lr) is float and c.lr == 1.0
        assert type(c.data.id.sigma) is float and c.data.id.sigma == 2.0

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 10**400])
    def test_non_finite_floats_rejected(self, value):
        d = {**full_config_dict(), "lr": value}
        with pytest.raises(ValueError, match="^lr: expected finite number"):
            ExperimentConfig.from_dict(d)

    def test_null_only_where_the_annotation_allows_it(self):
        d = {**full_config_dict(), "pinned_uhat": None}
        assert ExperimentConfig.from_dict(d).pinned_uhat is None
        with pytest.raises(ValueError, match="^lr: expected finite number, got null"):
            ExperimentConfig.from_dict({**d, "lr": None})

    def test_document_must_be_an_object(self):
        with pytest.raises(ValueError, match="^config: expected object, got list"):
            ExperimentConfig.from_dict([full_config_dict()])

    def test_missing_kind_names_the_key(self):
        d = full_config_dict()
        del d["data"]["ood"][1]["kind"]
        with pytest.raises(ValueError, match=re.escape("data.ood[1].kind: expected one of")):
            ExperimentConfig.from_dict(d)

    def test_model_config_checked_at_load(self):
        d = full_config_dict()
        d["backbone"]["hidden_dims"] = []
        with pytest.raises(ValueError, match="^backbone.hidden_dims must name at least one hidden layer$"):
            ExperimentConfig.from_dict(d)

    def test_shipped_config_writes_the_same_json(self):
        text = json.dumps(load_config(SHIPPED).to_dict(), sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "51c5d3bd706bf4e6b62a606dfa226bd62c82dc5947291745f4340cc8b8191e2b"


class TestApplyOverrides:
    def test_number(self):
        out = apply_overrides({"lambda": 0.1}, ["lambda=0.5"])
        assert out == {"lambda": 0.5}

    def test_string_fallback(self):
        out = apply_overrides({}, ["method=ce"])
        assert out == {"method": "ce"}

    def test_boolean_and_null(self):
        out = apply_overrides({}, ["select_best_validation=true", "pinned_uhat=null"])
        assert out["select_best_validation"] is True
        assert out["pinned_uhat"] is None

    def test_list(self):
        out = apply_overrides({}, ["lr_drop_epochs=[10, 20]"])
        assert out["lr_drop_epochs"] == [10, 20]

    def test_dotted_path(self):
        base = {"scoring": {"histogram_bins": 30, "odin_epsilon": 0.0014}}
        out = apply_overrides(base, ["scoring.histogram_bins=10"])
        assert out["scoring"] == {"histogram_bins": 10, "odin_epsilon": 0.0014}

    def test_dotted_path_creates_missing_levels(self):
        out = apply_overrides({}, ["data.id.sigma=0.5"])
        assert out == {"data": {"id": {"sigma": 0.5}}}

    def test_input_untouched(self):
        base = {"scoring": {"histogram_bins": 30}}
        apply_overrides(base, ["scoring.histogram_bins=10", "lambda=0.9"])
        assert base == {"scoring": {"histogram_bins": 30}}

    def test_multiple_overrides_apply_in_order(self):
        out = apply_overrides({}, ["lambda=0.1", "lambda=0.9"])
        assert out == {"lambda": 0.9}

    def test_malformed_assignment_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            apply_overrides({}, ["lambda"])
        with pytest.raises(ValueError, match="key=value"):
            apply_overrides({}, ["=5"])

    def test_list_entry_path(self):
        base = {"data": {"ood": [{"n": 1}, {"n": 2, "seed": 3}]}, "grid": [[1, 2], [3]]}
        out = apply_overrides(base, ["data.ood[1].n=5", "grid[0][1]=9", "data.ood[0].low=0.5"])
        assert out["data"]["ood"] == [{"n": 1, "low": 0.5}, {"n": 5, "seed": 3}]
        assert out["grid"] == [[1, 9], [3]]
        assert base["data"]["ood"][1]["n"] == 2

    def test_list_entry_reaches_the_config(self):
        assert load_config(SHIPPED, ["data.ood[2].n=5"]).data.ood[2].n == 5

    @pytest.mark.parametrize(
        "assignment, message",
        [
            ("data.ood[2].n=5", r"data\.ood\[2\] is out of range \(the list has 2 entries\)"),
            ("data.ood[0][0]=5", r"data\.ood\[0\] is not a list"),
            ("data.id[0].n=5", r"data\.id is not a list"),
            ("seed[0]=1", "seed is not a list"),
            ("data.ood[-1].n=5", "malformed part 'ood\\[-1\\]'"),
            ("data.ood[].n=5", "malformed part"),
            ("data..n=5", "malformed part ''"),
        ],
    )
    def test_bad_list_entry_path_rejected(self, assignment, message):
        base = {"seed": 0, "data": {"id": {"n": 1}, "ood": [{"n": 1}, {"n": 2}]}}
        with pytest.raises(ValueError, match=message):
            apply_overrides(base, [assignment])


class TestLoadConfig:
    def test_load_and_override(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(full_config_dict()), encoding="utf-8")
        c = load_config(path)
        assert c == ExperimentConfig.from_dict(full_config_dict())
        c2 = load_config(path, overrides=["lambda=0.9", "seed=3"])
        assert c2.kl_weight == 0.9 and c2.seed == 3

    def test_invalid_json_names_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="broken.json"):
            load_config(path)

    def test_not_utf8_names_path(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"method": "caf\xe9"}'.encode("latin-1"))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not valid JSON"):
            load_config(path)

    def test_override_can_introduce_invalid_value(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(full_config_dict()), encoding="utf-8")
        with pytest.raises(ValueError, match="delta"):
            load_config(path, overrides=["delta=0"])

    def test_shipped_desk_config_parses(self):
        c = load_config(SHIPPED)
        assert c.method == "uenl"
        assert c.delta == 32 and c.kl_weight == 0.1
        assert c.epochs == 50 and c.lr_drop_epochs == (25, 40)
        assert isinstance(c.data.id, GaussianClustersSpec) and c.data.id.dim == 16
        assert [s.name for s in c.data.ood] == ["uniform", "shifted_gaussian", "gaussian_noise"]
        assert c.scoring.methods == ("msp", "energy", "odin", "uncertainty")


def _key_paths(node, path=()):
    """The path of every key and list entry below a JSON node."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _key_paths(value, path + (key,))


def _parent(node, path):
    for key in path[:-1]:
        node = node[key]
    return node


SHIPPED_DATA = json.loads(SHIPPED.read_text(encoding="utf-8"))["data"]
DATA_KEYS = list(_key_paths(SHIPPED_DATA))
DATA_LEAVES = [p for p in DATA_KEYS if not isinstance(_parent(SHIPPED_DATA, p)[p[-1]], (dict, list))]
SIZES = [p for p in DATA_LEAVES if p[-1] in ("dim", "num_classes", "n_train_per_class", "n_test_per_class", "n")]
SCALES = [p for p in DATA_LEAVES if p[-1] in ("sigma", "mean_scale", "offset")]
SEEDS = [p for p in DATA_LEAVES if p[-1] == "seed"]
NAMES = [("ood", i, "name") for i in range(len(SHIPPED_DATA["ood"]))]

# (path, value) edits of the shipped data section; a None path swaps the
# uniform set's low and high, and a value of DROP deletes the key.
DROP = object()
DATA_EDITS = st.one_of(
    st.tuples(st.sampled_from([p for p in DATA_KEYS if isinstance(p[-1], str)]), st.just(DROP)),
    st.tuples(st.sampled_from(DATA_LEAVES), st.sampled_from([None, True, "16", 1.5, 7, [], {}])),
    st.tuples(st.sampled_from(SIZES), st.integers(-3, 40)),
    st.tuples(st.just(None), st.none()),
    st.tuples(st.sampled_from(SCALES), st.sampled_from([0.0, -0.0]) | st.floats(-100.0, -1e-6)),
    st.tuples(st.sampled_from(SEEDS), st.integers(-(2**70), -1)),
    st.tuples(
        st.sampled_from(NAMES),
        st.text(st.characters(min_codepoint=0x80), min_size=1, max_size=6)
        | st.sampled_from(["", "mean", "id_test", "a,b", "a\nb", "uniform", "gaussian_noise"]),
    ),
)


class TestDataSectionProperty:
    """One edit to the shipped config's data section either fails at load
    with an error that names a data key, or leaves a config whose datasets
    build."""

    @settings(max_examples=150)
    @given(edit=DATA_EDITS)
    def test_edit_fails_at_load_or_builds(self, edit):
        path, value = edit
        doc = json.loads(SHIPPED.read_text(encoding="utf-8"))
        data = doc["data"] = copy.deepcopy(SHIPPED_DATA)
        if path is None:
            box = data["ood"][0]
            box["low"], box["high"] = box["high"], box["low"]
        elif value is DROP:
            del _parent(data, path)[path[-1]]
        else:
            _parent(data, path)[path[-1]] = value
        try:
            config = ExperimentConfig.from_dict(doc)
        except ValueError as exc:
            assert re.search(r"\bdata\b", str(exc)), str(exc)
            return
        build_raw_datasets(config)
