"""Experiment configuration: a strict JSON schema with defaults, validation,
and dotted-path overrides.

The dataclass fields are the schema. A field's annotation fixes its JSON type:
``bool`` a boolean, ``int`` an integer, ``float`` a finite number (stored as a
float), ``str`` a string, ``tuple[T, ...]`` a list, ``X | None`` null or an X,
a spec class an object, and a union of data specs an object whose "kind" picks
the class (an OOD set's ``name`` defaults to its kind). Unknown keys are
rejected at every level so a typo cannot fall back to a default, and errors
name the dotted key (``data.ood[0].seed``). The KL weight is "lambda" in JSON
and on the command line, ``kl_weight`` in code.

Each data spec builds its own raw datasets (``build``): a synthetic kind
draws its rows from ``RngStream(seed, "data/<name>")``, a file kind calls
data.py's loaders. A new data kind is one spec class here plus an entry in
its union. No count may size an array of over ``MAX_ARRAY_VALUES`` floats.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import cache
from pathlib import Path
from typing import ClassVar, Union, get_args, get_origin, get_type_hints

import numpy as np

from .data import Dataset, Normalization, load_csv, load_idx
from .rng import RngStream
from .scoring import SCORE_METHODS

__all__ = [
    "ExperimentConfig",
    "BackboneSpec",
    "ScoringSpec",
    "DataSpec",
    "GaussianClustersSpec",
    "CsvIdSpec",
    "IdxIdSpec",
    "UniformOodSpec",
    "ShiftedGaussianOodSpec",
    "GaussianNoiseOodSpec",
    "CsvOodSpec",
    "IdxOodSpec",
    "apply_overrides",
    "check_ood_names",
    "json_parser",
    "load_config",
    "parse_value",
]

METHODS = ("uenl", "ce", "logitnorm")
KL_FORMS = ("variance", "std")
# The most float64 values (2 GiB) in any array that a config count sizes.
MAX_ARRAY_VALUES = 2**28

_JSON_NAMES = {bool: "boolean", int: "integer", float: "number", str: "string", list: "list", dict: "object"}


def _mismatch(key: str, expected: str, value) -> ValueError:
    got = "null" if value is None else _JSON_NAMES.get(type(value), type(value).__name__)
    if isinstance(value, (bool, int, float, str)):
        got += f" {json.dumps(value)}"
    return ValueError(f"{key}: expected {expected}, got {got}")


@cache
def json_parser(tp):
    """A function ``(value, key)`` that converts the JSON ``value`` to type
    ``tp`` by the rules in the module docstring, or raises a ValueError naming
    the dotted ``key``. Cached: resolving annotations costs more than a load."""
    args = get_args(tp)
    if tp in (bool, int, str):
        def parse(value, key):
            if type(value) is not tp:
                raise _mismatch(key, _JSON_NAMES[tp], value)
            return value
    elif tp is float:
        def parse(value, key):
            # The bounds reject NaN, infinities and ints too large for a float.
            if type(value) not in (int, float) or not -sys.float_info.max <= value <= sys.float_info.max:
                raise _mismatch(key, "finite number", value)
            return float(value)
    elif get_origin(tp) is tuple:
        item = json_parser(args[0])
        def parse(value, key):
            if type(value) is not list:
                raise _mismatch(key, "list", value)
            return tuple(item(v, f"{key}[{i}]") for i, v in enumerate(value))
    elif type(None) in args:
        inner = json_parser(Union[tuple(a for a in args if a is not type(None))])
        def parse(value, key):
            return None if value is None else inner(value, key)
    elif args:  # a union of data specs, told apart by "kind"
        kinds = {cls.kind: cls for cls in args}
        def parse(value, key):
            if type(value) is not dict:
                raise _mismatch(key, "object", value)
            kind = value.get("kind")
            if not isinstance(kind, str) or kind not in kinds:
                raise _mismatch(f"{key}.kind", f"one of {sorted(kinds)}", kind)
            rest = {k: v for k, v in value.items() if k != "kind"}
            if "name" in kinds[kind].__dataclass_fields__:
                rest.setdefault("name", kind)
            return json_parser(kinds[kind])(rest, key)
    else:
        hints = get_type_hints(tp)
        schema = [
            (f.metadata.get("json", f.name), f.name, json_parser(hints[f.name]),
             f.default is MISSING and f.default_factory is MISSING)
            for f in fields(tp)
        ]
        allowed = {json_key for json_key, *_ in schema}
        def parse(value, key):
            context = key or "config"
            if type(value) is not dict:
                raise _mismatch(context, "object", value)
            unknown = sorted(set(value) - allowed)
            if unknown:
                raise ValueError(f"unknown key(s) in {context}: {', '.join(unknown)}")
            kwargs = {}
            for json_key, name, parse_field, required in schema:
                if json_key in value:
                    kwargs[name] = parse_field(value[json_key], f"{key}.{json_key}" if key else json_key)
                elif required:
                    raise ValueError(f"missing required key {json_key!r} in {context}")
            try:
                return tp(**kwargs)
            except ValueError as exc:
                if not hasattr(tp, "kind"):  # only data specs leave out their key
                    raise
                raise ValueError(f"{key}.{exc}") from None
    return parse


def _dump(value):
    if is_dataclass(value):
        d = {"kind": value.kind} if hasattr(value, "kind") else {}
        d.update((f.metadata.get("json", f.name), _dump(getattr(value, f.name))) for f in fields(value))
        return d
    if isinstance(value, tuple):
        return [_dump(v) for v in value]
    return value


class _Schema:
    """``from_dict`` and ``to_dict`` read and write a spec's JSON form."""

    @classmethod
    def from_dict(cls, d: dict):
        return json_parser(cls)(d, "")

    def to_dict(self) -> dict:
        return _dump(self)


def _positive(value, key: str):
    if not value > 0:
        raise ValueError(f"{key} must be positive, got {value}")
    return value


def _non_negative(value, key: str):
    if value < 0:
        raise ValueError(f"{key} must be non-negative, got {value}")
    return value


def _array_size(key: str, *shape: int) -> None:
    if math.prod(shape) > MAX_ARRAY_VALUES:
        raise ValueError(f"{key} sizes a {' x '.join(map(str, shape))} array, over {MAX_ARRAY_VALUES} values")


def _seed(value, key: str):
    if not 0 <= value < 2**64:
        raise ValueError(f"{key} must be a 64-bit unsigned integer, got {value}")
    return value


@dataclass(frozen=True)
class BackboneSpec(_Schema):
    """The classifier MLP. The uncertainty head reads the activation of the
    last hidden layer, so ``hidden_dims[-1]`` is the embedding width."""

    input_dim: int
    hidden_dims: tuple[int, ...]
    num_classes: int
    use_batchnorm: bool = True

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("backbone.input_dim must be at least 1")
        if not self.hidden_dims:
            raise ValueError("backbone.hidden_dims must name at least one hidden layer")
        if any(d < 1 for d in self.hidden_dims):
            raise ValueError("backbone.hidden_dims entries must be at least 1")
        if self.num_classes < 2:
            raise ValueError("backbone.num_classes must be at least 2")


@dataclass(frozen=True)
class ScoringSpec(_Schema):
    methods: tuple[str, ...] = SCORE_METHODS
    energy_temperature: float = 0.1
    odin_temperature: float = 1000.0
    odin_epsilon: float = 0.0014
    histogram_bins: int = 30

    def __post_init__(self):
        for m in self.methods:
            if m not in SCORE_METHODS:
                raise ValueError(f"unknown scoring method {m!r} (expected one of {SCORE_METHODS})")
        if not self.methods:
            raise ValueError("scoring.methods must name at least one method")
        _positive(self.energy_temperature, "scoring.energy_temperature")
        _positive(self.odin_temperature, "scoring.odin_temperature")
        _non_negative(self.odin_epsilon, "scoring.odin_epsilon")
        if self.histogram_bins < 1:
            raise ValueError("scoring.histogram_bins must be at least 1")
        _array_size("scoring.histogram_bins", self.histogram_bins)


# A data spec's checks name its fields; the parser puts its key in front
# ("data.ood[0].n must be positive"). ID specs build their raw (id_train,
# id_test) pair, OOD specs their raw set from the model's input width and
# the raw ID-train statistics.
@dataclass(frozen=True)
class GaussianClustersSpec:
    kind: ClassVar[str] = "gaussian_clusters"
    dim: int
    num_classes: int
    n_train_per_class: int
    n_test_per_class: int
    sigma: float
    seed: int
    mean_scale: float = 1.0

    def __post_init__(self):
        for name in ("dim", "n_train_per_class", "n_test_per_class", "sigma"):
            _positive(getattr(self, name), name)
        if not 2 <= self.num_classes <= self.dim:  # each class mean lies on its own axis
            raise ValueError(f"num_classes must lie in [2, dim] = [2, {self.dim}], got {self.num_classes}")
        if self.mean_scale == 0.0:
            raise ValueError("mean_scale must be non-zero: at 0 every class mean is the origin")
        _seed(self.seed, "seed")

    def build(self) -> tuple[Dataset, Dataset]:
        """Isotropic Gaussian blobs, one per class, labels 1..k in row order."""
        k = self.num_classes
        means = np.zeros((k, self.dim))
        means[np.arange(k), np.arange(k)] = self.mean_scale

        def split(n: int, name: str) -> Dataset:
            features = RngStream(self.seed, f"data/{name}").normal((k * n, self.dim))
            features *= self.sigma
            by_class = features.reshape(k, n, self.dim)  # a view: the means are added in place
            by_class += means[:, None, :]
            return Dataset(name, features, np.repeat(np.arange(1, k + 1), n))

        return split(self.n_train_per_class, "id_train"), split(self.n_test_per_class, "id_test")


@dataclass(frozen=True)
class CsvIdSpec:
    kind: ClassVar[str] = "csv"
    train: str
    test: str
    has_labels: bool = True  # kept as a key for stored checkpoints; only true is valid

    def __post_init__(self):
        if not self.has_labels:
            raise ValueError("has_labels must be true: ID splits need labels")

    def build(self) -> tuple[Dataset, Dataset]:
        return load_csv(self.train, self.has_labels, "id_train"), load_csv(self.test, self.has_labels, "id_test")


@dataclass(frozen=True)
class IdxIdSpec:
    kind: ClassVar[str] = "idx"
    train_images: str
    train_labels: str
    test_images: str
    test_labels: str

    def build(self) -> tuple[Dataset, Dataset]:
        train = load_idx(self.train_images, self.train_labels, "id_train")
        return train, load_idx(self.test_images, self.test_labels, "id_test")


@dataclass(frozen=True)
class UniformOodSpec:
    kind: ClassVar[str] = "uniform"
    name: str
    n: int
    low: float
    high: float
    seed: int

    def __post_init__(self):
        _positive(self.n, "n")
        if not self.high > self.low:
            raise ValueError(f"high ({self.high}) must exceed low ({self.low})")
        _seed(self.seed, "seed")

    def build(self, dim: int, id_stats: Normalization) -> Dataset:
        """Points drawn uniformly from the box [low, high)^dim."""
        return Dataset(self.name, RngStream(self.seed, f"data/{self.name}").uniform(self.low, self.high, (self.n, dim)))


@dataclass(frozen=True)
class ShiftedGaussianOodSpec:
    kind: ClassVar[str] = "shifted_gaussian"
    name: str
    n: int
    offset: float
    sigma: float
    seed: int

    def __post_init__(self):
        _positive(self.n, "n")
        _positive(self.sigma, "sigma")
        _seed(self.seed, "seed")

    def build(self, dim: int, id_stats: Normalization) -> Dataset:
        """An isotropic Gaussian centred at offset * (1, ..., 1): near-manifold OOD."""
        noise = RngStream(self.seed, f"data/{self.name}").normal((self.n, dim))
        return Dataset(self.name, self.offset + self.sigma * noise)


@dataclass(frozen=True)
class GaussianNoiseOodSpec:
    kind: ClassVar[str] = "gaussian_noise"
    name: str
    n: int
    seed: int

    def __post_init__(self):
        _positive(self.n, "n")
        _seed(self.seed, "seed")

    def build(self, dim: int, id_stats: Normalization) -> Dataset:
        """Noise with the ID per-feature mean and std but no class structure."""
        noise = RngStream(self.seed, f"data/{self.name}").normal((self.n, id_stats.mean.size))
        return Dataset(self.name, id_stats.mean + id_stats.std * noise)


@dataclass(frozen=True)
class CsvOodSpec:
    kind: ClassVar[str] = "csv"
    name: str
    path: str

    def build(self, dim: int, id_stats: Normalization) -> Dataset:
        return load_csv(self.path, has_labels=False, name=self.name)


@dataclass(frozen=True)
class IdxOodSpec:
    kind: ClassVar[str] = "idx"
    name: str
    images: str

    def build(self, dim: int, id_stats: Normalization) -> Dataset:
        return load_idx(self.images, name=self.name)


def check_ood_names(names) -> None:
    """Reject OOD set names the report CSVs cannot hold: empty, not UTF-8 (a
    lone surrogate), with a comma or a line break, repeated, or "mean" and
    "id_test", which name metrics.csv's mean row and scores.csv's ID set."""
    for name in names:
        if not name or any(c in ",\r\n" or "\ud800" <= c <= "\udfff" for c in name) or name in ("mean", "id_test"):
            raise ValueError(
                f"ood set name {name!r} must be non-empty UTF-8 without commas or line breaks,"
                " and not 'mean' or 'id_test'"
            )
    if len(names) != len(set(names)):
        raise ValueError(f"ood set names must be unique, got {names}")


@dataclass(frozen=True)
class DataSpec(_Schema):
    id: GaussianClustersSpec | CsvIdSpec | IdxIdSpec
    ood: tuple[UniformOodSpec | ShiftedGaussianOodSpec | GaussianNoiseOodSpec | CsvOodSpec | IdxOodSpec, ...] = ()

    def __post_init__(self):
        try:
            check_ood_names([spec.name for spec in self.ood])
        except ValueError as exc:
            raise ValueError(f"{exc} (key data.ood)") from None


@dataclass(frozen=True)
class ExperimentConfig(_Schema):
    """Everything a training or evaluation run depends on, and the model's
    architecture: ``backbone`` plus the uncertainty head, which emits
    ``delta`` values per row (one shared value with ``scalar_uncertainty``).
    Backbone and head batchnorm share ``bn_momentum`` and ``bn_epsilon``.

    Identical configs (plus identical seeds, which live inside) give
    byte-identical checkpoints and reports.
    """

    backbone: BackboneSpec
    data: DataSpec | None = None
    method: str = "uenl"
    seed: int = 0
    epochs: int = 200
    batch_size: int = 128
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.0005
    lr_drop_epochs: tuple[int, ...] = (80, 140)
    dropout: float = 0.3
    delta: int = 32
    kl_weight: float = field(default=0.1, metadata={"json": "lambda"})
    kl_form: str = "variance"
    scalar_uncertainty: bool = False
    temperature: float = 0.04
    uhat_scale: float = 1.0
    pinned_uhat: float | None = None
    bn_momentum: float = 0.1
    bn_epsilon: float = 1e-5
    select_best_validation: bool = False
    scoring: ScoringSpec = field(default_factory=ScoringSpec)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r} (expected one of {METHODS})")
        _seed(self.seed, "seed")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        _positive(self.lr, "lr")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        _non_negative(self.weight_decay, "weight_decay")
        if any(e < 0 for e in self.lr_drop_epochs):
            raise ValueError("lr_drop_epochs must be non-negative")
        _non_negative(self.kl_weight, "lambda")
        if self.kl_form not in KL_FORMS:
            raise ValueError(f"unknown kl_form {self.kl_form!r} (expected one of {KL_FORMS})")
        _positive(self.temperature, "temperature")
        _positive(self.uhat_scale, "uhat_scale")
        if self.pinned_uhat is not None:
            _positive(self.pinned_uhat, "pinned_uhat")
        if self.delta < 1:
            raise ValueError("delta must be at least 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if not 0.0 < self.bn_momentum <= 1.0:
            raise ValueError("bn_momentum must lie in (0, 1]")
        if self.bn_epsilon <= 0.0:
            raise ValueError("bn_epsilon must be positive")
        # Each weight matrix, and each synthetic split's rows x input_dim.
        dim, hidden, k = self.backbone.input_dim, self.backbone.hidden_dims, self.backbone.num_classes
        widths = [("backbone.input_dim", dim), *((f"backbone.hidden_dims[{i}]", w) for i, w in enumerate(hidden))]
        for (in_key, fan_in), (out_key, width) in zip(widths, [*widths[1:], ("backbone.num_classes", k)]):
            _array_size(f"{in_key} x {out_key}", fan_in, width)
        _array_size(f"{widths[-1][0]} x delta", widths[-1][1], self.delta)
        spec = self.data and self.data.id
        if isinstance(spec, GaussianClustersSpec):
            if spec.num_classes != k:
                raise ValueError(f"data.id.num_classes ({spec.num_classes}) != backbone.num_classes ({k})")
            if spec.dim != dim:
                raise ValueError(f"data.id.dim ({spec.dim}) != backbone.input_dim ({dim})")
            for key in ("n_train_per_class", "n_test_per_class"):
                _array_size(f"data.id.{key}", k * getattr(spec, key), dim)
        for i, ood in enumerate(self.data.ood if self.data else ()):
            if hasattr(ood, "n"):  # the synthetic kinds
                _array_size(f"data.ood[{i}].n", ood.n, dim)


def parse_value(raw: str):
    """A command-line value: JSON when it parses, else the plain string."""
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def apply_overrides(d: dict, assignments) -> dict:
    """Apply "dotted.path=value" overrides (values read by ``parse_value``) to
    a raw config dict. A path names list entries as load errors do
    (``data.ood[0].n``); missing object levels are created, list entries
    are not. Returns a new dict; the input is untouched."""
    result = json.loads(json.dumps(d))
    for assignment in assignments:
        key, sep, raw_value = assignment.partition("=")
        if not sep or not key:
            raise ValueError(f"override {assignment!r} is not of the form key=value")
        value = parse_value(raw_value)
        steps: list[str | int] = []
        for part in key.split("."):
            m = re.fullmatch(r"([^\[\]]+)((?:\[\d+\])*)", part)
            if m is None:
                raise ValueError(f"override key {key!r}: malformed part {part!r}")
            steps += [m[1], *map(int, re.findall(r"\d+", m[2]))]
        target, path = result, ""
        for i, step in enumerate(steps):
            path += f"[{step}]" if isinstance(step, int) else "." * bool(path) + step
            if isinstance(step, int) and step >= len(target):
                raise ValueError(f"override {key!r}: {path} is out of range (the list has {len(target)} entries)")
            if i == len(steps) - 1:
                target[step] = value
                break
            child = target[step] if isinstance(step, int) else target.get(step)
            if isinstance(steps[i + 1], int):
                if not isinstance(child, list):
                    raise ValueError(f"override {key!r}: {path} is not a list")
            elif not isinstance(child, dict):
                child = target[step] = {}
            target = child
    return result


def load_config(path, overrides=()) -> ExperimentConfig:
    """Read a JSON config file and apply any key=value overrides."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    if overrides and isinstance(raw, dict):  # anything else fails in from_dict
        raw = apply_overrides(raw, overrides)
    return ExperimentConfig.from_dict(raw)
