"""Experiment harness: dataset assembly, the training loop, evaluation
reports, ablation sweeps, and JSON checkpoints.

Runs are deterministic end to end: the same config (seed included) produces
byte-identical checkpoints and report files.
"""

from __future__ import annotations

import base64
import itertools
import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, GaussianNoiseOodSpec, apply_overrides, json_parser
from .data import Dataset, Normalization, batch_iter, parse_number, read_lines
from .losses import logitnorm_ce, plain_ce, uenl_total
from .metrics import MetricReport, auroc, error_rate, histogram, histogram_csv, histogram_range, metrics_csv
from .model import (
    ModelParams,
    eval_logits,  # unused here, but perfbench/tracing.py rebinds harness.eval_logits
    forward,
    init_params,
    param_leaves,
    param_shapes,
    predict_classes,
    uncertainty_forward,
)
from .optim import OptState, lr_at_epoch, sgd_step
from .rng import RngStream, derive_seed
from .scoring import ScoreSet, energy_score, eval_pass, msp_score, odin_from_pass, scores_csv
from .tensor import Tensor, add, backward, kl

__all__ = [
    "CHECKPOINT_VERSION",
    "REPORT_FILES",
    "DataBundle",
    "Checkpoint",
    "EvaluationReport",
    "build_raw_datasets",
    "build_datasets",
    "check_writable",
    "write_files",
    "train",
    "evaluate",
    "sweep",
    "write_sweep_csv",
    "scores_csv_to_histograms",
]

CHECKPOINT_VERSION = 2
# The files EvaluationReport.write writes, in its order.
REPORT_FILES = ("metrics.csv", "accuracy.csv", "scores.csv", "histograms.csv")


@dataclass(frozen=True)
class DataBundle:
    """Standardized splits ready for training and scoring."""

    id_train: Dataset
    id_test: Dataset
    ood: dict[str, Dataset]
    stats: Normalization
    clip_range: tuple[float, float]


def _standardize_in_place(dataset: Dataset, stats: Normalization) -> Dataset:
    """``data.standardize`` without a copy, for a set that nothing else holds,
    as a builder has just made it: ``dataset``'s own array is shifted and
    scaled and handed to the returned Dataset, so ``dataset`` is spent. The
    array is read-only again on return, and also when the result fails
    Dataset's checks."""
    features = dataset.features
    features.setflags(write=True)  # a Dataset owns its features, so they can be made writeable again
    try:
        np.subtract(features, stats.mean, out=features)
        return Dataset(dataset.name, np.divide(features, stats.std, out=features), dataset.labels)
    finally:
        features.setflags(write=False)


def _build(config: ExperimentConfig, finish) -> tuple[Dataset, Dataset, dict[str, Dataset], Normalization]:
    """ID train/test and OOD sets, each passed through ``finish(dataset,
    stats)`` as soon as it is built and checked, and the raw ID-train
    statistics ``stats``: the ID splits once the statistics are fitted, then
    each OOD set before the next is built. The config has checked everything
    it can; this checks what the files hold: labels against the class count,
    and each set's width."""
    if config.data is None:
        raise ValueError("config has no data section")
    dim, k = config.backbone.input_dim, config.backbone.num_classes
    train, test = config.data.id.build()
    for split in (train, test):
        if split.labels.max() > k:
            raise ValueError(f"ID split {split.name!r} has label {split.labels.max()} but the model has {k} classes")
        if split.dim != dim:
            raise ValueError(f"ID split {split.name!r} is {split.dim}-dimensional, model expects {dim}")
    try:
        stats = Normalization.fit(train.features)
    except ValueError as exc:
        raise ValueError(f"the ID-train statistics (data.id) are unusable: {exc}") from None
    train, test = finish(train, stats), finish(test, stats)
    ood = {}
    for spec in config.data.ood:
        ds = spec.build(dim, stats)
        if ds.dim != dim:
            raise ValueError(f"OOD set {spec.name!r} is {ds.dim}-dimensional, model expects {dim}")
        ood[spec.name] = finish(ds, stats)
    return train, test, ood, stats


def build_raw_datasets(config: ExperimentConfig) -> tuple[Dataset, Dataset, dict[str, Dataset], Normalization]:
    """ID train/test and OOD sets in raw feature space, and the raw ID-train
    statistics."""
    return _build(config, lambda dataset, stats: dataset)


def build_datasets(config: ExperimentConfig) -> DataBundle:
    """The datasets standardized with statistics fitted on the ID train split.
    Each set is standardized in place as soon as it is built, so set-up holds
    at most one raw set (the ID pair while the statistics are fitted) beside
    the finished ones, and no second copy of any but the temporary that
    ``Normalization.fit``'s std makes of the ID train split."""
    train, test, ood, stats = _build(config, _standardize_in_place)
    return DataBundle(train, test, ood, stats, train.feature_range())


def _check_names(what: str, expected: set[str], doc) -> None:
    """Raise unless ``doc`` is a JSON object with exactly the ``expected`` keys."""
    if type(doc) is not dict:
        raise ValueError(f"{what} must be a JSON object, got {type(doc).__name__}")
    problems = [
        f"{label} {', '.join(sorted(names))}"
        for label, names in (("missing", expected - set(doc)), ("unexpected", set(doc) - expected))
        if names
    ]
    if problems:
        raise ValueError(f"{what}: {'; '.join(problems)}")


def _temporary_path(path: Path) -> Path:
    return path.with_name(f".{path.name}.tmp")


def check_writable(path) -> None:
    """Raise OSError unless a file can be written at ``path``: its directory
    must take a new file, and ``path`` must not be a directory. Commands
    call this before any training, so a bad ``--out`` fails at once."""
    path = Path(path)
    if path.is_dir():
        raise OSError(f"cannot write {path}: it is a directory")
    probe = _temporary_path(path)
    try:
        probe.open("w").close()
        probe.unlink()
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from None


def write_files(files) -> None:
    """Write each ``{path: chunks}`` entry, ``chunks`` an iterable of text, as
    UTF-8 with "\\n" line ends: the package's one write path. Each file goes to
    a temporary file beside its target; all are renamed into place once all
    are complete, and every target is checked before the first rename, so a
    failed write leaves every old file whole and no temporary file."""
    temporaries = {}
    try:
        for path, chunks in files.items():
            tmp = temporaries[Path(path)] = _temporary_path(Path(path))
            with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
                for chunk in chunks:
                    fh.write(chunk)
                    del chunk  # free it before the next is built: one chunk in memory at a time
        for path in temporaries:
            if path.is_dir():  # a rename cannot replace a directory: fail before the first rename
                raise IsADirectoryError(f"cannot write {path}: it is a directory")
        for path, tmp in temporaries.items():
            tmp.replace(path)
    except BaseException:
        for tmp in temporaries.values():
            tmp.unlink(missing_ok=True)
        raise


@dataclass
class Checkpoint:
    """A trained model: config, weights, batchnorm state, and training traces.

    ``to_json`` writes version 2: sorted-key JSON in which each tensor's
    ``data`` is the base64 of its C-order little-endian float64 bytes.
    ``from_json`` also reads version 1, whose ``data`` is a list of floats.
    """

    config: ExperimentConfig
    weights: dict[str, Tensor]
    bn_state: dict[str, Tensor]
    final_epoch: int
    train_loss: list[float] = field(default_factory=list)
    test_error: list[float] = field(default_factory=list)

    def params(self) -> ModelParams:
        return ModelParams(self.config, dict(self.weights), dict(self.bn_state))

    def to_json(self) -> str:
        def pack(tensors: dict[str, Tensor]) -> dict:
            return {
                name: {"shape": list(t.shape), "data": base64.b64encode(t.array.astype("<f8").tobytes()).decode()}
                for name, t in tensors.items()
            }

        doc = {
            "version": CHECKPOINT_VERSION,
            "config": self.config.to_dict(),
            "weights": pack(self.weights),
            "bn_state": pack(self.bn_state),
            "final_epoch": self.final_epoch,
            "train_loss": self.train_loss,
            "test_error": self.test_error,
        }
        # sort_keys + fixed separators + repr-based floats + raw float64
        # bytes: identical runs serialize to identical bytes, and every
        # float round-trips exactly.
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    def save(self, path) -> None:
        write_files({path: [self.to_json()]})

    @classmethod
    def from_json(cls, text: str) -> "Checkpoint":
        doc = json.loads(text)
        _check_names("checkpoint", {f.name for f in fields(cls)} | {"version"}, doc)
        version = doc["version"]
        if type(version) is not int or version not in (1, CHECKPOINT_VERSION):
            raise ValueError(f"unsupported checkpoint version {version!r} (expected 1 or {CHECKPOINT_VERSION})")
        try:
            config = ExperimentConfig.from_dict(doc["config"])
        except ValueError as exc:
            raise ValueError(f"config: {exc}") from None
        weight_shapes, bn_shapes = param_shapes(config)

        def unpack(section: str, expected: dict[str, tuple[int, ...]]) -> dict[str, Tensor]:
            packed = doc[section]
            _check_names(f"checkpoint {section}", set(expected), packed)
            tensors = {}
            for name, entry in packed.items():
                _check_names(f"{section}.{name}", {"data", "shape"}, entry)
                shape = list(expected[name])
                size = int(np.prod(shape))
                if entry["shape"] != shape:
                    raise ValueError(f"{section}.{name} has shape {entry['shape']}, the config implies {shape}")
                data = entry["data"]
                if version == 1:  # a list of repr floats
                    array = np.array(data)
                    if array.dtype.kind not in "iuf" or array.shape != (size,):
                        raise ValueError(f"{section}.{name}.data must be a list of {size} numbers")
                else:  # base64 of the C-order <f8 bytes
                    if type(data) is not str:
                        raise ValueError(f"{section}.{name}.data must be a base64 string")
                    try:
                        raw = base64.b64decode(data, validate=True)
                    except ValueError:
                        raise ValueError(f"{section}.{name}.data is not valid base64") from None
                    if len(raw) != 8 * size:
                        raise ValueError(f"{section}.{name}.data holds {len(raw)} bytes, expected {8 * size}")
                    array = np.frombuffer(raw, dtype="<f8")
                if not np.isfinite(array).all():
                    raise ValueError(f"{section}.{name} has non-finite values")
                if section == "bn_state" and name.endswith(".var") and (array < 0.0).any():
                    raise ValueError(f"{section}.{name} has negative running variance entries")
                # Tensor copies, so it owns its memory, not a view of ``raw``.
                tensors[name] = Tensor(array.reshape(shape))
            return tensors

        return cls(
            config=config,
            weights=unpack("weights", weight_shapes),
            bn_state=unpack("bn_state", bn_shapes),
            final_epoch=json_parser(int)(doc["final_epoch"], "final_epoch"),
            train_loss=list(json_parser(tuple[float, ...])(doc["train_loss"], "train_loss")),
            test_error=list(json_parser(tuple[float, ...])(doc["test_error"], "test_error")),
        )

    @classmethod
    def load(cls, path) -> "Checkpoint":
        path = Path(path)
        try:
            return cls.from_json(path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _batch_loss(params, config, xb, yb, dropout_rng, resample_rng, leaves):
    """Loss graph for one minibatch plus the batchnorm updates it implies."""
    fo = forward(params, xb, dropout_rng, leaves=leaves)
    updates = dict(fo.bn_updates)
    if config.method == "ce":
        return plain_ce(fo.logits, yb), updates
    if config.method == "logitnorm":
        return logitnorm_ce(fo.logits, yb, config.temperature), updates
    if config.pinned_uhat is not None:
        # Fixed temperature ablation: the resampler is bypassed entirely, and
        # with kl weight 0 the head never runs, so the loss is the
        # fixed-temperature baseline's own tempered_ce node.
        total = logitnorm_ce(fo.logits, yb, config.pinned_uhat)
        if config.kl_weight > 0.0:
            head = uncertainty_forward(params, fo.embedding, leaves=fo.leaves)
            updates.update(head.bn_updates)
            total = add(total, kl(head.u, config.kl_form, config.kl_weight))
        return total, updates
    head = uncertainty_forward(params, fo.embedding, leaves=fo.leaves)
    updates.update(head.bn_updates)
    total = uenl_total(
        fo.logits,
        head.u,
        yb,
        config.kl_weight,
        resample_rng,
        n_dims=config.delta,
        uhat_scale=config.uhat_scale,
        kl_form=config.kl_form,
    )
    return total, updates


def train(config: ExperimentConfig, bundle: DataBundle | None = None, progress=None) -> Checkpoint:
    """Train a model per the config; returns the final checkpoint.

    ``progress``, if given, is called as progress(epoch, mean_loss, test_error)
    after each epoch.
    """
    if bundle is None:
        bundle = build_datasets(config)
    root = RngStream(config.seed)
    params = init_params(config, root)
    dropout_rng = root.substream("dropout")
    resample_rng = root.substream("resample")
    opt_state = OptState(param_shapes(config)[0], params.weights)

    overlap = set(params.weights) & set(params.bn_state)
    if overlap:
        raise AssertionError(f"batchnorm state leaked into trainable weights: {sorted(overlap)}")

    # Optional per-epoch model selection on a held-out Gaussian-noise
    # validation set; the eval OOD sets are never consulted.
    val_features = None
    if config.select_best_validation:
        val_seed = derive_seed(config.seed, "validation-noise")
        raw = GaussianNoiseOodSpec("validation_noise", 500, val_seed).build(config.backbone.input_dim, bundle.stats)
        val_features = _standardize_in_place(raw, bundle.stats).features
        val_id = bundle.id_train.features[: min(1000, len(bundle.id_train))]
        val_method = "uncertainty" if config.method == "uenl" else "msp"
        best_auroc = -1.0
        best_state: tuple[dict, dict, int] | None = None

    loss_trace: list[float] = []
    error_trace: list[float] = []
    for epoch in range(config.epochs):
        lr = lr_at_epoch(epoch, config)
        batch_losses: list[float] = []
        for b, batch in enumerate(batch_iter(bundle.id_train, config.batch_size, config.seed, epoch)):
            leaves = param_leaves(params)
            try:
                total, updates = _batch_loss(
                    params, config, batch.features, batch.labels, dropout_rng, resample_rng, leaves
                )
                grads = backward(total, wrt=list(leaves.values()))
                # Weights outside this batch's graph (e.g. the head under a
                # pinned temperature) have no gradient: sgd_step gives them a
                # zero one, and they still decay. Each step's weights are
                # read-only views of a fresh vector, so the best-epoch
                # snapshot below needs no copy.
                params.weights = sgd_step(
                    opt_state,
                    {name: grads.get(node) for name, node in leaves.items()},
                    lr,
                    config.momentum,
                    config.weight_decay,
                )
            except FloatingPointError as exc:
                raise RuntimeError(f"non-finite value at epoch {epoch}, batch {b}: {exc}") from exc
            batch_losses.append(total.item())
            bad = set(updates) - set(params.bn_state)
            if bad:
                raise AssertionError(f"unknown batchnorm state keys: {sorted(bad)}")
            params.bn_state = {**params.bn_state, **updates}

        loss_trace.append(float(np.mean(batch_losses)))
        predicted = predict_classes(params, bundle.id_test.features)
        error_trace.append(error_rate(predicted, bundle.id_test.labels))
        if progress is not None:
            progress(epoch, loss_trace[-1], error_trace[-1])
        if val_features is not None:
            s_id, s_ood = (
                _dataset_scores(params, x, (val_method,), config.scoring, bundle.clip_range)[1][val_method]
                for x in (val_id, val_features)
            )
            a = auroc(s_id, s_ood)
            if a > best_auroc:
                best_auroc = a
                best_state = (dict(params.weights), dict(params.bn_state), epoch)

    final_epoch = config.epochs - 1
    if val_features is not None and best_state is not None:
        weights, bn_state, final_epoch = best_state
        params = ModelParams(params.config, weights, bn_state)

    return Checkpoint(config, params.weights, params.bn_state, final_epoch, loss_trace, error_trace)


def _dataset_scores(params, features, methods, spec, clip_range) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Eval-mode logits and each method's scores on one dataset, all from
    one eval_pass on one fold of ``params``: every method scores each chunk
    while its graph is alive, and ODIN's perturbed forward shares the fold."""
    model = params.fold()

    def score(out, u_total):
        return out.logits.array, [_scores_for(model, out, m, spec, clip_range, u_total) for m in methods]

    chunks = eval_pass(model, features, score)
    logits = np.concatenate([logits for logits, _ in chunks])
    return logits, {m: np.concatenate([scores[j] for _, scores in chunks]) for j, m in enumerate(methods)}


def _scores_for(model, out, method, spec, clip_range, u_total) -> np.ndarray:
    """One method's scores on one eval_pass chunk: ``out`` is its eval-mode
    ForwardOutput on the FoldedModel ``model`` and ``u_total`` its rows'
    total uncertainty. Only ODIN runs more: an input gradient through
    ``out``'s graph and one perturbed forward on ``model``."""
    if method == "msp":
        return msp_score(out.logits.array)
    if method == "energy":
        return energy_score(out.logits.array, spec.energy_temperature)
    if method == "uncertainty":
        return -u_total
    if method == "odin":
        return odin_from_pass(model, out, spec.odin_temperature, spec.odin_epsilon, clip_range)
    raise ValueError(f"unknown scoring method {method!r}")


def _shared_histograms(method: str, scores, n_bins: int) -> list[tuple[str, str, float, float, int]]:
    """Histogram rows of one method's (dataset, scores) pairs, all binned over
    one range that spans every dataset's scores."""
    span = histogram_range(np.concatenate([values for _, values in scores]))
    return [(dataset, method, *bin_) for dataset, values in scores for bin_ in histogram(values, n_bins, span)]


@dataclass
class EvaluationReport:
    """Detection metrics, classification error, raw scores, and histograms
    for one trained model."""

    metric_rows: list[tuple[str, str, MetricReport]]
    id_error_rate: float
    n_id_test: int
    score_sets: list[ScoreSet]
    histograms: list[tuple[str, str, float, float, int]]

    def mean_metrics(self, method: str) -> dict[str, float]:
        means = MetricReport.method_means(self.metric_rows)
        if method not in means:
            raise KeyError(f"no metric rows for method {method!r}")
        return means[method]

    def write(self, out_dir) -> dict[str, Path]:
        """Write the REPORT_FILES into ``out_dir``; returns their paths by name."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        paths = {name.removesuffix(".csv"): out_dir / name for name in REPORT_FILES}
        err = self.id_error_rate
        accuracy = f"dataset,n,error_rate,accuracy\nid_test,{self.n_id_test},{err!r},{1.0 - err!r}\n"
        metrics, histograms = metrics_csv(self.metric_rows), histogram_csv(self.histograms)
        texts = [metrics], [accuracy], scores_csv(self.score_sets), [histograms]
        write_files(dict(zip(paths.values(), texts)))  # one call: a failed write keeps every old file
        return paths


def evaluate(
    checkpoint: Checkpoint,
    bundle: DataBundle | None = None,
    methods: tuple[str, ...] | None = None,
    histogram_bins: int | None = None,
) -> EvaluationReport:
    """Score the ID test set and every OOD set with each method and compute
    detection metrics per (method, OOD set) pair."""
    config = checkpoint.config
    if bundle is None:
        bundle = build_datasets(config)
    if not bundle.ood:
        raise ValueError("no OOD sets to evaluate against")
    # The spec checks the method names and the bin count before any
    # forward pass.
    spec = replace(
        config.scoring,
        methods=config.scoring.methods if methods is None else tuple(methods),
        histogram_bins=config.scoring.histogram_bins if histogram_bins is None else int(histogram_bins),
    )
    params = checkpoint.params()

    id_logits, id_by_method = _dataset_scores(params, bundle.id_test.features, spec.methods, spec, bundle.clip_range)
    ood_by_method = {
        name: _dataset_scores(params, ds.features, spec.methods, spec, bundle.clip_range)[1]
        for name, ds in bundle.ood.items()
    }
    id_err = error_rate(np.argmax(id_logits, axis=1) + 1, bundle.id_test.labels)

    metric_rows = []
    score_sets = []
    hist_rows = []
    for method in spec.methods:
        id_scores = id_by_method[method]
        ood_scores = {name: scores[method] for name, scores in ood_by_method.items()}
        score_sets.append(ScoreSet(method, id_scores, ood_scores, id_name="id_test"))
        for name in bundle.ood:
            metric_rows.append((method, name, MetricReport.from_scores(id_scores, ood_scores[name])))
        hist_rows += _shared_histograms(method, [("id_test", id_scores), *ood_scores.items()], spec.histogram_bins)

    return EvaluationReport(metric_rows, id_err, len(bundle.id_test), score_sets, hist_rows)


def sweep(base: ExperimentConfig, grid: dict[str, list], progress=None) -> list[dict]:
    """Train and evaluate one run per grid cell (full cross product), building
    each cell's datasets once for both.

    Grid keys are config JSON keys, dotted paths allowed ("lambda", "delta",
    "data.id.sigma", ...). Each cell gets a seed derived from the base seed
    and its cell index, so cells are independent but the whole sweep is
    reproducible. An empty grid is the cross product of nothing: one row,
    the base config itself (base seed included). Returns one flat metrics
    row per cell.
    """
    keys = list(grid)
    for key, values in grid.items():
        if not values:
            raise ValueError(f"sweep grid key {key!r} has no values")
    # Every cell's config is built, and so checked, before the first train.
    cells = []
    for idx, combo in enumerate(itertools.product(*grid.values())):
        overrides = [f"{k}={json.dumps(v)}" for k, v in zip(keys, combo)]
        cell_dict = apply_overrides(base.to_dict(), overrides)
        if keys:
            cell_dict["seed"] = derive_seed(base.seed, f"cell{idx}")
        cells.append((combo, ExperimentConfig.from_dict(cell_dict)))
    rows = []
    for idx, (combo, cell_config) in enumerate(cells):
        if progress is not None:
            progress(idx, dict(zip(keys, combo)))
        bundle = build_datasets(cell_config)
        report = evaluate(train(cell_config, bundle), bundle)
        row: dict = {key: value for key, value in zip(keys, combo)}
        row["seed"] = cell_config.seed
        row["error_rate"] = report.id_error_rate
        for method in cell_config.scoring.methods:
            row.update((f"{method}_{key}", value) for key, value in report.mean_metrics(method).items())
        rows.append(row)
    return rows


def write_sweep_csv(rows: list[dict], path) -> None:
    """One CSV row per sweep cell; floats via repr for exact round trips."""
    if not rows:
        raise ValueError("no sweep rows to write")
    header = list(rows[0])
    lines = [",".join(header)]
    for row in rows:
        if list(row) != header:
            raise ValueError("sweep rows have inconsistent columns")
        lines.append(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row.values()))
    write_files({path: ["\n".join(lines) + "\n"]})


def scores_csv_to_histograms(scores_path, n_bins: int) -> list[tuple[str, str, float, float, int]]:
    """Re-bin a per-sample scores CSV (dataset, sample_index, method, score)
    into histogram rows; each method gets one shared bin range across datasets."""
    path = Path(scores_path)
    lines = read_lines(path)
    if not lines or lines[0][1].split(",") != ["dataset", "sample_index", "method", "score"]:
        raise ValueError(f"{path}: expected header dataset,sample_index,method,score")
    if len(lines) == 1:
        raise ValueError(f"{path}: no score rows after the header")
    grouped: dict[str, dict[str, list[float]]] = {}
    for line_no, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 4:
            raise ValueError(f"{path}: line {line_no}: expected 4 columns, got {len(cells)}")
        dataset, _, method, score = cells
        grouped.setdefault(method, {}).setdefault(dataset, []).append(parse_number(score, path, line_no, "score "))

    return [row for method, scores in grouped.items() for row in _shared_histograms(method, scores.items(), n_bins)]
