"""Datasets: the Dataset and Normalization types, IDX and CSV reading, CSV
text that ``harness.write_files`` writes, standardization and batching.

Features are float64 matrices of shape (n, dim); labels, when present, are
1-based class ids. Data is raw until standardize(dataset, stats) applies the
statistics that Normalization.fit fitted on the ID training split, in place.
The synthetic sets are drawn by the data specs in config.py.

Set-up holds one copy of the data: each set is made once, in its final
float64 array. The loaders scale their arrays in place, and
harness.build_datasets standardizes each set's own array as soon as it is
built, so the only second array the size of a dataset is the temporary
that Normalization.fit's std makes of the ID training split.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .rng import RngStream

__all__ = [
    "Normalization",
    "Dataset",
    "Batch",
    "load_idx",
    "read_lines",
    "parse_number",
    "load_csv",
    "dataset_csv",
    "standardize",
    "batch_iter",
]

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass(frozen=True)
class Normalization:
    """Per-feature affine statistics: transformed = (x - mean) / std."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "std", np.asarray(self.std, dtype=np.float64))
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise ValueError("mean and std must be 1-d arrays of equal length")
        if not (np.isfinite(self.mean).all() and np.isfinite(self.std).all() and (self.std > 0.0).all()):
            raise ValueError("mean and std entries must be finite, and std entries positive")

    @classmethod
    def fit(cls, features) -> "Normalization":
        """Per-feature mean and std of ``features``, the std floored at 1e-8."""
        return cls(features.mean(axis=0), np.maximum(features.std(axis=0), 1e-8))


@dataclass
class Dataset:
    """A named feature matrix with optional 1-based labels. The features are a read-only C-order float64
    matrix: a writeable one that owns its data is taken over and made read-only; anything else is copied."""

    name: str
    features: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        feats = self.features
        if not (type(feats) is np.ndarray and feats.dtype == np.float64 and feats.flags.carray and feats.flags.owndata):
            feats = np.array(feats, dtype=np.float64, order="C")
        if feats.ndim != 2 or feats.shape[0] < 1:
            raise ValueError(f"features must be a non-empty 2-d matrix, got shape {feats.shape}")
        if not np.all(np.isfinite(feats)):
            raise ValueError(f"dataset {self.name!r} contains non-finite features")
        feats.setflags(write=False)
        self.features = feats
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.shape != (feats.shape[0],):
                raise ValueError(f"labels must have shape ({feats.shape[0]},), got {labels.shape}")
            if not np.issubdtype(labels.dtype, np.integer):
                raise ValueError("labels must be integers")
            if np.any(labels < 1):
                raise ValueError("class labels are 1-based; found a label below 1")
            labels = labels.astype(np.int64)
            labels.setflags(write=False)
            self.labels = labels

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def feature_range(self) -> tuple[float, float]:
        return float(self.features.min()), float(self.features.max())


def _read_idx_header(raw: bytes, path, expected_magic: int, n_dims: int) -> tuple[int, ...]:
    header_len = 4 * (1 + n_dims)
    if len(raw) < header_len:
        raise ValueError(f"{path}: truncated IDX header ({len(raw)} bytes)")
    fields = struct.unpack(f">{1 + n_dims}I", raw[:header_len])
    if fields[0] != expected_magic:
        raise ValueError(f"{path}: bad IDX magic 0x{fields[0]:08x} at offset 0 (expected 0x{expected_magic:08x})")
    return fields[1:]


def load_idx(images_path, labels_path=None, name: str | None = None) -> Dataset:
    """Load an IDX image file (and optional IDX label file) as a dataset.

    Pixels are scaled to [0, 1] and flattened to rows. Label bytes b become
    class ids b + 1, keeping labels 1-based package-wide.
    """
    images_path = Path(images_path)
    raw = images_path.read_bytes()
    n, rows, cols = _read_idx_header(raw, images_path, IDX_IMAGE_MAGIC, 3)
    expected = 16 + n * rows * cols
    if len(raw) != expected:
        raise ValueError(f"{images_path}: expected {expected} bytes for {n} images of {rows}x{cols}, found {len(raw)}")
    features = np.frombuffer(raw, dtype=np.uint8, offset=16).reshape(n, rows * cols).astype(np.float64)
    del raw  # free the file's bytes before the features are scaled and checked
    features /= 255.0

    labels = None
    if labels_path is not None:
        labels_path = Path(labels_path)
        raw_labels = labels_path.read_bytes()
        (n_labels,) = _read_idx_header(raw_labels, labels_path, IDX_LABEL_MAGIC, 1)
        if len(raw_labels) != 8 + n_labels:
            raise ValueError(
                f"{labels_path}: expected {8 + n_labels} bytes for {n_labels} labels, found {len(raw_labels)}"
            )
        if n_labels != n:
            raise ValueError(f"{labels_path}: {n_labels} labels for {n} images")
        labels = np.frombuffer(raw_labels, dtype=np.uint8, offset=8).astype(np.int64) + 1

    return Dataset(name or images_path.stem, features, labels)


def read_lines(path) -> list[tuple[int, str]]:
    """(line number, stripped line) for each non-blank line of a UTF-8 text
    file; the numbers count blank lines, so they are the file's own."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return [(line_no, line.strip()) for line_no, line in enumerate(fh, start=1) if line.strip()]
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not UTF-8 text") from None


def parse_number(cell: str, path, line_no: int, where: str, finite: bool = True) -> float:
    """The number in a CSV cell, whitespace around it allowed. Anything else, or a
    non-finite value if ``finite``, raises a ValueError naming file, line and ``where``."""
    text = cell.strip()
    try:
        # float() also takes "1_0" and non-ASCII digits, which no CSV writer
        # emits; on ASCII without "_" it takes only sign, digits, point,
        # exponent and the nan/inf spellings.
        if not text.isascii() or "_" in text:
            raise ValueError
        value = float(text)
    except ValueError:
        raise ValueError(f"{path}: line {line_no}: {where}{text!r} is not numeric") from None
    if finite and not math.isfinite(value):
        raise ValueError(f"{path}: line {line_no}: {where}{text!r} is not finite")
    return value


def load_csv(path, has_labels: bool = False, name: str | None = None) -> Dataset:
    """Load a headed CSV of float features, optionally with a trailing integer
    label column. Malformed and non-finite cells are reported with line and
    column numbers."""
    path = Path(path)
    lines = read_lines(path)
    if len(lines) < 2:
        raise ValueError(f"{path}: need a header line and at least one data row")
    n_cols = len(lines[0][1].split(","))
    if has_labels and n_cols < 2:
        raise ValueError(f"{path}: labeled data needs at least 2 columns, header has {n_cols}")

    # (where, finite) per column; a label is checked below.
    columns = [(f"column {col}: ", not (has_labels and col == n_cols)) for col in range(1, n_cols + 1)]
    rows = []
    labels = []
    for line_no, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != n_cols:
            raise ValueError(f"{path}: line {line_no}: expected {n_cols} columns, got {len(cells)}")
        values = [parse_number(cell, path, line_no, *column) for cell, column in zip(cells, columns)]
        if has_labels:
            label = values.pop()
            # is_integer is False for inf and nan, which int() would raise on.
            if not label.is_integer():
                raise ValueError(f"{path}: line {line_no}: label {cells[-1].strip()!r} is not an integer")
            if label < 1:
                raise ValueError(f"{path}: line {line_no}: label {cells[-1].strip()!r} is below 1 (labels are 1-based)")
            if label >= 2**63:
                raise ValueError(f"{path}: line {line_no}: label {cells[-1].strip()!r} does not fit in 64 bits")
            labels.append(int(label))
        rows.append(values)

    features = np.array(rows, dtype=np.float64)
    return Dataset(
        name or path.stem,
        features,
        np.array(labels, dtype=np.int64) if has_labels else None,
    )


def dataset_csv(dataset: Dataset) -> str:
    """CSV text that load_csv reads back: header x1..xD (plus label), floats
    via repr so a round trip reproduces every value exactly."""
    header = [f"x{i + 1}" for i in range(dataset.dim)]
    if dataset.labels is not None:
        header.append("label")
    lines = [",".join(header)]
    for i in range(len(dataset)):
        cells = [repr(float(v)) for v in dataset.features[i]]
        if dataset.labels is not None:
            cells.append(str(int(dataset.labels[i])))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def standardize(dataset: Dataset, stats: Normalization) -> Dataset:
    """Shift and scale features by ``stats``, the statistics that
    ``Normalization.fit`` fitted on the ID training split, in place: for a
    set that nothing else holds, as a builder has just made it.
    ``dataset``'s own array is handed to the returned Dataset, so
    ``dataset`` is spent. The array is read-only again on return, and also
    when the result fails Dataset's checks."""
    if stats.mean.size != dataset.dim:
        raise ValueError(f"statistics are {stats.mean.size}-dimensional, data is {dataset.dim}-dimensional")
    features = dataset.features
    features.setflags(write=True)  # a Dataset owns its features, so they can be made writeable again
    try:
        np.subtract(features, stats.mean, out=features)
        return Dataset(dataset.name, np.divide(features, stats.std, out=features), dataset.labels)
    finally:
        features.setflags(write=False)


class Batch(NamedTuple):
    features: np.ndarray
    labels: np.ndarray | None
    indices: np.ndarray


def batch_iter(dataset: Dataset, batch_size: int, shuffle_seed: int, epoch: int) -> Iterator[Batch]:
    """Minibatches in a fresh per-epoch shuffle order; the last batch may be
    short. The order depends only on (shuffle_seed, epoch)."""
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    order = RngStream(shuffle_seed, f"shuffle/epoch{int(epoch)}").permutation(len(dataset))
    for start in range(0, len(dataset), batch_size):
        idx = order[start : start + batch_size]
        labels = dataset.labels[idx] if dataset.labels is not None else None
        yield Batch(dataset.features[idx], labels, idx)
