"""Datasets: the synthetic data specs, IDX/CSV loaders, standardization,
batching."""

import hashlib
import struct
from pathlib import Path

import numpy as np
import pytest

from uenl.config import GaussianClustersSpec, GaussianNoiseOodSpec, ShiftedGaussianOodSpec, UniformOodSpec, load_config
from uenl.data import (
    Batch,
    Dataset,
    Normalization,
    batch_iter,
    dataset_csv,
    load_csv,
    load_idx,
    standardize,
)
from uenl.harness import build_raw_datasets, write_files

SHIPPED_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "desk_synthetic.json"


def clusters(dim=3, num_classes=3, n=50, sigma=0.3, seed=9, mean_scale=1.0) -> Dataset:
    """The train split of a Gaussian-clusters spec; its class means are
    ``mean_scale * np.eye(num_classes, dim)``."""
    return GaussianClustersSpec(dim, num_classes, n, 1, sigma, seed, mean_scale).build()[0]


class TestDatasetType:
    def test_validation(self):
        with pytest.raises(ValueError):
            Dataset("d", np.zeros((0, 3)))
        with pytest.raises(ValueError):
            Dataset("d", np.array([[np.inf, 0.0]]))
        with pytest.raises(ValueError):
            Dataset("d", np.zeros((2, 3)), labels=np.array([1]))
        with pytest.raises(ValueError):
            Dataset("d", np.zeros((2, 3)), labels=np.array([1.5, 2.0]))
        with pytest.raises(ValueError):
            Dataset("d", np.zeros((2, 3)), labels=np.array([0, 1]))  # 1-based

    def test_accessors_and_immutability(self):
        ds = Dataset("d", np.array([[1.0, 2.0], [3.0, -4.0]]), labels=np.array([1, 2]))
        assert len(ds) == 2
        assert ds.dim == 2
        assert ds.feature_range() == (-4.0, 3.0)
        with pytest.raises(ValueError):
            ds.features[0, 0] = 9.0

    def test_owned_float64_array_is_taken_over(self):
        features = np.arange(6.0).reshape(3, 2).copy()
        ds = Dataset("d", features)
        assert ds.features is features
        assert not features.flags.writeable
        with pytest.raises(ValueError):
            features[0, 0] = 9.0

    @pytest.mark.parametrize(
        "view",
        [
            lambda base: base[1:],
            lambda base: base[:, ::2],
            lambda base: base.T,
            lambda base: base.reshape(8, 3),
        ],
        ids=["rows", "strided", "fortran", "reshaped"],
    )
    def test_view_is_copied(self, view):
        base = np.arange(24.0).reshape(4, 6)
        given = view(base)
        expected = given.copy()
        ds = Dataset("d", given)
        assert not np.shares_memory(ds.features, base)
        assert ds.features.flags.c_contiguous and not ds.features.flags.writeable
        base[...] = -1.0
        np.testing.assert_array_equal(ds.features, expected)
        assert given.flags.writeable

    @pytest.mark.parametrize(
        "features",
        [np.ones((2, 3), dtype=np.float32), np.ones((2, 3), order="F"), [[1.0, 2.0]]],
        ids=["float32", "fortran", "list"],
    )
    def test_other_dtypes_orders_and_lists_are_copied(self, features):
        ds = Dataset("d", features)
        assert ds.features is not features
        assert ds.features.dtype == np.float64 and ds.features.flags.c_contiguous
        np.testing.assert_array_equal(ds.features, np.asarray(features, dtype=np.float64))
        if isinstance(features, np.ndarray):
            assert features.flags.writeable

    def test_read_only_array_is_copied(self):
        features = np.zeros((2, 2))
        features.setflags(write=False)
        assert Dataset("d", features).features is not features


class TestNormalizationType:
    def test_validation(self):
        with pytest.raises(ValueError):
            Normalization(np.zeros(3), np.ones(2))
        with pytest.raises(ValueError):
            Normalization(np.zeros(3), np.array([1.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            Normalization(np.zeros((2, 2)), np.ones((2, 2)))

    @pytest.mark.parametrize("mean,std", [([np.nan], [1.0]), ([np.inf], [1.0]), ([0.0], [np.nan]), ([0.0], [np.inf])])
    def test_rejects_non_finite_statistics(self, mean, std):
        with pytest.raises(ValueError, match="must be finite"):
            Normalization(np.array(mean), np.array(std))

    def test_fit_is_what_standardize_fits(self):
        features = np.column_stack([np.full(6, 3.0), np.arange(6.0)])
        stats = Normalization.fit(features)
        np.testing.assert_array_equal(stats.mean, features.mean(axis=0))
        np.testing.assert_array_equal(stats.std, [1e-8, features[:, 1].std()])
        out = standardize(Dataset("d", features), stats)
        np.testing.assert_array_equal(out.features, (features - stats.mean) / stats.std)


class TestGaussianClusters:
    def test_cluster_sample_means(self):
        # Three classes on the basis axes of 3-d space, sigma 0.2: at n=1e4 per
        # class the per-cluster sample mean concentrates within 0.02 of its center.
        ds = clusters(n=10_000, sigma=0.2, seed=5)
        for c in range(3):
            sample_mean = ds.features[ds.labels == c + 1].mean(axis=0)
            assert np.abs(sample_mean - np.eye(3)[c]).max() < 0.02

    def test_same_seed_identical(self):
        spec = GaussianClustersSpec(4, 3, 50, 20, 0.3, 9)
        (a_train, a_test), (b_train, b_test) = spec.build(), spec.build()
        for a, b in ((a_train, b_train), (a_test, b_test)):
            np.testing.assert_array_equal(a.features, b.features)
            np.testing.assert_array_equal(a.labels, b.labels)
        # The splits draw from their own streams.
        assert not np.array_equal(a_train.features[:20], a_test.features)

    def test_vanishing_sigma_degenerates_to_means(self):
        ds = clusters(dim=3, num_classes=2, n=10, sigma=1e-12, seed=1, mean_scale=2.0)
        np.testing.assert_allclose(ds.features, np.repeat(2.0 * np.eye(2, 3), 10, axis=0), atol=1e-10)

    def test_labels_in_row_order(self):
        ds = clusters(n=4, sigma=0.1, seed=2)
        assert ds.labels.tolist() == [1] * 4 + [2] * 4 + [3] * 4

    def test_validation(self):
        with pytest.raises(ValueError, match="mean_scale"):
            GaussianClustersSpec(3, 2, 5, 5, 0.1, 0, mean_scale=0.0)  # every class mean at the origin
        with pytest.raises(ValueError, match="sigma"):
            GaussianClustersSpec(2, 2, 5, 5, 0.0, 0)
        with pytest.raises(ValueError, match="n_train_per_class"):
            GaussianClustersSpec(2, 2, 0, 5, 0.1, 0)
        with pytest.raises(ValueError, match="num_classes"):
            GaussianClustersSpec(4, 5, 5, 5, 0.1, 0)  # one axis per class mean

    def test_basis_means_layout(self):
        ds = clusters(dim=4, num_classes=2, n=1, sigma=1e-300, seed=3, mean_scale=3.0)
        np.testing.assert_allclose(ds.features, [[3.0, 0, 0, 0], [0, 3.0, 0, 0]], rtol=0, atol=1e-290)


class TestOodGenerators:
    ID_STATS = Normalization(np.zeros(6), np.ones(6))  # read by gaussian_noise only

    def test_uniform_bounds_and_determinism(self):
        spec = UniformOodSpec("uniform", 500, -2.0, 2.0, 3)
        a, b = spec.build(6, self.ID_STATS), spec.build(6, self.ID_STATS)
        np.testing.assert_array_equal(a.features, b.features)
        assert a.features.shape == (500, 6)
        assert a.features.min() >= -2.0 and a.features.max() < 2.0
        assert a.labels is None
        with pytest.raises(ValueError):
            UniformOodSpec("uniform", 5, 1.0, 1.0, 0)
        with pytest.raises(ValueError):
            UniformOodSpec("uniform", 0, 0.0, 1.0, 0)

    def test_shifted_gaussian_center(self):
        ds = ShiftedGaussianOodSpec("shifted", 20_000, 3.0, 0.2, 4).build(4, self.ID_STATS)
        np.testing.assert_allclose(ds.features.mean(axis=0), 3.0, atol=0.01)
        with pytest.raises(ValueError):
            ShiftedGaussianOodSpec("shifted", 10, 0.0, -1.0, 0)

    def test_noise_matches_id_moments(self):
        # Mean/std over 1e5 samples within 1% of the ID statistics.
        stats = Normalization(np.array([2.0, -1.0]), np.array([0.5, 3.0]))
        ds = GaussianNoiseOodSpec("noise", 100_000, 6).build(2, stats)
        mean_err = (ds.features.mean(axis=0) - stats.mean) / stats.std
        assert np.abs(mean_err).max() < 0.01
        np.testing.assert_allclose(ds.features.std(axis=0), stats.std, rtol=0.01)

    def test_noise_deterministic(self):
        stats = Normalization(np.zeros(3), np.ones(3))
        spec = GaussianNoiseOodSpec("noise", 50, 7)
        np.testing.assert_array_equal(spec.build(3, stats).features, spec.build(3, stats).features)

    def test_noise_far_from_tight_clusters_in_high_dim(self):
        # Norm concentration: as the dimension grows past 8, matched-moment
        # noise lands farther than 3 sigma from every class center for an
        # ever-larger fraction of points, reaching all of them by D = 32.
        fractions = []
        for dim in (8, 16, 32):
            train = clusters(dim=dim, n=500, sigma=0.2, seed=8)
            stats = Normalization.fit(train.features)
            noise = GaussianNoiseOodSpec("gaussian_noise", 2000, 9).build(dim, stats)
            dists = np.linalg.norm(noise.features[:, None, :] - np.eye(3, dim)[None, :, :], axis=2)
            fractions.append((dists.min(axis=1) > 3 * 0.2).mean())
        assert fractions[0] >= 0.85
        assert fractions[1] >= 0.98
        assert fractions[2] == 1.0
        assert fractions[0] < fractions[1] < fractions[2]


# sha256 of each raw split of configs/desk_synthetic.json: its little-endian
# float64 features, then its int64 labels. The spec classes took over the
# generators without changing a bit.
SHIPPED_SHA256 = {
    "id_train": "9897843dea8505a5287e61db6769e29e1c0f87e71316b122fc410c3979f33bc5",
    "id_test": "4db1b0c8626be35de6453df25fd8bd3347d90ec2d085713bae96d5a1091d402e",
    "uniform": "1e8efd993e902c77c7f9dc91ca7d83fa8658287feef1345be5d834a5b6426ccc",
    "shifted_gaussian": "ba9380b5e0a38c9e38541fa873eae93c8bd2369a6de11356b8858ffb36c4a89e",
    "gaussian_noise": "b55a8b56d77e4b3d478fbfb6842ed92afbc33766582acb07d6658d36f51da47e",
}


def test_shipped_raw_datasets_are_pinned():
    train, test, ood, _ = build_raw_datasets(load_config(SHIPPED_CONFIG))
    digests = {}
    for ds in (train, test, *ood.values()):
        h = hashlib.sha256(ds.features.astype("<f8").tobytes())
        if ds.labels is not None:
            h.update(ds.labels.astype("<i8").tobytes())
        digests[ds.name] = h.hexdigest()
    assert digests == SHIPPED_SHA256


def _idx_image_bytes(n, rows, cols, pixels):
    return struct.pack(">4I", 0x00000803, n, rows, cols) + bytes(pixels)


def _idx_label_bytes(labels):
    return struct.pack(">2I", 0x00000801, len(labels)) + bytes(labels)


class TestIdxLoader:
    def test_header_and_shapes(self, tmp_path):
        # dims 2, 3, 4: two samples of 3x4 = 12 features.
        pixels = list(range(24))
        path = tmp_path / "images.idx"
        path.write_bytes(_idx_image_bytes(2, 3, 4, pixels))
        ds = load_idx(path)
        assert len(ds) == 2
        assert ds.dim == 12
        np.testing.assert_allclose(ds.features[0], np.arange(12) / 255.0)

    def test_pixel_scaling_bounds(self, tmp_path):
        path = tmp_path / "images.idx"
        path.write_bytes(_idx_image_bytes(1, 1, 2, [0, 255]))
        ds = load_idx(path)
        np.testing.assert_array_equal(ds.features, [[0.0, 1.0]])

    def test_labels_become_one_based(self, tmp_path):
        images = tmp_path / "images.idx"
        labels = tmp_path / "labels.idx"
        images.write_bytes(_idx_image_bytes(2, 1, 1, [10, 20]))
        labels.write_bytes(_idx_label_bytes([0, 9]))
        ds = load_idx(images, labels)
        assert ds.labels.tolist() == [1, 10]

    def test_bad_magic_reports_offset_and_expectation(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">4I", 0x00000801, 1, 1, 1) + b"\x00")
        with pytest.raises(ValueError, match="magic") as err:
            load_idx(path)
        assert "0x00000803" in str(err.value)

    def test_truncated_payload_reports_byte_counts(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(_idx_image_bytes(2, 3, 4, list(range(20))))  # 4 bytes short
        with pytest.raises(ValueError, match="expected 40 bytes") as err:
            load_idx(path)
        assert "36" in str(err.value)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "stub.idx"
        path.write_bytes(b"\x00\x00\x08")
        with pytest.raises(ValueError, match="truncated"):
            load_idx(path)

    def test_label_count_mismatch(self, tmp_path):
        images = tmp_path / "images.idx"
        labels = tmp_path / "labels.idx"
        images.write_bytes(_idx_image_bytes(2, 1, 1, [1, 2]))
        labels.write_bytes(_idx_label_bytes([0]))
        with pytest.raises(ValueError, match="1 labels for 2 images"):
            load_idx(images, labels)

    def test_label_payload_length_reports_byte_counts(self, tmp_path):
        images = tmp_path / "images.idx"
        labels = tmp_path / "labels.idx"
        images.write_bytes(_idx_image_bytes(2, 1, 1, [1, 2]))
        labels.write_bytes(_idx_label_bytes([0, 1]) + b"\x00")
        with pytest.raises(ValueError, match="expected 10 bytes for 2 labels, found 11"):
            load_idx(images, labels)


class TestCsvLoader:
    def test_labeled_data_needs_two_columns(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("label\n1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="labeled data needs at least 2 columns, header has 1"):
            load_csv(path, has_labels=True)

    def test_single_labeled_row(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x1,x2,label\n0.0,1.0,2\n")
        ds = load_csv(path, has_labels=True)
        assert len(ds) == 1
        np.testing.assert_array_equal(ds.features, [[0.0, 1.0]])
        assert ds.labels.tolist() == [2]

    def test_unlabeled(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x1,x2\n0.5,1.5\n2.5,3.5\n")
        ds = load_csv(path)
        assert ds.labels is None
        assert ds.features.shape == (2, 2)

    def test_non_numeric_cell_names_line_and_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x1,x2\n0.0,oops\n")
        with pytest.raises(ValueError, match="line 2") as err:
            load_csv(path)
        assert "column 2" in str(err.value)
        assert "oops" in str(err.value)

    # float() takes all of these; no CSV writer emits them.
    @pytest.mark.parametrize("cell", ["1_0", "\u0663", "\uff11", "0x10", "1e", ".", "+-1", "\u0131nf", "1 2"])
    def test_only_ascii_number_syntax(self, tmp_path, cell):
        path = tmp_path / "data.csv"
        path.write_text(f"x1,x2\n0.5,1\n\n0.5,{cell}\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}: line 4: column 2: {cell!r} is not numeric"

    def test_number_spellings_and_whitespace(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x1,x2,x3,x4,label\n 1.,-.5e+2 ,+3E-1,\t7\u00a0,2\n", encoding="utf-8")
        ds = load_csv(path, has_labels=True)
        np.testing.assert_array_equal(ds.features, [[1.0, -50.0, 0.3, 7.0]])
        assert ds.labels.tolist() == [2]

    @pytest.mark.parametrize("cell", ["nan", "1e999", "-inf"])
    def test_non_finite_feature_names_line_and_column(self, tmp_path, cell):
        path = tmp_path / "data.csv"
        # The blank line counts: the bad cell is on line 4 of the file.
        path.write_text(f"x1,x2,label\n0.0,1.0,1\n\n0.5,{cell},2\n")
        for has_labels in (False, True):
            with pytest.raises(ValueError) as info:
                load_csv(path, has_labels=has_labels)
            assert str(info.value) == f"{path}: line 4: column 2: '{cell}' is not finite"

    def test_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"x1,x2\n0.5,\xff\n")
        with pytest.raises(ValueError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}: not UTF-8 text"

    def test_column_count_mismatch(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x1,x2\n1.0,2.0,3.0\n")
        with pytest.raises(ValueError, match="line 2"):
            load_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x1,x2\n")
        with pytest.raises(ValueError, match="header"):
            load_csv(path)

    def test_fractional_label_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x1,label\n0.0,1.5\n")
        with pytest.raises(ValueError, match="label"):
            load_csv(path, has_labels=True)

    @pytest.mark.parametrize("cell", ["inf", "nan", "1.5"])
    def test_non_integer_label_names_the_file_line(self, tmp_path, cell):
        path = tmp_path / "data.csv"
        # The blank line counts: the bad label is on line 4 of the file.
        path.write_text(f"x1,label\n0.0,1\n\n0.0,{cell}\n")
        with pytest.raises(ValueError, match=f"line 4: label '{cell}' is not an integer"):
            load_csv(path, has_labels=True)

    @pytest.mark.parametrize("cell", ["0", "-2"])
    def test_label_below_one_names_the_file_line(self, tmp_path, cell):
        path = tmp_path / "data.csv"
        path.write_text(f"x1,label\n0.0,1\n\n0.0,{cell}\n")
        with pytest.raises(ValueError) as info:
            load_csv(path, has_labels=True)
        assert str(info.value) == f"{path}: line 4: label '{cell}' is below 1 (labels are 1-based)"

    def test_label_too_large_names_the_file_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x1,label\n0.0,9223372036854775807\n0.0,1e30\n")
        with pytest.raises(ValueError) as info:
            load_csv(path, has_labels=True)
        # 2**63 - 1 reads as the float 2**63, one past the int64 range.
        assert str(info.value) == f"{path}: line 2: label '9223372036854775807' does not fit in 64 bits"

    def test_save_load_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(10)
        ds = Dataset("blob", rng.normal(size=(20, 5)) * 1e3, labels=rng.integers(1, 4, 20))
        path = tmp_path / "round.csv"
        write_files({path: [dataset_csv(ds)]})
        back = load_csv(path, has_labels=True)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_round_trip_unlabeled(self, tmp_path):
        ds = Dataset("blob", np.array([[1.0 / 3.0, np.pi], [-1e-17, 2.0**52]]))
        path = tmp_path / "round.csv"
        write_files({path: [dataset_csv(ds)]})
        back = load_csv(path)
        np.testing.assert_array_equal(back.features, ds.features)


class TestStandardize:
    def test_self_fit_zero_mean_unit_std(self):
        rng = np.random.default_rng(11)
        ds = Dataset("d", rng.normal(2.0, 5.0, size=(300, 4)))
        out = standardize(ds, Normalization.fit(ds.features))
        np.testing.assert_allclose(out.features.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.features.std(axis=0), 1.0, atol=1e-10)

    def test_constant_feature_floor(self):
        ds = Dataset("d", np.column_stack([np.full(10, 7.0), np.arange(10.0)]))
        stats = Normalization.fit(ds.features)
        out = standardize(ds, stats)
        np.testing.assert_array_equal(out.features[:, 0], 0.0)
        assert stats.std[0] == 1e-8

    def test_id_stats_preserve_ood_shift(self):
        rng = np.random.default_rng(12)
        base = rng.normal(size=(200, 3))
        id_ds = Dataset("id", base)
        ood_ds = Dataset("ood", base + 4.0)
        stats = Normalization.fit(id_ds.features)
        std_id, std_ood = standardize(id_ds, stats), standardize(ood_ds, stats)
        shift = std_ood.features - std_id.features
        np.testing.assert_allclose(
            shift, np.broadcast_to(4.0 / stats.std, shift.shape), atol=1e-12
        )

    def test_dim_mismatch(self):
        stats = Normalization(np.zeros(2), np.ones(2))
        with pytest.raises(ValueError):
            standardize(Dataset("d", np.zeros((3, 4))), stats)

    def test_standardize_leaves_its_input_alone(self):
        features = np.random.default_rng(13).normal(size=(20, 3))
        ds = Dataset("d", features.copy(), np.arange(1, 21))
        stats = Normalization.fit(ds.features)
        out = standardize(ds, stats)
        assert out is not ds and not np.shares_memory(out.features, ds.features)
        assert ds.features.tobytes() == features.tobytes()


class TestBatchIter:
    def test_partition_sizes(self):
        ds = Dataset("d", np.arange(10.0).reshape(5, 2), labels=np.arange(1, 6))
        sizes = [len(b.features) for b in batch_iter(ds, 2, shuffle_seed=1, epoch=0)]
        assert sizes == [2, 2, 1]

    def test_deterministic_per_seed_epoch(self):
        ds = Dataset("d", np.arange(40.0).reshape(20, 2))
        a = [b.indices.tolist() for b in batch_iter(ds, 8, shuffle_seed=3, epoch=2)]
        b = [b.indices.tolist() for b in batch_iter(ds, 8, shuffle_seed=3, epoch=2)]
        assert a == b

    def test_epochs_reshuffle(self):
        ds = Dataset("d", np.arange(60.0).reshape(30, 2))
        e0 = np.concatenate([b.indices for b in batch_iter(ds, 30, shuffle_seed=3, epoch=0)])
        e1 = np.concatenate([b.indices for b in batch_iter(ds, 30, shuffle_seed=3, epoch=1)])
        assert not np.array_equal(e0, e1)

    def test_union_covers_dataset_exactly_once(self):
        ds = Dataset("d", np.arange(26.0).reshape(13, 2), labels=np.arange(1, 14))
        batches = list(batch_iter(ds, 4, shuffle_seed=5, epoch=7))
        all_idx = np.concatenate([b.indices for b in batches])
        assert sorted(all_idx.tolist()) == list(range(13))
        for b in batches:
            assert isinstance(b, Batch)
            np.testing.assert_array_equal(b.features, ds.features[b.indices])
            np.testing.assert_array_equal(b.labels, ds.labels[b.indices])

    def test_batch_size_validation(self):
        ds = Dataset("d", np.zeros((3, 2)))
        with pytest.raises(ValueError):
            list(batch_iter(ds, 0, shuffle_seed=0, epoch=0))

    def test_unlabeled_batches_have_none_labels(self):
        ds = Dataset("d", np.zeros((4, 2)))
        for b in batch_iter(ds, 2, shuffle_seed=0, epoch=0):
            assert b.labels is None
