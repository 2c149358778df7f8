"""Detection metrics vs brute-force oracles, boundary conventions, CSV export."""

import csv
import time

import numpy as np
import pytest
from oracles import enumerate_fpr_at_tpr, pairwise_auroc, stable_ranking, step_aupr

from conftest import random_scores
from uenl.harness import write_files
from uenl.metrics import (
    FprResult,
    _auroc,
    _aupr,
    _fpr_at_tpr,
    _ranking,
    MetricReport,
    aupr,
    auroc,
    error_rate,
    fpr_at_tpr,
    histogram,
    histogram_csv,
    metrics_csv,
)


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([2.0, 3.0], [0.0, 1.0]) == 1.0

    def test_full_tie(self):
        assert auroc([1.0], [1.0]) == 0.5

    @pytest.mark.parametrize("ties", [False, True, "few"])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_pairwise_oracle_exactly(self, seed, ties):
        rng = np.random.default_rng(1000 + seed)
        id_s, ood_s = random_scores(rng, 50, 50, ties)
        assert auroc(id_s, ood_s) == pairwise_auroc(id_s, ood_s)

    def test_complement_identity_tie_free(self):
        rng = np.random.default_rng(2)
        id_s, ood_s = random_scores(rng, 40, 30, ties=False)
        assert auroc(id_s, ood_s) == pytest.approx(1.0 - auroc(ood_s, id_s), abs=1e-15)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        id_s, ood_s = random_scores(rng, 60, 45, ties=True)
        base = auroc(id_s, ood_s)
        assert auroc(np.exp(id_s), np.exp(ood_s)) == base
        assert auroc(3.0 * id_s + 7.0, 3.0 * ood_s + 7.0) == base

    def test_validation(self):
        with pytest.raises(ValueError):
            auroc([], [1.0])
        with pytest.raises(ValueError):
            auroc([1.0], [])
        with pytest.raises(ValueError):
            auroc([np.nan], [1.0])

    def test_near_linear_scaling(self):
        # Rank-based computation must not degrade to the quadratic pairwise
        # route: 10x more data should cost roughly 10x, far below 100x.
        rng = np.random.default_rng(4)
        small = rng.standard_normal(100_000)
        big = rng.standard_normal(1_000_000)

        def best_of_three(idv, oodv):
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                auroc(idv, oodv)
                times.append(time.perf_counter() - t0)
            return min(times)

        t_small = best_of_three(small, small + 0.5)
        t_big = best_of_three(big, big + 0.5)
        assert t_big / t_small < 30.0


class TestAupr:
    def test_perfect_separation(self):
        assert aupr([5.0, 6.0, 7.0], [1.0, 2.0]) == 1.0

    def test_all_identical_balanced(self):
        assert aupr([1.0, 1.0, 1.0], [1.0, 1.0, 1.0]) == 0.5

    @pytest.mark.parametrize("ties", [False, True, "few"])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_threshold_enumeration_oracle(self, seed, ties):
        rng = np.random.default_rng(2000 + seed)
        id_s, ood_s = random_scores(rng, 35, 50, ties)
        assert aupr(id_s, ood_s) == pytest.approx(step_aupr(id_s, ood_s), abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(5)
        id_s, ood_s = random_scores(rng, 30, 30, ties=True)
        assert 0.0 <= aupr(id_s, ood_s) <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            aupr([], [1.0])


class TestFprAtTpr:
    def test_perfect_separation_with_margin(self):
        res = fpr_at_tpr([10.0, 11.0, 12.0], [1.0, 2.0], 0.95)
        assert res.fpr == 0.0

    def test_identical_multisets_fpr_at_least_tpr(self):
        scores = np.arange(100, dtype=np.float64)
        res = fpr_at_tpr(scores, scores.copy(), 0.95)
        assert res.fpr >= 0.95

    def test_shifted_range_frozen_case(self):
        # id = 1..100; threshold is the 95th-largest id score = 6; the
        # shifted ood scores (id - 10 = -9..90) have 85 values >= 6.
        id_s = np.arange(1.0, 101.0)
        ood_s = id_s - 10.0
        res = fpr_at_tpr(id_s, ood_s, 0.95)
        oracle_fpr, oracle_thr = enumerate_fpr_at_tpr(id_s, ood_s)
        assert res.fpr == oracle_fpr == 0.85
        assert res.threshold == oracle_thr == 6.0

    @pytest.mark.parametrize("ties", [False, True, "few"])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_enumeration_oracle(self, seed, ties):
        rng = np.random.default_rng(3000 + seed)
        id_s, ood_s = random_scores(rng, 60, 40, ties)
        res = fpr_at_tpr(id_s, ood_s, 0.95)
        oracle_fpr, oracle_thr = enumerate_fpr_at_tpr(id_s, ood_s, 0.95)
        assert res.fpr == oracle_fpr
        assert res.threshold == oracle_thr

    def test_threshold_achieves_tpr_and_is_largest(self):
        rng = np.random.default_rng(6)
        id_s, ood_s = random_scores(rng, 73, 50, ties=True)
        res = fpr_at_tpr(id_s, ood_s, 0.95)
        assert (id_s >= res.threshold).mean() >= 0.95
        higher = np.unique(id_s[id_s > res.threshold])
        if higher.size:
            assert (id_s >= higher.min()).mean() < 0.95

    def test_threshold_from_fpr95_yields_tpr(self):
        rng = np.random.default_rng(13)
        id_s = rng.normal(size=400) + 1.0
        ood_s = rng.normal(size=400)
        result = fpr_at_tpr(id_s, ood_s, tpr=0.95)
        assert (id_s >= result.threshold).mean() >= 0.95

    def test_monotone_transform_invariance_of_fpr(self):
        rng = np.random.default_rng(7)
        id_s, ood_s = random_scores(rng, 50, 50, ties=True)
        base = fpr_at_tpr(id_s, ood_s).fpr
        assert fpr_at_tpr(np.exp(id_s), np.exp(ood_s)).fpr == base
        assert fpr_at_tpr(2.0 * id_s - 1.0, 2.0 * ood_s - 1.0).fpr == base

    def test_tpr_one_uses_minimum(self):
        res = fpr_at_tpr([3.0, 1.0, 2.0], [0.5, 1.5], tpr=1.0)
        assert res.threshold == 1.0
        assert res.fpr == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            fpr_at_tpr([1.0], [1.0], tpr=0.0)
        with pytest.raises(ValueError):
            fpr_at_tpr([1.0], [1.0], tpr=1.5)
        with pytest.raises(ValueError):
            fpr_at_tpr([], [1.0])

    def test_default_is_fpr95(self):
        rng = np.random.default_rng(8)
        id_s, ood_s = random_scores(rng, 30, 30, ties=False)
        assert fpr_at_tpr(id_s, ood_s) == fpr_at_tpr(id_s, ood_s, 0.95)
        assert isinstance(fpr_at_tpr(id_s, ood_s), FprResult)


class TestErrorRate:
    def test_all_correct(self):
        assert error_rate([1, 2, 3], [1, 2, 3]) == 0.0

    def test_half_correct(self):
        assert error_rate([1, 2, 1, 2], [1, 2, 2, 1]) == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            error_rate([1, 2], [1])
        with pytest.raises(ValueError):
            error_rate([], [])


class TestHistogram:
    def test_boundary_convention(self):
        rows = histogram([0.0, 0.5, 1.0], 2, (0.0, 1.0))
        assert [r[2] for r in rows] == [2, 1]
        assert rows[0][:2] == (0.0, 0.5)
        assert rows[1][:2] == (0.5, 1.0)

    def test_counts_partition_sample(self):
        rng = np.random.default_rng(9)
        scores = rng.normal(size=1234)
        for bins in (1, 3, 17):
            rows = histogram(scores, bins)
            assert sum(r[2] for r in rows) == 1234

    def test_uniform_concentration(self):
        scores = np.random.default_rng(10).uniform(size=100_000)
        rows = histogram(scores, 10, (0.0, 1.0))
        for _, _, count in rows:
            assert abs(count - 10_000) <= 300  # within 3%

    def test_validation(self):
        with pytest.raises(ValueError):
            histogram([1.0], 0)
        with pytest.raises(ValueError):
            histogram([1.0], 2, (1.0, 0.0))
        with pytest.raises(ValueError):
            histogram([], 2)


class TestMetricReport:
    def test_consistent_with_components(self):
        rng = np.random.default_rng(11)
        id_s, ood_s = random_scores(rng, 80, 60, ties=True)
        report = MetricReport.from_scores(id_s, ood_s)
        assert report.auroc == auroc(id_s, ood_s)
        assert report.aupr == aupr(id_s, ood_s)
        fpr = fpr_at_tpr(id_s, ood_s, 0.95)
        assert report.fpr95 == fpr.fpr
        assert report.threshold == fpr.threshold
        assert (report.n_id, report.n_ood) == (80, 60)
        for value in (report.fpr95, report.auroc, report.aupr):
            assert 0.0 <= value <= 1.0


def _tied_pools(seed: int):
    """Pooled scores with heavy ID/OOD ties: small integer grids, plus one
    block of zeros that mixes 0.0 and -0.0 in both sets."""
    rng = np.random.default_rng(seed)
    id_s, ood_s = random_scores(rng, 700, 500, ties="few" if seed % 2 else True)
    for scores in (id_s, ood_s):
        zeros = rng.random(scores.size) < 0.3
        scores[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    return id_s, ood_s


class TestUnstableRanking:
    """The ranking sorts with numpy's default sort, not a stable one; every
    metric must equal what the stable sort gives, tie for tie."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_stable_sort(self, seed):
        id_s, ood_s = _tied_pools(seed)
        assert (np.signbit(id_s) & (id_s == 0.0)).any() and (np.signbit(ood_s) & (ood_s == 0.0)).any()
        got, want = _ranking(id_s, ood_s), stable_ranking(id_s, ood_s)
        for g, w in zip(got, want):
            # Equal as numbers; the zero block may read 0.0 or -0.0.
            np.testing.assert_array_equal(g, w)
        values, tp, fp = want
        assert auroc(id_s, ood_s) == _auroc(tp, fp)
        assert aupr(id_s, ood_s) == _aupr(tp, fp)
        for tpr in (0.05, 0.5, 0.95, 1.0):
            assert fpr_at_tpr(id_s, ood_s, tpr) == _fpr_at_tpr(values, tp, fp, tpr)
        fpr = _fpr_at_tpr(values, tp, fp, 0.95)
        report = MetricReport.from_scores(id_s, ood_s)
        assert report == MetricReport(fpr.fpr, _auroc(tp, fp), _aupr(tp, fp), fpr.threshold, 700, 500)

    def test_zero_block_threshold_compares_equal_whatever_its_sign(self):
        # FPR95's threshold lands in the mixed zero block: the counts are
        # exact, and the threshold equals 0.0 with either sign bit.
        id_s = np.array([1.0, 0.0, -0.0, 0.0, -0.0, -0.0, 0.0, -0.0, 0.0, -0.0] * 10)
        ood_s = np.array([-0.0, 0.0, -1.0, 0.0, -0.0] * 10)
        report = MetricReport.from_scores(id_s, ood_s)
        assert report.threshold == 0.0
        assert (report.fpr95, report.n_id, report.n_ood) == (0.8, 100, 50)


class TestCsvExport:
    def test_metrics_csv_layout_and_mean_row(self, tmp_path):
        rng = np.random.default_rng(12)
        rows = []
        for method in ("msp", "uncertainty"):
            for ds in ("uniform", "noise"):
                id_s, ood_s = random_scores(rng, 50, 50, ties=False)
                rows.append((method, ds, MetricReport.from_scores(id_s, ood_s)))
        path = tmp_path / "metrics.csv"
        write_files({path: [metrics_csv(rows)]})
        with open(path, newline="") as fh:
            parsed = list(csv.DictReader(fh))
        assert set(parsed[0]) == {"method", "ood_dataset", "fpr95", "auroc", "aupr"}
        # 4 data rows + one mean row per method
        assert len(parsed) == 6
        mean_rows = [r for r in parsed if r["ood_dataset"] == "mean"]
        assert {r["method"] for r in mean_rows} == {"msp", "uncertainty"}
        for method in ("msp", "uncertainty"):
            members = [r for r in rows if r[0] == method]
            expected = float(np.mean([r[2].auroc for r in members]))
            got = float([r for r in mean_rows if r["method"] == method][0]["auroc"])
            assert got == expected  # repr round-trip is exact

    def test_histogram_csv(self, tmp_path):
        rows = [("id", "msp", 0.0, 0.5, 3), ("id", "msp", 0.5, 1.0, 2)]
        path = tmp_path / "hist.csv"
        write_files({path: [histogram_csv(rows)]})
        with open(path, newline="") as fh:
            parsed = list(csv.DictReader(fh))
        assert set(parsed[0]) == {"dataset", "method", "bin_left", "bin_right", "count"}
        assert [int(r["count"]) for r in parsed] == [3, 2]
