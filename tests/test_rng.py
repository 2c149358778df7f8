"""Deterministic RNG streams: reproducibility, independence, statistics."""

import numpy as np
import pytest

from uenl.rng import RngStream, derive_seed


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = RngStream(42).normal((1000,))
        b = RngStream(42).normal((1000,))
        np.testing.assert_array_equal(a, b)

    def test_same_seed_same_path_identical_across_methods(self):
        s1, s2 = RngStream(7, "train"), RngStream(7, "train")
        np.testing.assert_array_equal(s1.uniform(-1, 1, (50,)), s2.uniform(-1, 1, (50,)))
        np.testing.assert_array_equal(s1.integers(0, 10, (50,)), s2.integers(0, 10, (50,)))
        np.testing.assert_array_equal(s1.permutation(20), s2.permutation(20))

    def test_different_seeds_differ(self):
        assert not np.array_equal(RngStream(1).normal((100,)), RngStream(2).normal((100,)))


class TestSubstreams:
    def test_substream_path_extension(self):
        root = RngStream(3, "run")
        child = root.substream("dropout")
        assert child.seed == 3
        assert child.path == "run/dropout"

    def test_substream_independent_of_parent_draw_order(self):
        # Drawing from the parent must not shift what a substream produces.
        r1 = RngStream(11)
        r1.normal((100,))
        child_after = r1.substream("init").normal((50,))
        child_fresh = RngStream(11).substream("init").normal((50,))
        np.testing.assert_array_equal(child_after, child_fresh)

    def test_sibling_substreams_differ(self):
        root = RngStream(9)
        a = root.substream("a").normal((100,))
        b = root.substream("b").normal((100,))
        assert not np.array_equal(a, b)

    def test_substream_empty_name_rejected(self):
        with pytest.raises(ValueError):
            RngStream(0).substream("")

    def test_distinct_streams_uncorrelated(self):
        # 1e5 draws from two named streams: empirical correlation below 0.02.
        n = 100_000
        x = RngStream(42, "alpha").normal((n,))
        y = RngStream(42, "beta").normal((n,))
        rho = float(np.corrcoef(x, y)[0, 1])
        assert abs(rho) < 0.02


class TestStatistics:
    def test_seed_42_million_draw_moments(self):
        draws = RngStream(42).normal((1_000_000,))
        assert -0.004 <= draws.mean() <= 0.004
        assert 0.99 <= draws.var() <= 1.01

    def test_uniform_bounds_and_mean(self):
        u = RngStream(8).uniform(2.0, 5.0, (100_000,))
        assert u.min() >= 2.0 and u.max() < 5.0
        assert abs(u.mean() - 3.5) < 0.02

    def test_integers_range_and_coverage(self):
        v = RngStream(8).integers(0, 4, (10_000,))
        assert set(np.unique(v)) == {0, 1, 2, 3}

    def test_permutation_is_valid(self):
        p = RngStream(8).permutation(100)
        assert sorted(p.tolist()) == list(range(100))


class TestValidation:
    def test_seed_range_enforced(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(2**64)
        RngStream(2**64 - 1)  # top of the valid range is accepted

    def test_uniform_bad_interval(self):
        with pytest.raises(ValueError):
            RngStream(0).uniform(1.0, 1.0)

    def test_integers_bad_interval(self):
        with pytest.raises(ValueError):
            RngStream(0).integers(5, 5)

    def test_permutation_negative(self):
        with pytest.raises(ValueError):
            RngStream(0).permutation(-1)


class TestDeriveSeed:
    def test_stable_and_label_sensitive(self):
        assert derive_seed(3, "cell") == derive_seed(3, "cell")
        assert derive_seed(3, "cell") != derive_seed(3, "other")
        assert derive_seed(3, "cell") != derive_seed(4, "cell")

    def test_range_is_valid_seed(self):
        for label in ("a", "validation-noise", "sweep/delta=16"):
            s = derive_seed(123, label)
            assert 0 <= s < 2**63
            RngStream(s)  # accepted by the stream constructor
