import numpy as np
import pytest
from numpy.testing import assert_array_equal

from troppca.tropical import (
    NEG_INF,
    canonicalize,
    sector_of,
    torus_equal,
    trop_combine,
    trop_dist,
)


class TestCombine:
    def test_coordinatewise_max(self):
        assert_array_equal(trop_combine([0, 0], [(0, 1), (1, 0)]), [1, 1])

    def test_single_point_is_a_shift(self):
        out = trop_combine([2.5], [(0.0, 1.0, 3.0)])
        assert_array_equal(out, [2.5, 3.5, 5.5])
        assert torus_equal(out, [0, 1, 3])

    def test_two_point_combination(self):
        assert_array_equal(trop_combine([0, -5], [(0, 0, 0), (0, 10, 10)]), [0, 5, 5])

    def test_neg_inf_scalar_drops_a_point(self):
        assert_array_equal(trop_combine([0, NEG_INF], [(0, 0), (5, 5)]), [0, 0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            trop_combine([0, 0], [(0, 1), (0, 1, 2)])
        with pytest.raises(ValueError):
            trop_combine([0], [(0, 1), (1, 0)])
        with pytest.raises(ValueError):
            trop_combine([], [])


class TestDistance:
    def test_examples(self):
        assert trop_dist((1, 2, 3), (1, 2, 3)) == 0
        assert trop_dist((0, 1, 3), (0, 0, 0)) == 3
        assert trop_dist((1, 2, 4), (0, 0, 0)) == 3  # shifted copy of the previous

    def test_metric_properties_on_random_pairs(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            u, v, w = rng.normal(size=(3, 6))
            assert trop_dist(u, v) >= 0
            assert trop_dist(u, v) == trop_dist(v, u)
            assert trop_dist(u, w) <= trop_dist(u, v) + trop_dist(v, w) + 1e-9

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            v, w = rng.normal(size=(2, 5))
            c = rng.normal(scale=5)
            assert abs(trop_dist(v + c, w) - trop_dist(v, w)) <= 1e-12
        # on a dyadic grid the shifted additions are exact, so equality is exact
        for _ in range(100):
            v, w = rng.integers(-512, 512, size=(2, 5)) / 256.0
            c = rng.integers(-512, 512) / 256.0
            assert trop_dist(v + c, w) == trop_dist(v, w)

    def test_zero_only_on_the_torus_diagonal(self):
        assert trop_dist((1, 2, 3), (0, 1, 2)) == 0
        assert trop_dist((1, 2, 3), (0, 1, 2.5)) > 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            trop_dist((0, 1), (0, 1, 2))


class TestCanonicalize:
    def test_first_coordinate_is_zero(self):
        out = canonicalize((2.0, 3.5, -1.0))
        assert out[0] == 0.0
        assert_array_equal(out, [0.0, 1.5, -3.0])

    def test_idempotent_exactly(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            x = rng.normal(size=7)
            once = canonicalize(x)
            assert_array_equal(canonicalize(once), once)

    def test_shift_consistency_on_dyadic_grid(self):
        # exact float additions, so canonical forms agree bit for bit
        rng = np.random.default_rng(5)
        for _ in range(200):
            x = rng.integers(-2048, 2048, size=6) / 1024.0
            c = rng.integers(-2048, 2048) / 1024.0
            assert_array_equal(canonicalize(x + c), canonicalize(x))

    def test_torus_equal(self):
        assert torus_equal((0, 1, 2), (5, 6, 7))
        assert not torus_equal((0, 1, 2), (0, 1, 2.001))
        assert torus_equal((0, 1, 2), (0, 1, 2.001), tol=0.01)
        assert not torus_equal((0, 1), (0, 1, 2))


class TestSectors:
    def test_open_sectors(self):
        max_s, min_s = sector_of(np.array([0.0, 1.0, 3.0]), np.zeros(3))
        assert max_s == {2}
        assert min_s == {0}

    def test_point_on_both_hyperplanes(self):
        max_s, min_s = sector_of(np.array([0.0, 1.0, 3.0]), np.array([-0.0, -1.0, -3.0]))
        assert max_s == {0, 1, 2}
        assert min_s == {0, 1, 2}

    def test_tie_in_max_only(self):
        max_s, min_s = sector_of(np.array([5.0, 5.0, 0.0]), np.zeros(3))
        assert max_s == {0, 1}
        assert min_s == {2}

    def test_random_points_land_in_open_sectors(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            x = rng.random(8)
            omega = rng.random(8)
            max_s, min_s = sector_of(x, omega, tie_tolerance=0.0)
            assert len(max_s) == 1 and len(min_s) == 1

    def test_tie_tolerance_widens_the_sets(self):
        max_s, min_s = sector_of(np.array([1.0, 0.999, 0.0]), np.zeros(3), tie_tolerance=0.01)
        assert max_s == {0, 1}
        assert min_s == {2}
        with pytest.raises(ValueError):
            sector_of(np.zeros(3), np.zeros(3), tie_tolerance=-1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sector_of(np.zeros(3), np.zeros(4))
