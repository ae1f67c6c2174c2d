import random
import re
from fractions import Fraction

import pytest

from leelat import metric
from leelat.errors import CapExceededError, DimensionError, IntegralityError

from helpers import recursive_weight_shell


class TestDistances:
    def test_manhattan_zero_on_equal(self):
        assert metric.manhattan_dist((1, 2, 3), (1, 2, 3)) == 0

    def test_manhattan_value(self):
        assert metric.manhattan_dist((1, 2, 3), (3, 0, 3)) == 4

    def test_manhattan_symmetric(self):
        rng = random.Random(21)
        for _ in range(50):
            x = tuple(rng.randint(-9, 9) for _ in range(4))
            y = tuple(rng.randint(-9, 9) for _ in range(4))
            assert metric.manhattan_dist(x, y) == metric.manhattan_dist(y, x)

    def test_manhattan_length_mismatch(self):
        with pytest.raises(DimensionError):
            metric.manhattan_dist((1, 2), (1, 2, 3))

    def test_lee_wraparound(self):
        assert metric.lee_dist((0,), (4,), 5) == 1
        assert metric.lee_dist((0, 0), (2, 3), 4) == 3

    def test_lee_equals_manhattan_when_small(self):
        rng = random.Random(22)
        for _ in range(50):
            m = rng.randint(5, 12)
            x = tuple(rng.randint(0, m - 1) for _ in range(3))
            y = tuple(rng.randint(0, m - 1) for _ in range(3))
            if all(abs(a - b) <= m / 2 for a, b in zip(x, y)):
                assert metric.lee_dist(x, y, m) == metric.manhattan_dist(x, y)

    def test_lee_bad_modulus(self):
        with pytest.raises(ValueError):
            metric.lee_dist((0,), (0,), 1)


class TestSphereSize:
    def test_radius_zero(self):
        for n in range(1, 6):
            assert metric.lee_sphere_size(n, 0) == 1

    def test_dimension_one(self):
        for r in range(6):
            assert metric.lee_sphere_size(1, r) == 2 * r + 1

    @pytest.mark.parametrize("n,r,size", [(3, 1, 7), (2, 1, 5), (3, 2, 25)])
    def test_small_values(self, n, r, size):
        assert metric.lee_sphere_size(n, r) == size
        assert len(metric.enumerate_sphere(n, r)) == size

    def test_matches_enumeration_grid(self):
        for n in range(1, 6):
            for r in range(5):
                assert len(metric.enumerate_sphere(n, r)) == metric.lee_sphere_size(n, r)


class TestAnticodeSize:
    def test_radius_zero_is_a_pair(self):
        for n in range(1, 6):
            assert metric.anticode_size_odd(n, 0) == 2

    def test_dimension_one(self):
        for r in range(6):
            assert metric.anticode_size_odd(1, r) == 2 * r + 2

    def test_radius_one_is_4n(self):
        for n in range(2, 8):
            assert metric.anticode_size_odd(n, 1) == 4 * n

    def test_matches_enumeration(self):
        for n in range(1, 5):
            for r in range(4):
                pts = metric.enumerate_anticode_odd(n, r)
                assert len(pts) == metric.anticode_size_odd(n, r)

    def test_seed_pair(self):
        assert metric.enumerate_anticode_odd(3, 0) == {(0, 0, 0), (1, 0, 0)}

    def test_diameter_is_odd(self):
        for n in range(1, 5):
            for r in range(4):
                pts = metric.enumerate_anticode_odd(n, r)
                assert metric.diameter(pts) == 2 * r + 1

    def test_anticode_pairwise_bound(self):
        pts = sorted(metric.enumerate_anticode_odd(3, 2))
        for p in pts:
            for q in pts:
                assert metric.manhattan_dist(p, q) <= 5


class TestRecurrences:
    def test_grid_holds(self):
        assert metric.check_anticode_recurrences(4, 4) == []

    def test_specific_identity(self):
        # anticode(2,1) = sphere(1,1) + sphere(2,1) = 3 + 5
        assert metric.anticode_size_odd(2, 1) == 8
        assert metric.lee_sphere_size(1, 1) + metric.lee_sphere_size(2, 1) == 8

    def test_wide_grid(self):
        assert metric.check_anticode_recurrences(8, 8) == []

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            metric.check_anticode_recurrences(0, 3)


class TestEnumerators:
    def test_line_segment(self):
        assert metric.enumerate_sphere(1, 2, center=(0,)) == {(-2,), (-1,), (0,), (1,), (2,)}

    def test_centered(self):
        pts = metric.enumerate_sphere(2, 1, center=(5, -3))
        assert pts == {(5, -3), (4, -3), (6, -3), (5, -2), (5, -4)}
        with pytest.raises(DimensionError, match="^center has the wrong length$"):
            metric.enumerate_sphere(2, 1, center=(5, -3, 0))

    @pytest.mark.parametrize("bad", [0.5, Fraction(1, 2), Fraction(2), 2.0])
    def test_center_coordinates_must_be_ints(self, bad):
        # a float or Fraction centre would make non-int sphere points
        with pytest.raises(IntegralityError, match=f"^center coordinate {re.escape(repr(bad))} is not an int$"):
            metric.enumerate_sphere(2, 1, center=(bad, 0))

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(metric, "DEFAULT_CAP", 10)
        with pytest.raises(CapExceededError, match="^sphere has 8361 points, cap is 10$"):
            metric.enumerate_sphere(4, 10)
        with pytest.raises(CapExceededError, match="^anticode has 16 points, cap is 10$"):
            metric.enumerate_anticode_odd(4, 1)

    def test_dimension_cap(self):
        # no dimension ceiling: the point cap alone bounds the walk
        assert len(metric.enumerate_sphere(16, 3)) == 6017 == metric.lee_sphere_size(16, 3)
        assert len(metric.enumerate_anticode_odd(8, 2)) == metric.anticode_size_odd(8, 2)

    def test_weight_shell_lex_order_and_count(self):
        shell = list(metric.weight_shell(3, 3))
        assert shell == sorted(shell)
        assert len(set(shell)) == len(shell)
        assert len(shell) == metric.lee_sphere_size(3, 3) - metric.lee_sphere_size(3, 2)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_weight_shell_matches_recursive_definition(self, n):
        for w in range(5):
            assert list(metric.weight_shell(n, w)) == recursive_weight_shell(n, w), w

    def test_sphere_at_n_1200(self):
        # one coordinate per recursion level would pass Python's recursion limit
        assert len(metric.enumerate_sphere(1200, 1)) == 2401 == metric.lee_sphere_size(1200, 1)

    def test_point_set_dump(self):
        text = metric.format_point_set({(1, 0), (-1, 0), (0, 1)})
        assert text == "-1 0\n0 1\n1 0\n"
