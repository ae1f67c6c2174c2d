import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from leelat import analyzer, constructions, hadamard, intlat, metric
from leelat.analyzer import CertificateKind
from leelat.errors import CapExceededError, InconclusiveError
from leelat.intlat import IntMatrix, Lattice

from helpers import brute_min_weight, lee_code_min_distance

EVEN_SUM_Z4 = Lattice(
    [[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1], [0, 0, 0, 2]]
)


class TestMinDistance:
    def test_zn(self):
        assert analyzer.min_distance(Lattice(IntMatrix.identity(3))) == 1

    def test_hadamard_order_4(self):
        code = hadamard.hadamard_code(hadamard.sylvester(2))
        assert analyzer.min_distance(code) == 4

    def test_gn5(self):
        assert analyzer.min_distance(constructions.gn(5)) == 4

    def test_agrees_with_lee_reduction(self):
        for lat in (constructions.gn(3), hadamard.g_matrix(2, 2), constructions.gn(2)):
            _, m = intlat.period(lat)
            assert analyzer.min_distance(lat) == lee_code_min_distance(
                lat.int_matrix.entries, m
            )

    def test_scale_homogeneity(self):
        rng = random.Random(31)
        for _ in range(5):
            while True:
                rows = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
                try:
                    lat = Lattice(rows)
                    break
                except Exception:
                    continue
            d = analyzer.min_distance(lat)
            for k in (2, 3):
                assert analyzer.min_distance(intlat.scale(lat, k)) == k * d

    def test_cap_exhausted(self):
        with pytest.raises(InconclusiveError):
            analyzer.min_distance(constructions.gn(3), cap=2)

    def test_budget_guard(self):
        with pytest.raises(InconclusiveError):
            analyzer.min_distance(
                hadamard.hadamard_code(hadamard.sylvester(3)), point_budget=100
            )

    def test_inconclusive_messages_say_how_far(self):
        with pytest.raises(InconclusiveError) as e:
            analyzer.min_distance(constructions.gn(6), point_budget=100)
        assert "nodes visited, budget 100, weights <= 2 fully searched" in str(e.value)
        with pytest.raises(InconclusiveError) as e:
            analyzer.min_distance(constructions.gn(3), cap=2)
        assert "weight <= 2" in str(e.value) and "nodes visited" in str(e.value)

    def test_paley_order_12(self):
        # the order-12 certificate through the library; the numpy span
        # check in test_acceptance stays as the independent oracle
        code = hadamard.hadamard_code(hadamard.paley(11))
        assert analyzer.min_distance(code) == 12
        with pytest.raises(InconclusiveError):
            analyzer.min_distance(code, cap=11)


@st.composite
def small_lattices(draw):
    """Full-rank integer generators in n <= 4, entries kept small enough
    for the brute-force oracle.  The diagonal shrinks towards 1, so the
    simplest example is the identity."""
    n = draw(st.integers(1, 4))
    bound = {1: 9, 2: 6, 3: 3, 4: 2}[n]
    rows = [
        [draw(st.integers(1, bound) if i == j else st.integers(-bound, bound)) for j in range(n)]
        for i in range(n)
    ]
    assume(intlat.det(IntMatrix(rows)) != 0)
    return rows


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(small_lattices())
def test_min_distance_matches_brute_force(rows):
    # every generator row is a lattice vector, so its weight bounds the search
    w_max = min(sum(abs(v) for v in r) for r in rows)
    d = brute_min_weight(rows, w_max)
    lat = Lattice(rows)
    assert analyzer.min_distance(lat) == d
    with pytest.raises(InconclusiveError):
        analyzer.min_distance(lat, cap=d - 1)


class TestCosetTable:
    def test_zn_single_coset(self):
        table = analyzer.coset_table(Lattice(IntMatrix.identity(3)))
        assert table.size == 1
        assert table.rho == 0
        assert set(table.leaders.values()) == {(0, 0, 0)}

    def test_even_sum_z4(self):
        table = analyzer.coset_table(EVEN_SUM_Z4)
        assert table.size == 2
        assert sorted(table.leaders.values()) == [(-1, 0, 0, 0), (0, 0, 0, 0)]
        assert table.rho == 1

    def test_leader_weights_are_coset_minimal(self):
        # re-derive the minimum weight of every coset by exhaustive scan
        for lat in (EVEN_SUM_Z4, constructions.gw_perfect(2), constructions.gn(2)):
            table = analyzer.coset_table(lat)
            best = {}
            for w in range(table.rho + 1):
                for x in metric.weight_shell(lat.n, w):
                    key = intlat.canonical_residue(lat, x)
                    if key not in best:
                        best[key] = w
            for key, leader in table.leaders.items():
                assert metric.manhattan_weight(leader) == best[key]

    def test_leader_minimality_random_lattices(self):
        rng = random.Random(33)
        built = 0
        while built < 6:
            rows = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)]
            try:
                lat = Lattice(rows)
            except Exception:
                continue
            if lat.volume > 60:
                continue
            built += 1
            table = analyzer.coset_table(lat)
            assert table.size == lat.volume
            best = {}
            for w in range(table.rho + 1):
                for x in metric.weight_shell(2, w):
                    key = intlat.canonical_residue(lat, x)
                    best.setdefault(key, w)
            for key, leader in table.leaders.items():
                assert metric.manhattan_weight(leader) == best[key]

    def test_divisor_count_matches_volume(self):
        lat = constructions.gn(3)
        table = analyzer.coset_table(lat)
        prod = 1
        for s in table.divisors:
            prod *= s
        assert prod == lat.volume == table.size

    def test_volume_cap(self):
        with pytest.raises(CapExceededError):
            analyzer.coset_table(constructions.gn(6), cap=10)


class TestCoveringRadius:
    def test_zn(self):
        assert analyzer.covering_radius(Lattice(IntMatrix.identity(4))) == 0

    def test_even_sum(self):
        assert analyzer.covering_radius(EVEN_SUM_Z4) == 1

    def test_golomb_welch_is_one(self):
        # perfection at radius 1 forces covering radius 1
        assert analyzer.covering_radius(constructions.gw_perfect(2)) == 1

    def test_rho_is_max_distance_to_code(self):
        # exhaustive cross-check on a small alphabet: every residue of the
        # Golomb-Welch plane code must lie within rho of a codeword
        lat = constructions.gw_perfect(2)
        rho = analyzer.covering_radius(lat)
        worst = 0
        for x0 in range(5):
            for x1 in range(5):
                dist = min(
                    metric.manhattan_dist((x0, x1), (c0, c1))
                    for c0 in range(-5, 11)
                    for c1 in range(-5, 11)
                    if intlat.contains(lat, (c0, c1))
                )
                worst = max(worst, dist)
        assert worst == rho == 1


class TestPackingDensity:
    def test_minkowski(self):
        p = intlat.reduce_mod_period(constructions.minkowski3(6), 6)
        assert analyzer.packing_density(p) == Fraction(18, 19)

    def test_scaled_families(self):
        p5 = intlat.reduce_mod_period(constructions.scaled_diameter_code(5, 8), 8)
        assert analyzer.packing_density(p5) == Fraction(32, 75)
        p7 = intlat.reduce_mod_period(constructions.scaled_diameter_code(7, 4), 4)
        assert analyzer.packing_density(p7) == Fraction(4096, 35280)

    def test_decimal_rendering(self):
        assert analyzer.density_decimal(Fraction(648, 1805)) == "0.359003"
        assert analyzer.density_decimal(Fraction(1, 2)) == "0.500000"
        assert analyzer.density_decimal(Fraction(4096, 35280)) == "0.116100"
        assert analyzer.density_decimal(Fraction(2, 3), places=3) == "0.667"


class TestCertify:
    def test_golomb_welch_perfect(self):
        cert = analyzer.certify(constructions.gw_perfect(3))
        assert cert.kind is CertificateKind.PERFECT
        assert cert.bound_size == 7 == metric.lee_sphere_size(3, 1)
        assert cert.slack == 0

    def test_gn4_diameter_perfect(self):
        cert = analyzer.certify(constructions.gn(4))
        assert cert.kind is CertificateKind.DIAMETER_PERFECT
        assert cert.bound_size == 16 == metric.anticode_size_odd(4, 1)
        assert cert.slack == 0

    def test_minkowski_even_distance_reference(self):
        # volume 38 meets the diameter-5 anticode size exactly
        cert = analyzer.certify(constructions.minkowski3(6))
        assert cert.min_dist == 6 and cert.radius == 2
        assert cert.bound == "odd_anticode(conjectured_max)"
        assert cert.bound_size == 38 and cert.slack == 0
        assert cert.kind is CertificateKind.DIAMETER_PERFECT

    def test_slack_positive_is_none(self):
        cert = analyzer.certify(constructions.dim4(6))
        assert cert.kind is CertificateKind.NONE
        assert cert.slack == 74 - metric.anticode_size_odd(4, 2) == 8

    def test_sphere_disjointness_when_perfect(self):
        # radius-1 balls around codewords of the plane code tile: no overlaps
        lat = constructions.gw_perfect(2)
        seen = set()
        for c0 in range(-10, 11):
            for c1 in range(-10, 11):
                if intlat.contains(lat, (c0, c1)):
                    for p in metric.enumerate_sphere(2, 1, center=(c0, c1)):
                        assert p not in seen
                        seen.add(p)


class TestReport:
    def test_gn4_document(self):
        doc = analyzer.report(constructions.gn(4))
        assert doc["n"] == 4
        assert doc["min_distance"] == 4
        assert doc["volume"] == 16
        assert doc["q"] == 16
        assert doc["certificate"]["kind"] == "diameter_perfect"
        assert doc["covering_radius"] is not None

    def test_key_order_fixed(self):
        doc = analyzer.report(constructions.gw_perfect(2))
        assert list(doc) == [
            "n",
            "min_distance",
            "volume",
            "period",
            "q",
            "density",
            "density_decimal",
            "covering_radius",
            "certificate",
        ]
        assert list(doc["certificate"]) == ["kind", "bound", "bound_size", "radius", "slack"]
