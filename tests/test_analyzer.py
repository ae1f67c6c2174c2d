import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from leelat import analyzer, cli, constructions, hadamard, intlat, metric
from leelat.analyzer import CertificateKind
from leelat.errors import BudgetExhaustedError, CapExceededError, InconclusiveError
from leelat.intlat import IntMatrix, Lattice

from helpers import brute_coset_leaders, brute_min_weight, check_record, lee_code_min_distance

EVEN_SUM_Z4 = Lattice(
    [[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1], [0, 0, 0, 2]]
)


def diag_2_lattice(n):
    """diag(2, 1, ..., 1): two cosets, d = 1, ρ = 1, at any n."""
    return Lattice([[2 if i == j == 0 else int(i == j) for j in range(n)] for i in range(n)])


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

    def test_budget_guard(self, monkeypatch):
        monkeypatch.setattr(analyzer, "DEFAULT_POINT_BUDGET", 100)
        with pytest.raises(InconclusiveError):
            analyzer._tree_distance(hadamard.hadamard_code(hadamard.sylvester(3)))

    def test_inconclusive_messages_say_how_far(self, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(analyzer, "DEFAULT_POINT_BUDGET", 100)
            with pytest.raises(InconclusiveError) as e:
                analyzer._tree_distance(constructions.gn(6))
        assert "nodes visited, budget 100, weights <= 2 fully searched" in str(e.value)
        with pytest.raises(InconclusiveError) as e:
            analyzer._tree_distance(constructions.gn(3), cap=2)
        assert "weight <= 2" in str(e.value) and "nodes visited" in str(e.value)
        with pytest.raises(InconclusiveError) as e:
            analyzer.min_distance(constructions.gn(3), cap=2)
        assert "weight <= 2" in str(e.value) and "radius <= 1 swept over 12 cosets" in str(e.value)

    def test_no_recursion_at_n_1200(self):
        assert analyzer.min_distance(diag_2_lattice(1200)) == 1

    def test_tree_no_recursion_at_n_1200(self):
        # diag(3 x13, 1, ..., 1): 3^13 cosets, past the sweep, so d comes from the tree
        n = 1200
        lat = Lattice([[3 if i == j < 13 else int(i == j) for j in range(n)] for i in range(n)])
        assert lat.volume == 3**13 > analyzer.DEFAULT_COSET_CAP
        assert analyzer.min_distance(lat) == 1

    def test_tree_node_counts(self, monkeypatch):
        # the depth-first order pinned through its exact node counts
        paley = hadamard.hadamard_code(hadamard.paley(11))
        sylvester = hadamard.hadamard_code(hadamard.sylvester(4))
        for lat, cap, nodes in [(paley, 11, 24232), (sylvester, 15, 95281)]:
            with pytest.raises(InconclusiveError) as e:
                analyzer._tree_distance(lat, cap=cap)
            assert str(e.value) == (f"no nonzero lattice vector of weight <= {cap}; raise the cap "
                                    f"({nodes} nodes visited, budget 20000000)")
        monkeypatch.setattr(analyzer, "DEFAULT_POINT_BUDGET", 10000)
        with pytest.raises(BudgetExhaustedError) as e:
            analyzer._tree_distance(paley)
        assert str(e.value) == (
            "search budget exhausted: 10002 nodes visited, budget 10000, weights <= 9 fully searched")

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


@pytest.mark.parametrize("engine", [analyzer.min_distance, analyzer._tree_distance],
                         ids=["min_distance", "tree"])
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rows=small_lattices())
def test_min_distance_matches_brute_force(engine, rows):
    # every generator row is a lattice vector, so its weight bounds the search
    w_max = min(sum(abs(v) for v in r) for r in rows)
    d = brute_min_weight(rows, w_max)
    lat = Lattice(rows)
    assert engine(lat) == d
    # at d = 1, cap 0 is a parameter error, refused before the engine is chosen
    error = ValueError if d == 1 and engine is analyzer.min_distance else InconclusiveError
    with pytest.raises(error):
        engine(lat, cap=d - 1)


class TestCosetTable:
    def test_zn_single_coset(self):
        table = analyzer.coset_table(Lattice(IntMatrix.identity(3)))
        assert table.size == 1
        assert table.rho == 0
        assert set(table.leaders) == {(0, 0, 0)}

    def test_even_sum_z4(self):
        table = analyzer.coset_table(EVEN_SUM_Z4)
        assert table.size == 2
        assert sorted(table.leaders) == [(-1, 0, 0, 0), (0, 0, 0, 0)]
        assert table.rho == 1

    def test_record(self):
        fields = {"leaders": ((0, 0), (1, 0)), "rho": 1}
        check_record(analyzer.CosetTable, fields, {"rho": 2}, "CosetTable(leaders=((0, 0), (1, 0)), rho=1)")
        assert analyzer.CosetTable(**fields).size == 2

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
            residues = {intlat.canonical_residue(lat, leader) for leader in table.leaders}
            assert len(residues) == len(table.leaders) == lat.volume
            for leader in table.leaders:
                assert metric.manhattan_weight(leader) == best[intlat.canonical_residue(lat, leader)]

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
            residues = {intlat.canonical_residue(lat, leader) for leader in table.leaders}
            assert len(residues) == len(table.leaders) == lat.volume
            for leader in table.leaders:
                assert metric.manhattan_weight(leader) == best[intlat.canonical_residue(lat, leader)]

    def test_divisor_count_matches_volume(self):
        lat = constructions.gn(3)
        table = analyzer.coset_table(lat)
        prod = 1
        for s in intlat.snf(lat.int_matrix):
            prod *= s
        assert prod == lat.volume == table.size

    def test_volume_cap(self, monkeypatch):
        monkeypatch.setattr(analyzer, "DEFAULT_COSET_CAP", 10)
        with pytest.raises(CapExceededError):
            analyzer.coset_table(constructions.gn(6))

    def test_no_recursion_at_n_1200(self):
        assert analyzer.coset_table(diag_2_lattice(1200)).rho == 1


@st.composite
def coset_lattices(draw):
    """(generator rows, scale) in n <= 4 with volume <= 300, so the shell
    scan of the oracle stays small.  The scale's denominator divides every
    entry, and the diagonal shrinks towards 1."""
    n = draw(st.integers(1, 4))
    bound = {1: 150, 2: 8, 3: 3, 4: 2}[n]
    rows = [
        [draw(st.integers(1, bound) if i == j else st.integers(-bound, bound)) for j in range(n)]
        for i in range(n)
    ]
    dens = [k for k in (1, 2, 3) if all(v % k == 0 for r in rows for v in r)]
    scale = Fraction(draw(st.integers(1, 2)), draw(st.sampled_from(dens)))
    assume(0 < abs(intlat.det(IntMatrix(rows))) * scale**n <= 300)
    return rows, scale


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(coset_lattices())
@example(([[7]], 1))
@example(([[2, 0, 0], [0, 3, 0], [0, 0, 5]], 1))
@example(([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 1))
@example(([[2, 4], [-6, 2]], Fraction(3, 2)))
def test_coset_table_matches_shell_scan(case):
    # same leaders in the same order, and the same covering radius
    lat = Lattice(*case)
    table = analyzer.coset_table(lat)
    assert (table.leaders, table.rho) == brute_coset_leaders(lat)


# the codes of the analyze benchmark pool, at its parameters
POOL_CODES = (
    [("hadamard", (8,)), ("gij", (3, 3)), ("gij", (4, 2))]
    + [("gn", (n,)) for n in (10, 13, 16)]
    + [("gw", (n,)) for n in (21, 41)]
    + [("minkowski3", (d,)) for d in (24, 30, 36)]
    + [("dim4", (d,)) for d in (12, 18)]
    + [("scaled", (n, 8)) for n in (5, 6)]
)


def rebased_pool_codes():
    """((family, values), lattice) for each pool code, written in a seeded
    unimodular basis."""
    rng = random.Random(12)
    for family, values in POOL_CODES:
        lat = cli.FAMILIES[family][1](*values)
        rows = [list(r) for r in lat.gen.entries]
        for _ in range(3 * lat.n):
            i, j = rng.sample(range(lat.n), 2)
            c = rng.choice((-2, -1, 1, 2))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        rng.shuffle(rows)
        rebased = Lattice(rows, lat.scale)
        assert intlat.same_lattice(rebased, lat)
        yield (family, values), rebased


def test_coset_table_matches_shell_scan_on_pool_codes():
    for code, lat in rebased_pool_codes():
        table = analyzer.coset_table(lat)
        assert (table.leaders, table.rho) == brute_coset_leaders(lat), code


def test_covering_radius_matches_coset_table_on_pool_codes():
    for code, lat in rebased_pool_codes():
        assert analyzer.covering_radius(lat) == analyzer.coset_table(lat).rho, code


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(coset_lattices())
@example(([[1]], 1))
@example(([[2, 1], [1, 1]], 1))
@example(([[7]], 1))
@example(([[2, 0, 0], [0, 3, 0], [0, 0, 5]], 1))
@example(([[2, 4], [-6, 2]], Fraction(3, 2)))
@example(([list(r) for r in hadamard.sylvester(3).matrix.entries], 1))
def test_covering_radius_matches_shell_scan(case):
    # the last example's group has digits 8, 4, 4, 4, 2, 2, 2: moves along
    # every digit but the largest are masked rotations
    lat = Lattice(*case)
    assert analyzer.covering_radius(lat) == brute_coset_leaders(lat)[1]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(coset_lattices())
@example(([[1]], 1))
@example(([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 1))
@example(([[2, 0], [0, 1]], 1))
def test_report_distance_matches_brute_force(case):
    # Z^1, a single coset, and d = 1 at volume 2 come first; the sweep's
    # d must also refuse a cap one below it, at d = 1 as a parameter error
    lat = Lattice(*case)
    rows = [list(r) for r in lat.int_matrix.entries]
    d = brute_min_weight(rows, min(sum(map(abs, r)) for r in rows))
    if d <= analyzer.DEFAULT_HARD_CAP:
        assert analyzer.report(lat)["min_distance"] == d
    else:
        with pytest.raises(InconclusiveError, match="raise the cap"):
            analyzer.report(lat)
    doc = analyzer.report(lat, min_dist_cap=d)
    assert (doc["min_distance"], doc["covering_radius"]) == (d, analyzer.covering_radius(lat))
    refusal = (pytest.raises(InconclusiveError, match="raise the cap") if d > 1
               else pytest.raises(ValueError, match="^weight cap must be at least 1, got 0$"))
    with refusal:
        analyzer.report(lat, min_dist_cap=d - 1)


@st.composite
def product_pairs(draw):
    """Generator rows of A (n <= 2) and B (n <= 3) whose Kronecker product,
    of volume v_A^(n_B)·v_B^(n_A), is within the sweep's volume threshold."""
    pair = []
    for n_max in (2, 3):
        n = draw(st.integers(1, n_max))
        bound = {1: 6, 2: 4, 3: 2}[n]
        rows = [[draw(st.integers(-bound, bound)) for _ in range(n)] for _ in range(n)]
        assume(intlat.det(IntMatrix(rows)) != 0)
        pair.append(rows)
    a, b = pair
    volume = abs(intlat.det(IntMatrix(a))) ** len(b) * abs(intlat.det(IntMatrix(b))) ** len(a)
    assume(volume <= analyzer.DEFAULT_COSET_CAP)
    return a, b


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(product_pairs())
def test_product_lemma(pair):
    # d(A (x) B) = d(A)·d(B), which density rows built by intlat.kronecker print
    a, b = pair
    d_a = brute_min_weight(a, min(sum(map(abs, r)) for r in a))
    d_b = brute_min_weight(b, min(sum(map(abs, r)) for r in b))
    product = intlat.kronecker(Lattice(a), Lattice(b))
    assert analyzer.report(product, min_dist_cap=d_a * d_b, coset_cap=0)["min_distance"] == d_a * d_b


def cyclic_lattice(n, v, rng):
    """Z^n/L = Z/v: row j > 0 is a_j·e_0 + e_j, so e_j = -a_j·e_0 mod L."""
    return Lattice([[v] + [0] * (n - 1)]
                   + [[rng.randrange(v)] + [int(i == j) for j in range(1, n)] for i in range(1, n)])


def two_digit_lattice(n, v, rng):
    """Z^n/L = Z/v x Z/v: row j > 1 is a_j·e_0 + b_j·e_1 + e_j."""
    return Lattice([[v, 0] + [0] * (n - 2), [0, v] + [0] * (n - 2)]
                   + [[rng.randrange(v), rng.randrange(v)] + [int(i == j) for j in range(2, n)]
                      for i in range(2, n)])


class TestCoveringRadius:
    def test_zn(self):
        assert analyzer.covering_radius(Lattice(IntMatrix.identity(4))) == 0

    def test_volume_one_needs_no_group(self, monkeypatch):
        def refuse(lat):
            raise AssertionError("coset_group called for a single coset")

        monkeypatch.setattr(intlat, "coset_group", refuse)
        assert analyzer.covering_radius(Lattice(IntMatrix.identity(256))) == 0

    def test_no_recursion_at_n_1200(self):
        assert analyzer.covering_radius(diag_2_lattice(1200)) == 1

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(analyzer, "DEFAULT_COSET_CAP", 10)
        with pytest.raises(CapExceededError):
            analyzer.covering_radius(constructions.gn(6))

    @pytest.mark.parametrize("make, n, v", [(cyclic_lattice, 64, 10**6), (two_digit_lattice, 32, 1000)])
    def test_memory_at_a_million_cosets(self, make, n, v):
        # about one bit per coset plus one mask per (digit, power of two)
        lat = make(n, v, random.Random(n))
        assert lat.volume == 10**6
        tracemalloc.start()
        try:
            rho = analyzer.covering_radius(lat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 10**6
        # the ball of radius rho meets every coset, so it holds at least
        # one point per coset
        assert metric.lee_sphere_size(n, rho) >= lat.volume

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
        assert p.density == Fraction(18, 19)

    def test_scaled_families(self):
        p5 = intlat.reduce_mod_period(constructions.scaled_diameter_code(5, 8), 8)
        assert p5.density == Fraction(32, 75)
        p7 = intlat.reduce_mod_period(constructions.scaled_diameter_code(7, 4), 4)
        assert p7.density == Fraction(4096, 35280)

    def test_decimal_rendering(self):
        assert analyzer.density_decimal(Fraction(648, 1805)) == "0.359003"
        assert analyzer.density_decimal(Fraction(1, 2)) == "0.500000"
        assert analyzer.density_decimal(Fraction(4096, 35280)) == "0.116100"
        assert analyzer.density_decimal(Fraction(2, 3), places=3) == "0.667"


class TestCertify:
    def test_record(self):
        fields = {"kind": CertificateKind.PERFECT, "min_dist": 3, "radius": 1, "bound": "lee_sphere",
                  "bound_size": 5, "slack": 0}
        check_record(analyzer.Certificate, fields, {"slack": 1},
                     "Certificate(kind=<CertificateKind.PERFECT: 'perfect'>, min_dist=3, radius=1, "
                     "bound='lee_sphere', bound_size=5, slack=0)")
        assert repr(analyzer.certify(constructions.gn(3))) == (
            "Certificate(kind=<CertificateKind.DIAMETER_PERFECT: 'diameter_perfect'>, min_dist=4, "
            "radius=1, bound='odd_anticode(conjectured_max)', bound_size=12, slack=0)")

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

    def test_gn128_diameter_perfect_without_given_distance(self):
        # past the distance tree's node budget: d = 4 from the coset sweep
        cert = analyzer.certify(constructions.gn(128))
        assert (cert.kind, cert.min_dist, cert.slack) == (CertificateKind.DIAMETER_PERFECT, 4, 0)

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

    @pytest.mark.parametrize("make, n, v", [(cyclic_lattice, 64, 10**6), (two_digit_lattice, 32, 1000)])
    def test_memory_at_a_million_cosets(self, make, n, v):
        # d and rho from one sweep, with no more memory than rho alone
        lat = make(n, v, random.Random(n))
        tracemalloc.start()
        try:
            doc = analyzer.report(lat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 10**6
        d, rho = doc["min_distance"], doc["covering_radius"]
        # the sphere of radius (d - 1) // 2 packs, the ball of radius rho covers
        assert metric.lee_sphere_size(n, (d - 1) // 2) <= lat.volume <= metric.lee_sphere_size(n, rho)
        assert doc["certificate"]["slack"] >= 0

    def test_tree_above_the_sweep_threshold(self, monkeypatch):
        # Paley 12 has 12^6 > 10^6 cosets: d comes from the distance tree
        code = hadamard.hadamard_code(hadamard.paley(11))
        calls = []
        search = analyzer._tree_distance
        monkeypatch.setattr(analyzer, "_tree_distance", lambda lat, cap: calls.append(cap) or search(lat, cap))
        # rho, when asked for, from the sweep's second phase alone
        for coset_cap, rho in [(0, None), (12**6, 10)]:
            calls.clear()
            doc = analyzer.report(code, coset_cap=coset_cap)
            assert (doc["min_distance"], doc["covering_radius"], calls) == (12, rho, [None])

    def test_coset_cap_ceiling(self):
        with pytest.raises(ValueError, match="coset_cap must be at most 10000000, got 10000001"):
            analyzer.report(constructions.gn(3), coset_cap=analyzer.MAX_COSET_CAP + 1)
        assert analyzer.report(constructions.gn(3), coset_cap=analyzer.MAX_COSET_CAP)["covering_radius"] == 2

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
