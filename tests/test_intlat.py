import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from leelat import intlat
from leelat.errors import (
    DigitLimitError,
    DimensionError,
    IntegralityError,
    SingularMatrixError,
    StructureError,
)
from leelat.intlat import IntMatrix, Lattice

from helpers import brute_min_weight, check_record, cofactor_det, minor_gcd_snf, solve_membership

MINKOWSKI = [[1, -2, 3], [-2, 3, 1], [3, 1, -2]]
G3 = [[1, 0, 3], [0, 1, 5], [0, 0, 12]]
G6 = [
    [1, 0, 0, 0, 0, 3],
    [0, 1, 0, 0, 0, 5],
    [0, 0, 1, 0, 0, 7],
    [0, 0, 0, 1, 0, 9],
    [0, 0, 0, 0, 1, 11],
    [0, 0, 0, 0, 0, 24],
]


def random_nonsingular(rng, n, span=5):
    while True:
        rows = [[rng.randint(-span, span) for _ in range(n)] for _ in range(n)]
        if cofactor_det(rows) != 0:
            return rows


class TestIntMatrix:
    def test_rejects_floats(self):
        with pytest.raises(IntegralityError):
            IntMatrix([[1.0, 2.0], [3.0, 4.0]])

    def test_rejects_ragged(self):
        with pytest.raises(DimensionError):
            IntMatrix([[1, 2], [3]])

    def test_derived_matrices_equal_checked_ones(self):
        # kron, products, transposes and scalings skip the entry checks
        a, b = IntMatrix([[1, 2], [3, 4]]), IntMatrix([[0, -1, 2]])
        for m in (a.kron(b), b.transpose() @ b, a @ a, a.transpose(), a.scaled(-3)):
            checked = IntMatrix(m.entries)
            assert m == checked and (m.rows, m.cols) == (checked.rows, checked.cols)
            assert all(type(r) is tuple and all(type(v) is int for v in r) for r in m.entries)
        with pytest.raises(IntegralityError):
            a.scaled(Fraction(1, 2))

    def test_checks_stay_on_the_public_constructor(self):
        """``hnf`` and a scaled ``Lattice`` build their matrices without the
        entry checks; ``IntMatrix(...)`` itself still checks every entry and
        the shape, and the unchecked matrices equal checked ones."""
        for bad, error in (([[1, Fraction(1, 2)]], IntegralityError), ([[1, 2], [3]], DimensionError),
                           ([[]], DimensionError)):
            with pytest.raises(error):
                IntMatrix(bad)
        lat = Lattice([[2, 0], [4, 6]], Fraction(3, 2))
        for m in (lat.int_matrix, lat.hnf, intlat.hnf(IntMatrix([[2, 0], [4, 6]]))):
            assert m == IntMatrix(m.entries) and (m.rows, m.cols) == (2, 2)
            assert all(type(r) is tuple and all(type(v) is int for v in r) for r in m.entries)
            with pytest.raises(AttributeError):
                m.rows = 3
        assert lat.int_matrix.entries == ((3, 0), (6, 9)) and lat.hnf.entries == ((3, 0), (0, 9))

    def test_matmul_and_transpose(self):
        a = IntMatrix([[1, 2], [3, 4]])
        b = IntMatrix([[0, 1], [1, 0]])
        assert (a @ b).entries == ((2, 1), (4, 3))
        assert a.transpose().entries == ((1, 3), (2, 4))

    def test_kron_identity(self):
        a = IntMatrix([[1, 2], [3, 4]])
        assert IntMatrix([[1]]).kron(a) == a
        assert a.kron(IntMatrix([[1]])) == a

    def test_hash_and_repr(self):
        a, b = IntMatrix([[1, 2], [3, 4]]), IntMatrix(((1, 2), (3, 4))).transpose().transpose()
        assert a is not b and hash(a) == hash(b)
        keys = {a: "first", b: "second"}
        assert len(keys) == 1 and keys[a] == "second"
        assert repr(a) == "IntMatrix([[1, 2], [3, 4]])"


class TestDet:
    def test_identity(self):
        assert intlat.det(IntMatrix.identity(3)) == 1

    def test_minkowski_vs_cofactor(self):
        assert intlat.det(IntMatrix(MINKOWSKI)) == cofactor_det(MINKOWSKI) == -38

    def test_g6_upper_triangular(self):
        assert intlat.det(IntMatrix(G6)) == 24

    def test_random_vs_cofactor(self):
        rng = random.Random(101)
        for _ in range(50):
            rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
            assert intlat.det(IntMatrix(rows)) == cofactor_det(rows)

    def test_non_square(self):
        with pytest.raises(DimensionError):
            intlat.det(IntMatrix([[1, 2, 3], [4, 5, 6]]))


class TestHnf:
    def test_identity(self):
        eye = IntMatrix.identity(4)
        assert intlat.hnf(eye) == eye

    def test_two_by_two(self):
        h = intlat.hnf(IntMatrix([[0, 2], [3, 0]]))
        assert h.entries == ((3, 0), (0, 2))
        # same lattice: membership agrees across a small box
        a, b = Lattice([[0, 2], [3, 0]]), Lattice(h)
        for x in range(-6, 7):
            for y in range(-6, 7):
                assert intlat.contains(a, (x, y)) == intlat.contains(b, (x, y))

    def test_canonical_shape(self):
        rng = random.Random(7)
        for _ in range(25):
            rows = random_nonsingular(rng, 4)
            h = intlat.hnf(IntMatrix(rows)).entries
            for i in range(4):
                assert h[i][i] > 0
                for j in range(i + 1, 4):
                    assert h[i][j] == 0
                for j in range(i):
                    assert 0 <= h[i][j] < h[j][j]

    def test_idempotent(self):
        rng = random.Random(8)
        for _ in range(25):
            m = IntMatrix(random_nonsingular(rng, 4))
            h = intlat.hnf(m)
            assert intlat.hnf(h) == h

    def test_preserves_lattice(self):
        rng = random.Random(9)
        for _ in range(10):
            rows = random_nonsingular(rng, 3)
            lat = Lattice(rows)
            hlat = Lattice(intlat.hnf(IntMatrix(rows)))
            for _ in range(20):
                x = tuple(rng.randint(-8, 8) for _ in range(3))
                assert intlat.contains(lat, x) == intlat.contains(hlat, x)

    def test_same_lattice_equal_hnf(self):
        # row-shuffled and row-added generators of one lattice
        base = Lattice(G3)
        mixed = Lattice([[0, 1, 5], [1, 1, 8], [0, 0, 12]])
        assert intlat.same_lattice(base, mixed)

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            intlat.hnf(IntMatrix([[1, 2], [2, 4]]))


class TestSnf:
    def test_identity(self):
        assert intlat.snf(IntMatrix.identity(5)) == [1] * 5

    def test_divisor_chain_input(self):
        assert intlat.snf(IntMatrix([[2, 0], [0, 6]])) == [2, 6]

    def test_hadamard_order_4(self):
        from leelat.hadamard import sylvester

        rows = sylvester(2).matrix.entries
        assert intlat.snf(IntMatrix(rows)) == [1, 2, 2, 4] == minor_gcd_snf(rows)

    def test_random_vs_minor_gcd(self):
        rng = random.Random(11)
        for _ in range(20):
            rows = random_nonsingular(rng, 3)
            assert intlat.snf(IntMatrix(rows)) == minor_gcd_snf(rows)

    def test_chain_divides_and_product(self):
        rng = random.Random(12)
        for _ in range(20):
            rows = random_nonsingular(rng, 4)
            divs = intlat.snf(IntMatrix(rows))
            assert divs[0] >= 1
            for a, b in zip(divs, divs[1:]):
                assert b % a == 0
            prod = 1
            for s in divs:
                prod *= s
            assert prod == abs(cofactor_det(rows))


class TestLattice:
    def test_singular_generator_rejected(self):
        with pytest.raises(SingularMatrixError):
            Lattice([[1, 1], [1, 1]])

    def test_immutable(self):
        lat = Lattice(G3)
        with pytest.raises(AttributeError, match="^Lattice is immutable$"):
            lat.scale = Fraction(2)
        assert lat.scale == 1

    def test_volume_det_times_scale(self):
        lat = Lattice([[2, 0], [0, 4]], Fraction(1, 2))
        assert lat.volume == 2  # |det| * scale^n = 8/4

    def test_settled_when_made(self):
        assert Lattice.__slots__ == ("gen", "scale", "n", "int_matrix", "hnf", "volume")
        assert not [k for k, v in vars(Lattice).items() if isinstance(v, property)]
        gen = IntMatrix(MINKOWSKI)
        lat = Lattice(gen)
        assert lat.int_matrix is gen and lat.hnf == intlat.hnf(gen)
        half = Lattice([[2 * v for v in r] for r in MINKOWSKI], Fraction(1, 2))
        assert half.int_matrix == gen and half.hnf == lat.hnf and half.volume == lat.volume == 38

    def test_volume_of_diagonal_lattices(self):
        # the diagonal is multiplied in pairwise rounds; an odd count leaves one over
        for n in range(1, 10):
            diag = [k + 2 for k in range(n)]
            lat = Lattice([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])
            assert lat.volume == math.prod(diag)

    def test_integrality_checked_when_made(self):
        message = "scale 1/3 does not keep the generator integral"
        with pytest.raises(IntegralityError, match=message):
            Lattice([[1, 0], [0, 1]], Fraction(1, 3))
        with pytest.raises(IntegralityError, match=message):
            intlat.parse_lattice("# scale 1/3\n2 2\n1 0\n0 1\n")
        with pytest.raises(IntegralityError, match=message):
            intlat.scale(Lattice([[1, 0], [0, 1]]), Fraction(1, 3))

    def test_residue_count_matches_volume(self):
        from itertools import product as iproduct

        rng = random.Random(13)
        cases = [random_nonsingular(rng, 3, span=3) for _ in range(8)]
        cases += [random_nonsingular(rng, 4, span=2) for _ in range(3)]
        for rows in cases:
            lat = Lattice(rows)
            h = lat.hnf.entries
            residues = set()
            for r in iproduct(*(range(h[i][i]) for i in range(lat.n))):
                residues.add(intlat.canonical_residue(lat, r))
            assert len(residues) == lat.volume

    def test_residue_idempotent(self):
        rng = random.Random(14)
        lat = Lattice(random_nonsingular(rng, 4))
        for _ in range(30):
            x = tuple(rng.randint(-20, 20) for _ in range(4))
            r = intlat.canonical_residue(lat, x)
            assert intlat.canonical_residue(lat, r) == r
            assert intlat.contains(lat, tuple(a - b for a, b in zip(x, r)))


class TestContains:
    def test_zero_vector(self):
        assert intlat.contains(Lattice(MINKOWSKI), (0, 0, 0))

    def test_generator_row(self):
        assert intlat.contains(Lattice(MINKOWSKI), (1, -2, 3))

    def test_even_sum_parity(self):
        even = Lattice([[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1], [0, 0, 0, 2]])
        assert not intlat.contains(even, (1, 0, 0, 0))
        assert intlat.contains(even, (1, 1, 0, 0))

    def test_matches_rational_solve(self):
        rng = random.Random(15)
        rows = random_nonsingular(rng, 3)
        lat = Lattice(rows)
        for _ in range(40):
            x = tuple(rng.randint(-10, 10) for _ in range(3))
            assert intlat.contains(lat, x) == solve_membership(rows, x)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            intlat.contains(Lattice(MINKOWSKI), (1, 2))


class TestPeriod:
    def test_zn(self):
        periods, m = intlat.period(Lattice(IntMatrix.identity(4)))
        assert periods == (1, 1, 1, 1) and m == 1

    def test_g3(self):
        periods, m = intlat.period(Lattice(G3))
        assert periods == (4, 12, 12) and m == 12

    def test_minkowski_lcm(self):
        assert intlat.period(Lattice(MINKOWSKI))[1] == 38

    def test_brute_force_agreement(self):
        rng = random.Random(16)
        for _ in range(6):
            rows = random_nonsingular(rng, 3, span=3)
            lat = Lattice(rows)
            periods, m = intlat.period(lat)
            for i, mi in enumerate(periods):
                e = [0, 0, 0]
                for t in range(1, mi + 1):
                    e[i] = t
                    if intlat.contains(lat, tuple(e)):
                        assert t == mi
                        break
                assert m % mi == 0
            for i in range(3):
                e = [0, 0, 0]
                e[i] = m
                assert intlat.contains(lat, tuple(e))


@st.composite
def nonsingular_rows(draw, max_n=4, span=4):
    n = draw(st.integers(1, max_n))
    rows = [[draw(st.integers(-span, span)) for _ in range(n)] for _ in range(n)]
    assume(cofactor_det(rows) != 0)
    return rows


def prime_factors(m):
    out, p = set(), 2
    while p * p <= m:
        while m % p == 0:
            out.add(p)
            m //= p
        p += 1
    return out | ({m} if m > 1 else set())


# period, contains and normalize_first_column all work from the HNF (or
# its Euclid step); these check them against rational elimination only.
HYPOTHESIS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@HYPOTHESIS
@given(
    nonsingular_rows(),
    st.sampled_from([1, 1, 2, 3]),
    st.lists(st.integers(-6, 6), min_size=4, max_size=4),
    st.lists(st.integers(-3, 3), min_size=4, max_size=4),
)
def test_period_and_contains_match_rational_solve(rows, k, coeffs, offset):
    lat = Lattice(rows, k)
    basis = lat.int_matrix.entries
    n = lat.n
    periods, m = intlat.period(lat)
    for i, mi in enumerate(periods):
        def axis(t):
            return tuple(t if j == i else 0 for j in range(n))

        assert solve_membership(basis, axis(mi))
        for p in prime_factors(mi):  # the order is mi exactly, not a divisor
            assert not solve_membership(basis, axis(mi // p))
    assert m == math.lcm(*periods)
    member = tuple(sum(c * r[j] for c, r in zip(coeffs, basis)) for j in range(n))
    for x in (member, tuple(a + b for a, b in zip(member, offset))):
        assert intlat.contains(lat, x) == solve_membership(basis, x)


@HYPOTHESIS
@given(nonsingular_rows(max_n=5))
def test_adjugate_contract(rows):
    m = IntMatrix(rows)
    assert m @ intlat.adjugate(m) == IntMatrix.identity(m.rows).scaled(cofactor_det(rows))


@HYPOTHESIS
@given(nonsingular_rows(), st.sampled_from([1, 2, 3]))
def test_normalize_first_column_keeps_lattice(rows, k):
    lat = Lattice(rows, k)
    basis = lat.int_matrix.entries
    norm = intlat.normalize_first_column(lat).gen.entries
    g = math.gcd(*(r[0] for r in basis))
    assert [r[0] for r in norm] == [g] + [0] * (lat.n - 1)
    # a sublattice of the same volume is the lattice itself
    assert abs(cofactor_det(norm)) == abs(cofactor_det(basis))
    assert all(solve_membership(basis, r) for r in norm)


# det and snf run on the HNF column step; these check them against
# cofactor expansion and gcds of minors, singular and 1 x 1 inputs included.
@st.composite
def singular_rows(draw, max_n=5, span=4):
    """Row k replaced by a combination of the others; on a diagonal
    matrix row k becomes zero, so the matrix stays diagonal."""
    n = draw(st.integers(1, max_n))
    diagonal = draw(st.booleans())
    rows = [
        [draw(st.integers(-span, span)) if not diagonal or i == j else 0 for j in range(n)]
        for i in range(n)
    ]
    k = draw(st.integers(0, n - 1))
    c = [0 if diagonal or i == k else draw(st.integers(-2, 2)) for i in range(n)]
    rows[k] = [sum(ci * r[j] for ci, r in zip(c, rows)) for j in range(n)]
    return rows


@st.composite
def diagonal_rows(draw, max_n=5):
    d = draw(st.lists(st.integers(-12, 12).filter(bool), min_size=1, max_size=max_n))
    return [[v if i == j else 0 for j in range(len(d))] for i, v in enumerate(d)]


@HYPOTHESIS
@given(st.one_of(nonsingular_rows(max_n=5), singular_rows(), diagonal_rows()))
@example([[0]])
@example([[-7]])
@example([[1, 2], [2, 4]])
def test_det_matches_cofactor(rows):
    assert intlat.det(IntMatrix(rows)) == cofactor_det(rows)


@HYPOTHESIS
@given(st.one_of(nonsingular_rows(max_n=5), diagonal_rows()))
@example([[-3]])
@example([[-2, 0], [0, 6]])
@example([[3, 0], [2, 2]])
def test_snf_matches_minor_gcd(rows):
    assert intlat.snf(IntMatrix(rows)) == minor_gcd_snf(rows)


@HYPOTHESIS
@given(singular_rows())
@example([[0]])
@example([[2, 0], [0, 0]])
def test_snf_rejects_singular(rows):
    assert cofactor_det(rows) == 0
    with pytest.raises(SingularMatrixError):
        intlat.snf(IntMatrix(rows))


def syndrome(group, x):
    """σ(x) from ``coset_group``'s images of the unit vectors."""
    divisors, images = group
    return tuple(sum(v * g[i] for v, g in zip(x, images)) % d for i, d in enumerate(divisors))


@HYPOTHESIS
@given(
    st.one_of(nonsingular_rows(max_n=5), diagonal_rows()),
    st.sampled_from([1, 1, 2, 3]),
    st.lists(st.integers(-6, 6), min_size=5, max_size=5),
    st.lists(st.integers(-3, 3), min_size=5, max_size=5),
    st.lists(st.integers(-9, 9), min_size=5, max_size=5),
)
@example([[1]], 1, [0] * 5, [0] * 5, [1] * 5)
@example([[2, 1], [1, 1]], 1, [1] * 5, [1] * 5, [0] * 5)
@example([[3, 0, 0], [0, 4, 0], [0, 0, 6]], 1, [1, -1, 2, 0, 0], [0, 2, 3, 0, 0], [1] * 5)
def test_coset_group_is_a_syndrome_map(rows, k, coeffs, offset, other):
    # σ is additive, its kernel is the lattice, and its image has
    # exactly volume elements
    lat = Lattice(rows, k)
    group = intlat.coset_group(lat)
    divisors, images = group
    assert math.prod(divisors) == lat.volume
    assert all(d > 1 for d in divisors) and len(images) == lat.n
    n = lat.n
    basis = lat.int_matrix.entries
    member = tuple(sum(c * r[j] for c, r in zip(coeffs, basis)) for j in range(n))
    y = tuple(other[:n])
    for x in (member, tuple(a + b for a, b in zip(member, offset)), y):
        assert (not any(syndrome(group, x))) == intlat.contains(lat, x)
        total = syndrome(group, tuple(a + b for a, b in zip(x, y)))
        assert total == tuple((a + b) % d for a, b, d in zip(syndrome(group, x), syndrome(group, y), divisors))


@HYPOTHESIS
@given(
    nonsingular_rows(),
    st.sampled_from([1, 2, 3]),
    st.sampled_from([1, 2, 3, Fraction(1, 2), Fraction(1, 3), Fraction(3, 2), Fraction(2, 3)]),
)
@example([[2, 4], [0, 6]], 1, Fraction(1, 2))
@example([[1, 0], [0, 1]], 1, Fraction(1, 3))
def test_scaled_hnf_and_volume(rows, k, s):
    rows = [[k * v for v in r] for r in rows]
    if any((v * s).denominator != 1 for r in rows for v in r):
        with pytest.raises(IntegralityError):
            Lattice(rows, s)
        return
    lat = Lattice(rows, s)
    assert lat.hnf == intlat.hnf(lat.int_matrix)
    assert lat.volume == abs(cofactor_det(lat.int_matrix.entries))


def settled_fields(lat):
    return lat.gen, lat.scale, lat.int_matrix, lat.hnf, lat.volume


RATIONALS = st.builds(Fraction, st.integers(1, 4), st.integers(1, 4))


# scale, kronecker and normalize_first_column take the HNF their inputs
# hold; each must settle exactly the lattice Lattice() builds from scratch
@HYPOTHESIS
@given(nonsingular_rows(), nonsingular_rows(), RATIONALS, RATIONALS, RATIONALS)
@example([[2, 1], [0, 3]], [[1, 0], [1, 2]], Fraction(1, 2), Fraction(3, 2), Fraction(2))
@example([[1, 2], [3, 4]], [[2]], Fraction(1), Fraction(1), Fraction(2, 3))
def test_derived_lattices_match_from_scratch(rows, other, s, t, f):
    a = Lattice([[v * s.denominator for v in r] for r in rows], s)
    b = Lattice([[v * t.denominator for v in r] for r in other], t)
    derived = [intlat.kronecker(a, b), intlat.kronecker(b, a), intlat.normalize_first_column(a)]
    try:
        Lattice(a.gen, a.scale * f)
    except IntegralityError as e:
        with pytest.raises(IntegralityError, match=f"^{e}$"):
            intlat.scale(a, f)
    else:
        derived.append(intlat.scale(a, f))
    for lat in derived:
        assert settled_fields(lat) == settled_fields(Lattice(lat.gen, lat.scale))


class TestReduceModPeriod:
    def test_g6(self):
        p = intlat.reduce_mod_period(Lattice(G6), 4)
        assert (p.n, p.d, p.v, p.q) == (6, 4, 24, 24)

    def test_z2(self):
        p = intlat.reduce_mod_period(Lattice(IntMatrix.identity(2)), 1)
        assert (p.n, p.d, p.v, p.q) == (2, 1, 1, 1)

    def test_density_invariant(self):
        p = intlat.reduce_mod_period(Lattice(MINKOWSKI), 6)
        assert p.density == Fraction(6**3, 6 * 38) == Fraction(18, 19)

    def test_record(self):
        fields = {"n": 3, "d": 4, "v": 5, "q": 6}
        check_record(intlat.CodeParams, fields, {"q": 7}, "CodeParams(n=3, d=4, v=5, q=6)")
        assert intlat.CodeParams(**fields).density == Fraction(4**3, 6 * 5)


class TestKronecker:
    def test_identity_element(self):
        one = Lattice([[1]])
        b = Lattice(MINKOWSKI)
        assert intlat.same_lattice(intlat.kronecker(one, b), b)

    def test_volume_identity_random(self):
        rng = random.Random(17)
        for _ in range(10):
            a = Lattice(random_nonsingular(rng, 2))
            b = Lattice(random_nonsingular(rng, 3))
            k = intlat.kronecker(a, b)
            assert k.volume == a.volume**3 * b.volume**2

    def test_n2_times_minkowski(self):
        a = Lattice([[1, 1], [1, -1]])  # length-2 perfect code at d = 2
        k = intlat.kronecker(intlat.scale(a, 3), Lattice(MINKOWSKI))
        assert k.n == 6
        assert k.volume == (2 * 3**2) ** 3 * 38**2  # v1^n2 * v2^n1


class TestPuncture:
    def test_g3(self):
        p = intlat.puncture(Lattice(G3))
        assert p.gen.entries == ((1, 5), (0, 12))
        assert p.volume == 12
        assert brute_min_weight(p.int_matrix.entries, 4) == 4  # reached by (2, -2)

    def test_identity(self):
        p = intlat.puncture(Lattice(IntMatrix.identity(5)))
        assert p.gen == IntMatrix.identity(4)

    def test_structure_error(self):
        with pytest.raises(StructureError):
            intlat.puncture(Lattice([[2, 0], [0, 2]]))

    def test_normalize_then_puncture_keeps_volume(self):
        # length-12 direct product punctured down to length 11
        a = Lattice([[1, 1], [1, -1]])
        b = intlat.kronecker(a, intlat.kronecker(a, Lattice(MINKOWSKI)))
        assert b.n == 12
        norm = intlat.normalize_first_column(b)
        assert intlat.same_lattice(norm, b)
        p = intlat.puncture(norm)
        assert p.n == 11 and p.volume == b.volume


class TestScale:
    def test_scale_by_one(self):
        lat = Lattice(MINKOWSKI)
        assert intlat.same_lattice(intlat.scale(lat, 1), lat)

    def test_minkowski_d12(self):
        lat = Lattice(MINKOWSKI, Fraction(12, 6))
        assert lat.volume == 304 == Fraction(19, 108) * 12**3

    def test_gn5_scaled(self):
        from leelat.constructions import gn

        lat = intlat.scale(gn(5), Fraction(8, 4))
        assert lat.volume == 640 == Fraction(5, 256) * 8**5

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            intlat.scale(Lattice(MINKOWSKI), 0)


class TestCheckDigits:
    LIMIT = 4300

    @staticmethod
    def values():
        # near the int-string limit, and at about 10^5 digits
        for k in (4299, 4300, 4301, 100_000):
            yield from (10**k - 1, 10**k, -(10**k), 7 * 10**k + 3)
        for bits in (14_284, 14_287, 332_193):
            yield from (2**bits - 1, 2**bits)

    def test_counts_match_str(self):
        old = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)  # lifted, so that str gives the true count
            cases = [(v, len(str(abs(v)))) for v in self.values()]
            sys.set_int_max_str_digits(self.LIMIT)
            for v, digits in cases:
                if digits <= self.LIMIT:
                    intlat.check_digits("value", [v, 0])
                    continue
                message = f"^value too long \\({digits} digits; the limit is {self.LIMIT}\\)$"
                with pytest.raises(DigitLimitError, match=message):
                    intlat.check_digits("value", [0, v])
        finally:
            sys.set_int_max_str_digits(old)


class TestTextFormat:
    def test_round_trip(self):
        lat = Lattice([[6 * v for v in r] for r in MINKOWSKI], Fraction(7, 6))
        text = intlat.format_lattice(lat)
        back = intlat.parse_lattice(text)
        assert back.gen == lat.gen and back.scale == lat.scale

    def test_no_scale_header_when_one(self):
        text = intlat.format_lattice(Lattice(G3))
        assert not text.startswith("#")
        assert intlat.parse_lattice(text).gen.entries == tuple(map(tuple, G3))

    def test_scale_header_is_integer_ratio(self):
        body = "2 2\n4 0\n0 4\n"
        for header, scale in [("3", 3), ("+1/2", Fraction(1, 2)), ("1_0/4", Fraction(5, 2))]:
            assert intlat.parse_lattice(f"# scale {header}\n{body}").scale == scale
        for header in ("0.5", "1e9", "1/-2", "1/+2", "1/", "/2", "1/2/3", "1/0"):
            with pytest.raises(ValueError, match="^line 1: bad scale value$"):
                intlat.parse_lattice(f"# scale {header}\n{body}")

    def test_parse_rejects_bad_body(self):
        with pytest.raises(ValueError):
            intlat.parse_lattice("2 2\n1 2\n3\n")
        with pytest.raises(ValueError):
            intlat.parse_lattice("2 2\n1 2\n")
        with pytest.raises(ValueError):
            intlat.parse_lattice("2 2\n1 x\n3 4\n")
