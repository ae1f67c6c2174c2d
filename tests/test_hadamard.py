from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leelat import analyzer, hadamard, intlat
from leelat.errors import DimensionError
from leelat.intlat import IntMatrix, Lattice

from helpers import kronecker_rows, lee_code_min_distance

PRINTED_ORDER_4 = [
    [1, 1, 1, 1],
    [1, -1, 1, -1],
    [1, 1, -1, -1],
    [1, -1, -1, 1],
]

PRINTED_H2 = [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]]

PRINTED_TRIANGULAR_ORDER_4 = [[1, 1, 1, 1], [0, 2, 0, 2], [0, 0, 2, 2], [0, 0, 0, 4]]


class TestSylvester:
    def test_order_one(self):
        assert hadamard.sylvester(0).matrix.entries == ((1,),)

    def test_order_four_matches_printed(self):
        assert hadamard.sylvester(2).matrix.entries == tuple(
            tuple(r) for r in PRINTED_ORDER_4
        )

    def test_defining_identity_order_8(self):
        h = hadamard.sylvester(3)
        eye8 = IntMatrix.identity(8).scaled(8)
        assert h.matrix @ h.matrix.transpose() == eye8

    def test_symmetric_and_normalized(self):
        for k in range(5):
            h = hadamard.sylvester(k)
            assert h.is_symmetric and h.is_normalized


class TestPaley:
    @pytest.mark.parametrize("q", [3, 7, 11, 19])
    def test_valid_orders(self, q):
        h = hadamard.paley(q)
        assert h.order == q + 1
        assert h.is_normalized
        # HadamardMatrix validates H H^T = nI at construction; spot-check anyway
        m = h.matrix
        assert m @ m.transpose() == IntMatrix.identity(q + 1).scaled(q + 1)

    def test_rejects_one_mod_four(self):
        with pytest.raises(ValueError):
            hadamard.paley(5)

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            hadamard.paley(15)

    def test_order_12_not_symmetric(self):
        assert not hadamard.paley(11).is_symmetric

    def test_textbook_matrix_normalized(self):
        # I + S with S = [[0, 1^T], [-1, Q]], Q_ij = chi(i - j), then columns
        # and rows negated until the first row and column are +1
        for q in filter(hadamard.is_paley_prime, range(256)):
            chi = [0] + [1 if pow(x, (q - 1) // 2, q) == 1 else -1 for x in range(1, q)]
            m = [[1] * (q + 1)] + [
                [-1] + [1 if i == j else chi[(i - j) % q] for j in range(q)] for i in range(q)
            ]
            for j in range(q + 1):
                if m[0][j] == -1:
                    for row in m:
                        row[j] = -row[j]
            m = [row if row[0] == 1 else [-v for v in row] for row in m]
            assert hadamard.paley(q).matrix.entries == tuple(map(tuple, m)), q


class TestHadamardMatrix:
    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            hadamard.HadamardMatrix(IntMatrix([[1, 1, 1, 1], [1, -1, 1, -1]]))

    @pytest.mark.parametrize("bad", [0, 2])
    def test_entry_not_plus_minus_one(self, bad):
        rows = [list(r) for r in PRINTED_ORDER_4]
        rows[3][2] = bad
        with pytest.raises(ValueError, match=r"^entries must be \+1 or -1$"):
            hadamard.HadamardMatrix(IntMatrix(rows))

    @pytest.mark.parametrize(
        "h", [hadamard.sylvester(3), hadamard.paley(11)], ids=["sylvester3", "paley11"]
    )
    def test_every_single_flip_names_first_pair(self, h):
        # a flip in row r breaks its pair with row 0 first (row 1 when r = 0)
        for r in range(h.order):
            for c in range(h.order):
                rows = [list(row) for row in h.matrix.entries]
                rows[r][c] = -rows[r][c]
                with pytest.raises(ValueError, match=rf"^rows 0 and {r or 1} are not orthogonal$"):
                    hadamard.HadamardMatrix(IntMatrix(rows))


def gram_is_scalar(rows):
    n = len(rows)
    return all(
        sum(a * b for a, b in zip(rows[i], rows[j])) == (n if i == j else 0)
        for i in range(n)
        for j in range(n)
    )


HADAMARD_SEEDS = [hadamard.sylvester(k) for k in range(5)] + [
    hadamard.paley(q) for q in (3, 7, 11, 19)
]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_equivalent_matrices_accepted(data):
    # negating and permuting rows and columns keeps H H^T = nI
    h = data.draw(st.sampled_from(HADAMARD_SEEDS))
    n = h.order
    row_order = data.draw(st.permutations(range(n)))
    col_order = data.draw(st.permutations(range(n)))
    row_signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    col_signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    m = h.matrix.entries
    rows = [
        [row_signs[i] * col_signs[j] * m[row_order[i]][col_order[j]] for j in range(n)]
        for i in range(n)
    ]
    assert hadamard.HadamardMatrix(IntMatrix(rows)).matrix.entries == tuple(map(tuple, rows))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 8).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
def test_random_sign_matrix_verdict_matches_gram(rows):
    try:
        hadamard.HadamardMatrix(IntMatrix(rows))
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == gram_is_scalar(rows)


class TestSplit:
    """``split`` is the largest k with H = H_2^(x)k (x) A."""

    def test_sylvester_splits_fully(self):
        assert [hadamard.sylvester(k).split for k in range(7)] == list(range(7))

    @pytest.mark.parametrize("q", [3, 7, 11, 19])
    def test_paley_does_not_split(self, q):
        assert hadamard.paley(q).split == 0

    @pytest.mark.parametrize("k,q", [(1, 7), (2, 3), (2, 11)])
    def test_kronecker_with_paley_stops_at_the_leaf(self, k, q):
        rows = kronecker_rows(hadamard.sylvester(k).matrix.entries, hadamard.paley(q).matrix.entries)
        assert hadamard.HadamardMatrix(IntMatrix(rows)).split == k

    def test_row_permuted_sylvester_stops_early(self):
        # swapping rows 1 and 2 of the order-4 leaf keeps the rows of
        # sylvester(4) but leaves only the two outer stages
        leaf = [list(r) for r in hadamard.sylvester(2).matrix.entries]
        leaf[1], leaf[2] = leaf[2], leaf[1]
        rows = kronecker_rows(hadamard.sylvester(2).matrix.entries, leaf)
        assert sorted(rows) == sorted(map(list, hadamard.sylvester(4).matrix.entries))
        assert hadamard.HadamardMatrix(IntMatrix(rows)).split == 2

    def test_negated_sylvester_splits_fully(self):
        rows = [[-v for v in r] for r in hadamard.sylvester(3).matrix.entries]
        assert hadamard.HadamardMatrix(IntMatrix(rows)).split == 3


class TestNormalize:
    def test_identity_on_normal_form(self):
        h = hadamard.sylvester(2)
        assert hadamard.normalize(h).matrix == h.matrix

    def test_row_negation_restored(self):
        rows = [list(r) for r in PRINTED_ORDER_4]
        rows[2] = [-v for v in rows[2]]
        h = hadamard.HadamardMatrix(IntMatrix(rows))
        assert hadamard.normalize(h).matrix.entries == tuple(
            tuple(r) for r in PRINTED_ORDER_4
        )

    def test_always_normalized(self):
        rows = [[-v for v in r] for r in hadamard.paley(7).matrix.entries]
        h = hadamard.HadamardMatrix(IntMatrix(rows))
        assert hadamard.normalize(h).is_normalized


class TestHadamardCode:
    def test_order_4_parameters(self):
        code = hadamard.hadamard_code(hadamard.sylvester(2))
        d = analyzer.min_distance(code)
        params = intlat.reduce_mod_period(code, d)
        assert (params.n, params.d, params.v, params.q) == (4, 4, 16, 4)

    def test_order_8_parameters(self):
        code = hadamard.hadamard_code(hadamard.sylvester(3))
        assert code.volume == 8**4
        assert analyzer.min_distance(code) == 8
        _, m = intlat.period(code)
        assert m == 8
        assert lee_code_min_distance(code.int_matrix.entries, m) == 8

    def test_order_12_volume(self):
        code = hadamard.hadamard_code(hadamard.paley(11))
        assert code.volume == 12**6
        assert intlat.period(code)[1] == 12

    def test_requires_normal_form(self):
        rows = [[-v for v in r] for r in PRINTED_ORDER_4]
        h = hadamard.HadamardMatrix(IntMatrix(rows))
        with pytest.raises(ValueError):
            hadamard.hadamard_code(h)

    def test_same_lattice_as_printed_triangular_form(self):
        code = hadamard.hadamard_code(hadamard.sylvester(2))
        assert intlat.same_lattice(code, Lattice(PRINTED_TRIANGULAR_ORDER_4))


class TestHMatrix:
    def test_seed(self):
        assert hadamard.h_matrix(2).entries == tuple(tuple(r) for r in PRINTED_H2)

    def test_det_one(self):
        for i in range(2, 7):
            assert intlat.det(hadamard.h_matrix(i)) == 1

    def test_row_sum_multiplicities(self):
        for i in range(2, 6):
            sums = Counter(sum(row) for row in hadamard.h_matrix(i).entries)
            assert sums == Counter({2 ** (i - r): comb(i, r) for r in range(i + 1)})

    def test_minimum_index(self):
        with pytest.raises(ValueError):
            hadamard.h_matrix(1)


class TestGMatrix:
    def test_g22_is_printed_triangular_form(self):
        assert hadamard.g_matrix(2, 2).gen.entries == tuple(
            tuple(r) for r in PRINTED_TRIANGULAR_ORDER_4
        )

    @pytest.mark.parametrize(
        "i,j,n,d,v,q",
        [(2, 2, 4, 4, 16, 4), (3, 2, 8, 4, 32, 4), (2, 3, 4, 8, 256, 8)],
    )
    def test_parameters(self, i, j, n, d, v, q):
        lat = hadamard.g_matrix(i, j)
        dist = analyzer.min_distance(lat)
        params = intlat.reduce_mod_period(lat, dist)
        assert (params.n, params.d, params.v, params.q) == (n, d, v, q)
        assert lee_code_min_distance(lat.int_matrix.entries, params.q) == d

    def test_volume_formula_values(self):
        assert hadamard.g_volume_formula(2, 2) == 16
        assert hadamard.g_volume_formula(3, 2) == 32
        assert hadamard.g_volume_formula(2, 3) == 256
        assert hadamard.g_volume_formula(3, 3) == 4096

    def test_volume_formula_matches_determinant(self):
        for i in range(2, 5):
            for j in range(2, 5):
                assert abs(intlat.det(hadamard.g_matrix(i, j).gen)) == (
                    hadamard.g_volume_formula(i, j)
                )
