"""Hadamard matrices (Sylvester and Paley type I) and the generator
matrices derived from them.

Supported orders are 2^k and q+1 for primes q = 3 (mod 4); that covers
every order used elsewhere in the package (4, 8, 12, 16, 20, ...).
"""

from __future__ import annotations

from math import comb

from .errors import DimensionError
from .intlat import IntMatrix, Lattice


class HadamardMatrix:
    """A +-1 matrix H of order n with H @ H^T == n * I, checked on
    construction.

    ``split`` is the largest k with H = H_2^(x)k (x) A, H_2 = [[1, 1], [1, -1]]
    and A the top-left block of order n / 2^k: k = log2(n) for a Sylvester
    matrix (A = [1]), 0 for a Paley matrix.  ``xform.hadamard_columns`` runs
    k butterfly stages and applies A only to the blocks they leave."""

    __slots__ = ("order", "matrix", "split")

    def __init__(self, matrix: IntMatrix):
        if matrix.rows != matrix.cols:
            raise DimensionError("Hadamard matrix must be square")
        n = matrix.rows
        # Row i as a mask with bit k set where entry k is -1: two +-1 rows
        # have dot product n - 2 * popcount(a ^ b), and a row with itself n.
        masks = []
        for row in matrix.entries:
            if not set(row) <= {1, -1}:
                raise ValueError("entries must be +1 or -1")
            masks.append(sum(1 << k for k, v in enumerate(row) if v == -1))
        for i, a in enumerate(masks):
            for j in range(i + 1, n):
                if 2 * (a ^ masks[j]).bit_count() != n:
                    raise ValueError(f"rows {i} and {j} are not orthogonal")
        k, m = 0, n
        while m % 2 == 0 and _doubles(masks, m):
            k, m = k + 1, m // 2
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "split", k)

    def __setattr__(self, name, value):
        raise AttributeError("HadamardMatrix is immutable")

    @property
    def is_normalized(self) -> bool:
        m = self.matrix.entries
        return all(v == 1 for v in m[0]) and all(r[0] == 1 for r in m)

    @property
    def is_symmetric(self) -> bool:
        m = self.matrix.entries
        return all(m[i][j] == m[j][i] for i in range(self.order) for j in range(i))

    def __repr__(self) -> str:
        return f"HadamardMatrix(order={self.order})"


def _doubles(masks, m: int) -> bool:
    """Whether the top-left block of order m of the matrix with these row
    masks is [[B, B], [B, -B]]: each row i < m/2 reads a|a on its first m
    columns and row i + m/2 reads a|~a, with a the row's mask of B."""
    half = m // 2
    low, whole = (1 << half) - 1, (1 << m) - 1
    for top, bottom in zip(masks, masks[half:m]):
        a = top & low
        if top & whole != a | a << half or bottom & whole != a | (a ^ low) << half:
            return False
    return True


def sylvester(k: int) -> HadamardMatrix:
    """Doubling construction: symmetric normalized matrix of order 2^k."""
    if k < 0:
        raise ValueError("k must be non-negative")
    rows = [[1]]
    for _ in range(k):
        rows = [r + r for r in rows] + [r + [-v for v in r] for r in rows]
    return HadamardMatrix(IntMatrix(rows))


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def is_paley_prime(q: int) -> bool:
    """Whether ``paley(q)`` applies: q is a prime congruent to 3 mod 4."""
    return q % 4 == 3 and _is_prime(q)


def paley(q: int) -> HadamardMatrix:
    """Quadratic-residue construction of order q+1 for primes q = 3 (mod 4),
    in normalized form: I + S with S = [[0, 1], [-1, Q]], Q_ij = chi(i - j),
    and rows 1..q negated."""
    if not is_paley_prime(q):
        raise ValueError("q must be a prime congruent to 3 mod 4")
    residues = {(x * x) % q for x in range(1, q)}
    chi = [0] + [1 if x in residues else -1 for x in range(1, q)]
    rows = [[1] * (q + 1)]
    for i in range(1, q + 1):
        rows.append([1] + [-1 if i == j else -chi[(i - j) % q] for j in range(1, q + 1)])
    return HadamardMatrix(IntMatrix(rows))


def normalize(h: HadamardMatrix) -> HadamardMatrix:
    """Negate columns, then rows, until the first row and column are all +1."""
    m = [list(r) for r in h.matrix.entries]
    n = h.order
    for j in range(n):
        if m[0][j] == -1:
            for i in range(n):
                m[i][j] = -m[i][j]
    for i in range(n):
        if m[i][0] == -1:
            m[i] = [-v for v in m[i]]
    return HadamardMatrix(IntMatrix(m))


def hadamard_code(h: HadamardMatrix) -> Lattice:
    """The lattice generated by the rows of a normalized Hadamard matrix.

    Contract: minimum distance n, volume n^(n/2), reduces to a Lee code
    over Z_n.
    """
    if not h.is_normalized:
        raise ValueError("normalize the matrix first")
    return Lattice(h.matrix)


def h_matrix(i: int) -> IntMatrix:
    """The 0/1 upper-triangular matrix of order 2^i built by block doubling
    from the order-4 seed; det 1, row sums 2^(i-r) with multiplicity C(i,r)."""
    if i < 2:
        raise ValueError("i must be at least 2")
    rows = [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]]
    for _ in range(i - 2):
        size = len(rows)
        rows = [r + r for r in rows] + [[0] * size + r for r in rows]
    return IntMatrix(rows)


def g_matrix(i: int, j: int) -> Lattice:
    """Scale the low-weight rows of ``h_matrix(i)`` up to minimum distance 2^j.

    A row with sum 2^l < 2^j is multiplied by 2^(j-l).  Contract: length
    2^i, minimum distance 2^j, volume ``g_volume_formula(i, j)``, Lee code
    over Z_{2^j}.
    """
    if i < 2 or j < 2:
        raise ValueError("i and j must be at least 2")
    base = h_matrix(i)
    target = 2**j
    rows = []
    for row in base.entries:
        s = sum(row)
        rows.append(list(row) if s >= target else [target // s * v for v in row])
    return Lattice(rows)


def g_volume_formula(i: int, j: int) -> int:
    """prod_{r=0}^{min(i,j)} 2^((j-r) * C(i,r)), the volume of g_matrix(i, j)."""
    if i < 2 or j < 2:
        raise ValueError("i and j must be at least 2")
    exponent = sum((j - r) * comb(i, r) for r in range(min(i, j) + 1))
    return 2**exponent
