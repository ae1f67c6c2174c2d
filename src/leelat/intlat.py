"""Exact integer matrices and sublattices of Z^n.

Everything here is arbitrary-precision: matrix entries are Python ints,
scale factors are ``fractions.Fraction``.  No floating point is used
anywhere in this module.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from collections import namedtuple
from fractions import Fraction

from .errors import (
    DigitLimitError,
    DimensionError,
    IntegralityError,
    SingularMatrixError,
    StructureError,
)


class IntMatrix:
    """Immutable dense matrix of exact integers, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        rows = []
        for row in entries:
            row = tuple(row)
            for v in row:
                if not isinstance(v, int):
                    raise IntegralityError(f"matrix entry {v!r} is not an int")
            rows.append(row)
        if not rows or not rows[0]:
            raise DimensionError("matrix must have at least one row and column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise DimensionError("ragged rows in matrix input")
        object.__setattr__(self, "entries", tuple(rows))
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def transpose(self) -> "IntMatrix":
        return _trusted(zip(*self.entries))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionError("inner dimensions disagree")
        cols = list(zip(*other.entries))
        return _trusted(
            [[sum(a * b for a, b in zip(r, c)) for c in cols] for r in self.entries]
        )

    def mat_vec(self, x) -> tuple:
        """Matrix times column vector."""
        if len(x) != self.cols:
            raise DimensionError("vector length disagrees with matrix width")
        return tuple([sum(map(operator.mul, r, x)) for r in self.entries])

    def scaled(self, k: int) -> "IntMatrix":
        if not isinstance(k, int):
            raise IntegralityError(f"scale factor {k!r} is not an int")
        return _trusted([[k * v for v in r] for r in self.entries])

    def kron(self, other: "IntMatrix") -> "IntMatrix":
        """Kronecker product, self's entries expanded by blocks of other."""
        out = []
        for arow in self.entries:
            for brow in other.entries:
                out.append([a * b for a in arow for b in brow])
        return _trusted(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.entries]})"


def _trusted(rows) -> IntMatrix:
    """An IntMatrix of ``rows`` without the entry and shape checks: only for
    a non-empty rectangle of ints that this module computed from checked
    matrices."""
    m = object.__new__(IntMatrix)
    entries = tuple(map(tuple, rows))
    object.__setattr__(m, "entries", entries)
    object.__setattr__(m, "rows", len(entries))
    object.__setattr__(m, "cols", len(entries[0]))
    return m


def _pivot_column(m: list, j: int, rows) -> int:
    """Euclid on column j over the row indices ``rows`` (which include j).

    Repeatedly moves the smallest nonzero entry to row j and floor-reduces
    the other rows by it, until row j holds the positive gcd and the other
    rows are zero in column j.  Row operations only, in place.  Returns
    the determinant (+1 or -1) of those row operations.
    """
    sign = 1
    while True:
        best = -1
        for i in rows:
            v = m[i][j]
            if v != 0 and (best < 0 or abs(v) < abs(m[best][j])):
                best = i
        if best < 0:
            raise SingularMatrixError(f"no nonzero pivot in column {j}")
        if best != j:
            m[best], m[j] = m[j], m[best]
            sign = -sign
        pivot = m[j][j]
        clean = True
        for i in rows:
            if i != j and m[i][j] != 0:
                q = m[i][j] // pivot
                if q:
                    m[i] = [a - q * b for a, b in zip(m[i], m[j])]
                if m[i][j] != 0:
                    clean = False
        if clean:
            break
    if m[j][j] < 0:
        m[j] = [-v for v in m[j]]
        sign = -sign
    return sign


def _hnf_rows(rows) -> tuple:
    """Lower-triangular row HNF of a stack of n rows, and the determinant
    (+1 or -1) of the row operations that reach it.

    The HNF is taken of the first n columns: it has a positive diagonal
    and entries below each diagonal reduced into ``[0, diag)``.  Columns
    after the n-th ride along with the row operations.  Row operations
    only, so the generated lattice is unchanged.  Raises
    SingularMatrixError when the square part is singular.
    """
    m = [list(r) for r in rows]
    n = len(m)
    sign = 1
    for j in range(n - 1, -1, -1):
        # a positive pivot alone in its column is already reduced; the
        # entry above it (for j = 0, the last row's) turns most full
        # columns away before the C-level scans of the rest
        if m[j][j] > 0 and not m[j - 1][j]:
            pick = operator.itemgetter(j)
            if not any(map(pick, m[:j])) and not any(map(pick, m[j + 1:])):
                continue
        sign *= _pivot_column(m, j, range(j + 1))
        pivot = m[j][j]
        for i in range(j + 1, n):
            q = m[i][j] // pivot
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], m[j])]
    return m, sign


def det(m: IntMatrix) -> int:
    """Exact determinant: the sign of the HNF's row operations times its
    diagonal product."""
    if m.rows != m.cols:
        raise DimensionError("determinant needs a square matrix")
    try:
        h, sign = _hnf_rows(m.entries)
    except SingularMatrixError:
        return 0
    return sign * math.prod(h[i][i] for i in range(m.rows))


def hnf(m: IntMatrix) -> IntMatrix:
    """Canonical lower-triangular Hermite normal form of a square matrix.

    Two generator matrices span the same lattice iff their HNFs are equal.
    """
    if m.rows != m.cols:
        raise DimensionError("hnf needs a square matrix")
    return _trusted(_hnf_rows(m.entries)[0])


def _diagonalize(a) -> tuple:
    """Row HNFs of the lower-triangular square stack ``a`` and of its
    transpose, alternated until it is diagonal (Kannan & Bachem 1979).

    A pass on the transpose is a column operation on ``a``; each such
    pass extends its rows by the columns of the column transform so far,
    so the final stack is D = U·a·Q with U and Q unimodular.  Returns D's
    diagonal and the rows of Q's transpose, or None for Q when ``a`` is
    already diagonal (then Q is the identity).
    """
    n = len(a)
    qt = None
    transposed = False
    while any(a[i][k] for i in range(n) for k in range(i)):
        rows = zip(*a)
        if transposed:
            a = _hnf_rows(rows)[0]
        else:
            if qt is None:
                qt = [[int(i == j) for j in range(n)] for i in range(n)]
            out = _hnf_rows([list(r) + q for r, q in zip(rows, qt)])[0]
            a = [r[:n] for r in out]
            qt = [r[n:] for r in out]
        transposed = not transposed
    return [a[i][i] for i in range(n)], qt


def snf(m: IntMatrix) -> list:
    """Elementary divisors s_1 | s_2 | ... | s_n with product |det|.

    The diagonal form that ``coset_group`` reads, from the same
    alternation; gcd/lcm swaps then make the diagonal a divisor chain.
    """
    if m.rows != m.cols:
        raise DimensionError("snf needs a square matrix")
    n = m.rows
    # The first pass reduces the input itself: that rejects a singular
    # input and makes a diagonal one positive before the diagonality test.
    s = _diagonalize(_hnf_rows(m.entries)[0])[0]
    for i in range(n):
        for k in range(i + 1, n):
            g = math.gcd(s[i], s[k])
            s[i], s[k] = g, s[i] // g * s[k]
    return s


def adjugate(m: IntMatrix) -> IntMatrix:
    """Exact adjugate, so that m @ adjugate(m) == det(m) * I: entry (i, j)
    is the cofactor of m at (j, i)."""
    if m.rows != m.cols:
        raise DimensionError("adjugate needs a square matrix")
    if det(m) == 0:
        raise SingularMatrixError("adjugate of a singular matrix")
    n = m.rows
    if n == 1:
        return IntMatrix([[1]])

    def cofactor(i, j):
        minor = [r[:j] + r[j + 1 :] for k, r in enumerate(m.entries) if k != i]
        return (-1) ** (i + j) * det(IntMatrix(minor))

    return IntMatrix([[cofactor(j, i) for j in range(n)] for i in range(n)])


def _balanced_prod(values: list) -> int:
    """The product of ``values``, multiplied pairwise in rounds so that each
    product meets a partner of its own size; a left-to-right product
    multiplies an ever longer number by one short one at every step."""
    while len(values) > 1:
        odd = values[-1:] if len(values) % 2 else []
        values = list(map(operator.mul, values[::2], values[1::2])) + odd
    return values[0]


class Lattice:
    """A full-rank sublattice of Z^n: integer generator rows plus an exact
    rational scale factor applied to every row, which must keep them integral.

    The rest is settled when the lattice is made: ``int_matrix`` is the
    scaled generator, ``hnf`` its Hermite normal form and ``volume`` the
    product of the HNF diagonal, |det|, the index of the lattice in Z^n.
    """

    __slots__ = ("gen", "scale", "n", "int_matrix", "hnf", "volume")

    def __init__(self, gen, scale=1):
        if not isinstance(gen, IntMatrix):
            gen = IntMatrix(gen)
        if gen.rows != gen.cols:
            raise DimensionError("generator matrix must be square")
        scale = _exact(scale, "scale")
        if scale <= 0:
            raise ValueError("scale must be positive")
        try:
            h = hnf(gen)
        except SingularMatrixError:
            raise SingularMatrixError("generator rows are linearly dependent") from None
        _settle(self, gen, scale, h, scale)

    def __setattr__(self, name, value):
        raise AttributeError("Lattice is immutable")

    def __repr__(self) -> str:
        s = "" if self.scale == 1 else f", scale={self.scale}"
        return f"Lattice({[list(r) for r in self.gen.entries]}{s})"


def _exact(value, what: str) -> Fraction:
    """``value`` as a Fraction, when it is an int or a Fraction: a float or
    a string would pass ``Fraction()`` and break the exactness contract."""
    if not isinstance(value, (int, Fraction)):
        raise IntegralityError(f"{what} {value!r} is not an int or a Fraction")
    return Fraction(value)


def _times(m: IntMatrix, c: Fraction) -> IntMatrix:
    """c·m, for a c that keeps m integral."""
    if c == 1:
        return m
    num, den = c.numerator, c.denominator
    return _trusted([[v // den * num for v in r] for r in m.entries])


def _settle(lat: Lattice, gen: IntMatrix, scale: Fraction, h: IntMatrix, f: Fraction) -> Lattice:
    """Set the fields of ``lat`` from its square nonsingular generator, its
    positive scale, and an h with f·h the HNF of scale·gen.  Raises
    IntegralityError when the scale does not keep the generator integral.

    Lattices derived from others pass the HNF their inputs hold, so only
    ``Lattice()`` itself reduces a generator from scratch.
    """
    if scale != 1 and any(v % scale.denominator for r in gen.entries for v in r):
        raise IntegralityError(f"scale {scale} does not keep the generator integral")
    # c.HNF(G) = HNF(c.G) for c > 0, integral since c.G is
    h = _times(h, f)
    object.__setattr__(lat, "gen", gen)
    object.__setattr__(lat, "scale", scale)
    object.__setattr__(lat, "n", gen.rows)
    object.__setattr__(lat, "int_matrix", _times(gen, scale))
    object.__setattr__(lat, "hnf", h)
    object.__setattr__(lat, "volume", _balanced_prod([h.entries[i][i] for i in range(gen.rows)]))
    return lat


def same_lattice(a: Lattice, b: Lattice) -> bool:
    """Exact lattice equality via canonical HNFs."""
    return a.n == b.n and a.hnf == b.hnf


def contains(lat: Lattice, x) -> bool:
    """Membership test: is x an integer combination of the generator rows?

    x is in the lattice exactly when its canonical residue is zero.
    """
    return not any(canonical_residue(lat, x))


def canonical_residue(lat: Lattice, x) -> tuple:
    """Canonical coset representative of x modulo the lattice.

    Reduces against the HNF from the last coordinate down; the result has
    0 <= r_i < diag_i, one representative per coset.
    """
    if len(x) != lat.n:
        raise DimensionError("point length disagrees with lattice dimension")
    h = lat.hnf.entries
    r = list(x)
    for i in range(lat.n - 1, -1, -1):
        q = r[i] // h[i][i]
        if q:
            hi = h[i]
            for j in range(i + 1):
                r[j] -= q * hi[j]
    return tuple(r)


def coset_group(lat: Lattice) -> tuple:
    """Z^n/L as a product of cyclic groups Z/d_1 x ... x Z/d_k.

    The HNF alternates with its transpose until diagonal, D = U·hnf·Q
    (see ``snf``, which runs the same loop).  Then x is in L exactly when
    (x·Q)_i = 0 mod d_i for every i, so σ(x) = ((x·Q)_i mod d_i)_i is a
    homomorphism from Z^n onto the product with kernel L.  Returns the
    diagonal entries d_i > 1, in the order the alternation leaves them
    (not a divisor chain), and σ(e_j) for every unit vector e_j: then
    σ(x) = Σ_j x_j·σ(e_j), digit i taken mod d_i.
    """
    n = lat.n
    diag, qt = _diagonalize(lat.hnf.entries)
    keep = [i for i in range(n) if diag[i] > 1]
    divisors = tuple(diag[i] for i in keep)
    if qt is None:
        return divisors, [tuple(int(i == j) for i in keep) for j in range(n)]
    return divisors, [tuple(qt[i][j] % diag[i] for i in keep) for j in range(n)]


def period(lat: Lattice):
    """Per-axis periods (m_1, ..., m_n) and their lcm m.

    m_i is the least positive integer with m_i * e_i in the lattice; the
    code reduces to a Lee code over Z_m.  Each m_i is read off the HNF:
    walking the rows from i down, coordinate k of the current multiple
    of e_i must first be made divisible by the diagonal h_kk, which
    costs the factor h_kk / gcd(h_kk, v_k), and is then cleared by
    subtracting a multiple of row k.
    """
    h = lat.hnf.entries
    periods = []
    for i in range(lat.n):
        v = [0] * i + [1]
        mi = 1
        for k in range(i, -1, -1):
            hk = h[k]
            a = hk[k] // math.gcd(hk[k], v[k])
            if a > 1:
                mi *= a
                v = [a * t for t in v]
            q = v[k] // hk[k]
            if q:
                for j in range(k + 1):
                    v[j] -= q * hk[j]
        periods.append(mi)
    return tuple(periods), math.lcm(*periods)


class CodeParams(namedtuple("CodeParams", "n d v q")):
    """The (n, d, v, q) parameter tuple with its nominal packing density."""

    __slots__ = ()

    @property
    def density(self) -> Fraction:
        return Fraction(self.d**self.n, math.factorial(self.n) * self.v)


def reduce_mod_period(lat: Lattice, min_dist: int) -> CodeParams:
    """Parameters of the Lee code over Z_m the lattice reduces to.

    The minimum distance is taken as given (computed by the caller); the
    reduction preserves it.
    """
    _, m = period(lat)
    return CodeParams(n=lat.n, d=min_dist, v=lat.volume, q=m)


def kronecker(a: Lattice, b: Lattice) -> Lattice:
    """Direct-product lattice; an (n1*n2, d1*d2, v1^n2 * v2^n1, q1*q2) code.

    With U_a·A = HNF(A) and U_b·B = HNF(B), U_a ⊗ U_b is unimodular, so
    A ⊗ B and HNF(A) ⊗ HNF(B) span the same lattice, and the latter is
    already in HNF: its entry in row (i, k) and column (j, l) is
    a_ij·b_kl, zero above the diagonal, a_jj·b_ll > 0 on it, and below it
    0 <= a_ij <= a_jj and 0 <= b_kl <= b_ll with one of them strictly
    less, so in [0, a_jj·b_ll).
    """
    h = a.hnf.kron(b.hnf)
    return _settle(object.__new__(Lattice), a.gen.kron(b.gen), a.scale * b.scale, h, 1)


def scale(lat: Lattice, f) -> Lattice:
    """Multiply the lattice by an exact positive rational.

    Volume scales by f^n and every Manhattan distance by f.  Raises
    IntegralityError when the scaled generator is not integral.
    """
    f = _exact(f, "scale factor")
    if f <= 0:
        raise ValueError("scale factor must be positive")
    return _settle(object.__new__(Lattice), lat.gen, lat.scale * f, lat.hnf, f)


def puncture(lat: Lattice) -> Lattice:
    """Drop the first coordinate of a code whose generator has first
    column (1, 0, ..., 0).

    With that shape every punctured codeword lifts back with a zero first
    coordinate, so the minimum distance cannot drop and the volume is
    unchanged.  Callers normalize first (see ``normalize_first_column``).
    """
    m = lat.int_matrix
    if m.rows < 2:
        raise DimensionError("cannot puncture a 1-dimensional lattice")
    if m.entries[0][0] != 1 or any(r[0] != 0 for r in m.entries[1:]):
        raise StructureError(
            "generator must have first column (1, 0, ..., 0); "
            "normalize the first column before puncturing"
        )
    return Lattice([list(r[1:]) for r in m.entries[1:]])


def normalize_first_column(lat: Lattice) -> Lattice:
    """Row-reduce so the first column becomes (g, 0, ..., 0), g > 0.

    g is the gcd of the first coordinates; when g == 1 the result is in
    the shape ``puncture`` demands.
    """
    m = [list(r) for r in lat.int_matrix.entries]
    _pivot_column(m, 0, range(len(m)))
    return _settle(object.__new__(Lattice), _trusted(m), Fraction(1), lat.hnf, 1)


# --- shared matrix text format ------------------------------------------
#
#   # scale p/q        (optional; omitted when the scale is 1)
#   3 3
#   1 -2 3
#   -2 3 1
#   3 1 -2


def format_lattice(lat: Lattice) -> str:
    m = lat.gen
    lines = [] if lat.scale == 1 else [f"# scale {lat.scale.numerator}/{lat.scale.denominator}"]
    lines.append(f"{m.rows} {m.cols}")
    lines += [" ".join(str(v) for v in row) for row in m.entries]
    return "\n".join(lines) + "\n"


def _too_long(what: str, digits: int) -> str | None:
    """The message for a ``what`` of ``digits`` digits past the interpreter's
    int-string limit (``sys.get_int_max_str_digits``), None within it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and digits > limit:
        return f"{what} too long ({digits} digits; the limit is {limit})"
    return None


def number_fault(text: str, what: str, fault: str) -> str:
    """The message for ``text`` that failed to parse as numbers: ``fault``,
    unless a run of digits in it is past the int-string limit."""
    longest = max(map(len, re.findall(r"\d+", text)), default=0)
    return _too_long(what, longest) or fault


def check_digits(what: str, values) -> None:
    """Raise DigitLimitError when one of the ints ``values`` is past the
    int-string limit, so that ``str`` would refuse it."""
    big = max(map(abs, values), default=0)
    digits = max(big.bit_length() - 1, 0) * 30102999566 // 10**11  # 0.30102999566 < log10(2)
    power = 10**digits
    while big >= power:
        digits += 1
        power *= 10
    fault = _too_long(what, digits)
    if fault:
        raise DigitLimitError(fault)


def parse_lattice(text: str, max_n: int | None = None) -> Lattice:
    """Parse the shared matrix text format into a Lattice; with ``max_n``,
    a header declaring more rows or columns is refused before the body is read."""
    scale_f = Fraction(1)
    rows = []
    dims = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if parts and parts[0] == "scale":
                if len(parts) != 2:
                    raise ValueError(f"line {lineno}: malformed scale header")
                num, slash, den = parts[1].partition("/")
                try:  # integer p/q or p, read by int as entries are; q takes no sign
                    if den[:1] in ("+", "-"):
                        raise ValueError(den)
                    scale_f = Fraction(int(num), int(den) if slash else 1)
                except (ValueError, ZeroDivisionError) as e:
                    fault = number_fault(parts[1], "scale value", "bad scale value")
                    raise ValueError(f"line {lineno}: {fault}") from e
            continue
        try:
            values = [int(v) for v in line.split()]
        except ValueError as e:
            fault = number_fault(line, "entry", "non-integer entry")
            raise ValueError(f"line {lineno}: {fault}") from e
        if dims is None:
            if len(values) != 2:
                raise ValueError(f"line {lineno}: expected 'rows cols' header")
            dims = (values[0], values[1])
            if max_n is not None and max(dims) > max_n:
                raise ValueError(f"line {lineno}: a {dims[0]}x{dims[1]} matrix is above "
                                 f"the dimension ceiling {max_n}")
        else:
            if len(values) != dims[1]:
                raise ValueError(f"line {lineno}: expected {dims[1]} entries")
            rows.append(values)
    if dims is None or len(rows) != dims[0]:
        raise ValueError("matrix body does not match its declared dimensions")
    return Lattice(rows, scale_f)
