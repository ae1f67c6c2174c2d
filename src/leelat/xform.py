"""Sphere-to-box transformations driven by a symmetric Hadamard matrix.

The continuous map sends x to H.x/sqrt(n); values are kept exact as
integer vectors over a square-root denominator.  For n = d^2 the integer
points mapping back into Z^n form a lattice code with minimum distance d,
and combining the map with coset leaders gives an involution of Z^n that
squeezes a Lee sphere into a small box.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import accumulate, islice

from . import analyzer, intlat, metric
from .errors import BoundViolationError, DimensionError, IntegralityError
from .hadamard import HadamardMatrix, sylvester
from .intlat import IntMatrix, Lattice


@dataclass(frozen=True)
class RadicalVector:
    """An exact vector of the form (integer components) / sqrt(radicand)."""

    nums: tuple
    radicand: int

    def __post_init__(self):
        if self.radicand <= 0:
            raise ValueError("radicand must be positive")

    def to_int_vector(self) -> tuple:
        """The exact integer value, defined when the radicand is a perfect
        square dividing every component."""
        root = math.isqrt(self.radicand)
        if root * root != self.radicand:
            raise IntegralityError(f"radicand {self.radicand} is not a square")
        if any(v % root for v in self.nums):
            raise IntegralityError("components are not divisible by the root")
        return tuple(v // root for v in self.nums)


#: points per block in the column sweeps: enough to spread each elementwise
#: pass's call over many points, few enough that a block's columns stay small
BLOCK = 256


def column_blocks(points, n: int):
    """Yield the points of length ``n``, in input order, in blocks of at most
    ``BLOCK`` held as coordinate columns: column j of a block is the tuple of
    the j-th coordinates of its points."""
    points = iter(points)
    while block := list(islice(points, BLOCK)):
        if any(len(p) != n for p in block):
            raise DimensionError("point length disagrees with the transform order")
        yield list(zip(*block))


def hadamard_columns(h: HadamardMatrix, cols) -> list:
    """H.x for every point x of a block held as coordinate columns: column i
    of the result holds (H.x)_i of each point, exactly.

    With H = H_2^(x)k (x) A (k = ``h.split``), H.x is k stages of the fast
    Walsh-Hadamard butterfly, each sending a column pair (x, y) to
    (x + y, x - y), then A on each run of order(A) columns they leave.  Row
    i of A.x is the total of the run minus twice the total of its columns
    where row i of A is -1.  A Sylvester matrix costs n*log2(n) elementwise
    additions over the block, a Paley matrix (k = 0) about n^2/2."""
    n = h.order
    if len(cols) != n:
        raise DimensionError("point length disagrees with the matrix order")
    if len(set(map(len, cols))) > 1:
        raise DimensionError("coordinate columns of a block differ in length")
    cols = list(cols)
    half = n
    for _ in range(h.split):
        half //= 2
        for start in range(0, n, 2 * half):
            for j in range(start, start + half):
                x, y = cols[j], cols[j + half]
                cols[j] = list(map(operator.add, x, y))
                cols[j + half] = list(map(operator.sub, x, y))
    leaf = [row[:half] for row in h.matrix.entries[:half]]
    return [row for start in range(0, n, half) for row in _rows_product(leaf, cols[start : start + half])]


def _rows_product(rows, cols) -> list:
    # the +-1 matrix with these rows times the block with these columns
    total = cols[0]
    for col in cols[1:]:
        total = list(map(operator.add, total, col))
    out = []
    for row in rows:
        neg = None
        for v, col in zip(row, cols):
            if v < 0:
                neg = col if neg is None else list(map(operator.add, neg, col))
        out.append(total if neg is None else [t - 2 * v for t, v in zip(total, neg)])
    return out


def t_apply(h: HadamardMatrix, x) -> RadicalVector:
    """The continuous transform H.x / sqrt(order), exactly."""
    return RadicalVector(tuple(c[0] for c in hadamard_columns(h, [(v,) for v in x])), h.order)


def _carry_walk(cols, radius: int, origin: tuple):
    """Yield (w, origin + sum_j x_j cols[j]) for every x of Manhattan weight
    w <= radius in Z^len(cols), each once, the origin first.

    The walk fixes the nonzero coordinates of x in increasing position;
    fixing coordinate j to v adds v times cols[j] to the image carried down,
    so a point costs one vector addition instead of a matrix-vector product.
    """
    n = len(cols)

    def walk(start, rem, image):
        # every point with its first nonzero coordinate at or after ``start``
        for j in range(start, n):
            col = cols[j]
            up = down = image
            for left in range(rem - 1, -1, -1):
                up = tuple(map(operator.add, up, col))
                down = tuple(map(operator.sub, down, col))
                yield radius - left, up
                yield radius - left, down
                if left and j + 1 < n:
                    yield from walk(j + 1, left, up)
                    yield from walk(j + 1, left, down)

    yield 0, origin
    yield from walk(0, radius, origin)


def _sphere_box(m: IntMatrix, radius: int, center, d: int, offsets) -> tuple:
    """The per-row extremes ``(lo, hi)`` of floor(m.p / d) + offsets[m.p mod d]
    over every point p of the Lee sphere of the given radius about
    ``center`` (default the origin), and the number of sphere points.

    The coordinates split into a head of n//2 and the tail.  A sphere point
    is a head point of weight w plus a tail point of weight at most
    radius - w, so m.p = A + B with A = m.center + m.head and B = m.tail.
    Each half's ball is walked once, ``BLOCK`` points at a time, and reduced
    to a summary: per weight and residue class y mod d, the per-row min and
    max of the images y.  Within a head class a and a tail class s, A + B
    lies in the class (a + s) mod d, and its per-row extremes are the sums of
    the two halves' extremes.  Floor division is monotone, so the extremes
    of floor(m.p / d) + offset are those of the sum, divided and offset once
    per class.  A summary has at most one entry per weight and class; no
    point set is stored.
    """
    n = m.cols
    center = metric.sphere_center(n, radius, center)
    cols = [m.column(j) for j in range(n)]

    def widen(table, key, lo, hi):
        # table[key] becomes the per-row extremes of its old value and the rows lo, hi
        old = table.get(key)
        if old is None:
            table[key] = tuple(lo), tuple(hi)
        else:
            table[key] = tuple(map(min, old[0], lo)), tuple(map(max, old[1], hi))

    def summary(cols, origin):
        # the number of points of each weight, and per weight {class: (lo, hi)}
        counts, shells = [0] * (radius + 1), [{} for _ in range(radius + 1)]
        walk = _carry_walk(cols, radius, origin)
        while chunk := list(islice(walk, BLOCK)):
            weights, images = zip(*chunk)
            groups = {}  # (w, *class) -> images
            for key, y in zip(zip(weights, *[[v % d for v in row] for row in zip(*images)]), images):
                groups.setdefault(key, []).append(y)
            for key, ys in groups.items():
                counts[key[0]] += len(ys)
                ys = list(zip(*ys))
                widen(shells[key[0]], key[1:], map(min, ys), map(max, ys))
        return counts, shells

    k = n // 2
    head_counts, head = summary(cols[:k], m.mat_vec(center))
    tail_counts, balls = summary(cols[k:], (0,) * m.rows)
    for r in range(1, radius + 1):  # the tail's shells become balls of radius r
        for s, (lo, hi) in balls[r - 1].items():
            widen(balls[r], s, lo, hi)
    ball_sizes = list(accumulate(tail_counts))

    moduli = (d,) * m.rows
    sums = {}  # class of m.p -> (lo, hi) of m.p
    for w, shell in enumerate(head):
        ball = balls[radius - w]
        for a, (head_lo, head_hi) in shell.items():
            for s, (tail_lo, tail_hi) in ball.items():
                t = tuple(map(operator.mod, map(operator.add, a, s), moduli))
                widen(sums, t, map(operator.add, head_lo, tail_lo), map(operator.add, head_hi, tail_hi))
    lo, hi = [], []
    for t, (t_lo, t_hi) in sums.items():
        lo.append([v // d + o for v, o in zip(t_lo, offsets[t])])
        hi.append([v // d + o for v, o in zip(t_hi, offsets[t])])
    count = sum(c * ball_sizes[radius - w] for w, c in enumerate(head_counts))
    return list(map(min, zip(*lo))), list(map(max, zip(*hi))), count


@dataclass(frozen=True)
class ContinuousBoxReport:
    order: int
    radius: int
    max_abs: int  # max_j |(H.x)_j| over the checked sphere points
    points_checked: int
    witness_attains: bool


def continuous_box(h: HadamardMatrix, radius: int) -> ContinuousBoxReport:
    """Check that the transformed Lee sphere of the given radius fits in the
    per-axis bound |(H.x)_j| <= radius (box side 2*radius/sqrt(n)).

    The bound itself follows from the entries being +-1 and the triangle
    inequality; here it is measured exactly over the full sphere, from the
    two half balls' summaries (``_sphere_box`` with d = 1, one class), and
    the extreme point radius*e_1 is confirmed to attain it.  A sphere of
    more than ``metric.DEFAULT_CAP`` points raises ``CapExceededError``.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    n = h.order
    lo, hi, count = _sphere_box(h.matrix, radius, None, 1, {(0,) * n: (0,) * n})
    max_abs = max(max(hi), -min(lo))
    if max_abs > radius:
        raise BoundViolationError(
            f"|H.x| reached {max_abs} > {radius} on a sphere point"
        )
    witness = tuple(radius if i == 0 else 0 for i in range(n))
    attained = max(abs(v) for v in h.matrix.mat_vec(witness)) == radius
    return ContinuousBoxReport(
        order=n,
        radius=radius,
        max_abs=max_abs,
        points_checked=count,
        witness_attains=attained,
    )


def hadamard_kernel_code(h: HadamardMatrix) -> Lattice:
    """The lattice {x in Z^n : H.x == 0 (mod d)} for symmetric H of order
    n = d^2; its minimum distance is d and the continuous transform maps
    it onto itself.
    """
    m = h.matrix.entries
    n = h.order
    for i in range(n):
        for j in range(i):
            if m[i][j] != m[j][i]:
                raise ValueError(
                    f"matrix is not symmetric: entry ({i},{j}) = {m[i][j]} "
                    f"but ({j},{i}) = {m[j][i]}"
                )
    d = math.isqrt(n)
    if d * d != n:
        raise DimensionError("matrix order must be a perfect square")
    # In the lattice of rows (x | H.x + d*y) the vectors ending in n zeros
    # are exactly (x | 0) with x in the code.  The lower-triangular HNF puts
    # them in its first n rows, already in the code's own canonical HNF.
    stacked = [[int(i == j) for j in range(n)] + list(h.matrix.column(i)) for i in range(n)]
    stacked += [[0] * n + [d * (i == j) for j in range(n)] for i in range(n)]
    code = Lattice([r[:n] for r in intlat.hnf(IntMatrix(stacked)).entries[:n]])
    # every generator row really is in the kernel: the rows go through H as one block
    if any(v % d for col in hadamard_columns(h, list(zip(*code.int_matrix.entries))) for v in col):
        raise ArithmeticError("kernel construction produced a non-member")
    return code


def transform_matrix(d: int) -> HadamardMatrix:
    """The symmetric Sylvester matrix of order d^2 behind the transforms with
    box parameter d, a power of two."""
    if d < 2 or d & (d - 1):
        raise ValueError("d must be a power of two, at least 2")
    return sylvester(2 * d.bit_length() - 2)


@dataclass(frozen=True)
class TransformSpec:
    """Everything the discrete involution needs: the symmetric Hadamard
    matrix of order d^2, its kernel code, and the code's coset leaders.

    The code is the kernel of x -> H.x mod d, so the syndrome H.p mod d
    names the coset of p exactly.  ``cosets`` maps each syndrome to the
    coset's minimum-weight leader s and its offset s - floor(H.s / d);
    ``rho``, the largest leader weight, is the code's covering radius.
    """

    h: HadamardMatrix
    d: int
    code: Lattice
    rho: int
    cosets: dict = field(repr=False)

    @classmethod
    def build(cls, d: int) -> "TransformSpec":
        return cls.from_hadamard(transform_matrix(d))

    @classmethod
    def from_hadamard(cls, h: HadamardMatrix) -> "TransformSpec":
        code = hadamard_kernel_code(h)
        d = math.isqrt(h.order)
        table = analyzer.coset_table(code)
        cosets = {}
        for cols in column_blocks(table.leaders, h.order):
            for s, hs in zip(zip(*cols), zip(*hadamard_columns(h, cols))):
                cosets[tuple(v % d for v in hs)] = (s, tuple(c - v // d for c, v in zip(s, hs)))
        if len(cosets) != table.size:
            raise ArithmeticError("two coset leaders share a syndrome")
        return cls(h=h, d=d, code=code, rho=table.rho, cosets=cosets)


def _involution_columns(spec: TransformSpec, hp) -> list:
    """The involution's image of every point p of a block, given the columns
    of H.p.  With s the leader of p's coset the image is (H.p - H.s)/d + s.
    Write H.p = d*q + r with 0 <= r < d entrywise: r is the syndrome, and
    H.s leaves the same r, so the image is q + (s - floor(H.s / d)), the
    syndrome's stored offset.  No divisibility test is needed: the residues
    cancel, so the division is exact by construction."""
    d = spec.d
    syndromes = zip(*[[v % d for v in col] for col in hp])
    found = list(map(spec.cosets.__getitem__, syndromes))
    if not found:
        return [[] for _ in hp]
    offsets = zip(*[o for _, o in found])
    return [[v // d + c for v, c in zip(col, off)] for col, off in zip(hp, offsets)]


def discrete_columns(spec: TransformSpec, cols) -> list:
    """The involution of Z^{d^2} on a block of points held as coordinate
    columns (see ``column_blocks``); column i of the result holds coordinate
    i of every image."""
    if len(cols) != spec.h.order:
        raise DimensionError("point length disagrees with the transform order")
    return _involution_columns(spec, hadamard_columns(spec.h, cols))


def discrete_transform(spec: TransformSpec, p) -> tuple:
    """The involution of Z^{d^2}: split p = c + s with c in the code and s
    its coset leader, and return (H.c)/d + s."""
    return tuple(c[0] for c in discrete_columns(spec, [(v,) for v in p]))


def check_involution_discrete(spec: TransformSpec, points) -> int:
    """Round-trip every point through the involution; any mismatch is an
    implementation bug and raises."""
    count = 0
    for cols in column_blocks(points, spec.h.order):
        back = discrete_columns(spec, discrete_columns(spec, cols))
        for p, q in zip(zip(*cols), zip(*back)):
            if p != q:
                raise BoundViolationError(f"discrete transform failed to round-trip {p}")
        count += len(cols[0])
    return count


@dataclass(frozen=True)
class DiscreteBoxReport:
    radius: int
    rho: int
    bound: int  # guaranteed per-axis extent 2*ceil((R+rho)/d) + 2*rho + 1
    extents: tuple  # measured number of integer points spanned per axis
    points_checked: int


def discrete_box(spec: TransformSpec, radius: int, center=None) -> DiscreteBoxReport:
    """Measure the box a full Lee sphere lands in under the involution,
    checking the guaranteed per-axis extent.

    The box is computed exactly, not sampled: ``_sphere_box`` summarises
    the two half balls by weight and residue class and reads each class's
    stored offset once, so no sphere point is mapped on its own.  Spheres
    of more than ``metric.DEFAULT_CAP`` points raise ``CapExceededError``."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    offsets = {s: offset for s, (_, offset) in spec.cosets.items()}
    lo, hi, count = _sphere_box(spec.h.matrix, radius, center, spec.d, offsets)
    extents = tuple(h - l + 1 for l, h in zip(lo, hi))
    rho = spec.rho
    bound = 2 * (-((radius + rho) // -spec.d)) + 2 * rho + 1
    if any(e > bound for e in extents):
        raise BoundViolationError(
            f"image extent {max(extents)} exceeds the guaranteed bound {bound}"
        )
    return DiscreteBoxReport(
        radius=radius, rho=rho, bound=bound, extents=extents, points_checked=count
    )
