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
from itertools import islice

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


def _sphere_box(m: IntMatrix, radius: int, center, d: int, offsets) -> tuple:
    """The per-row extremes ``(lo, hi)`` of floor(m.p / d) + offsets[m.p mod d]
    over every point p of the Lee sphere of the given radius about
    ``center`` (default the origin), and the number of sphere points.

    No point is enumerated.  The summary of a set of coordinates is a list
    of shells, one per weight w <= radius.  A shell maps each residue class
    y mod d of the images y = m.x of the points x of weight w to their
    number and ``ext``: the per-row min of y followed by the per-row min of
    -y, so one elementwise min widens both extremes.  A coordinate's shell
    of weight w holds the points +-w, with images +-w times its column; the
    centre's summary is one weight-0 entry, m.center.  ``pair`` joins
    entries of disjoint coordinates: counts multiply, classes add mod d and
    extremes add.  The summaries are joined two at a time, weights adding,
    until a head and a tail remain.  A sphere point is a head point of
    weight w plus a tail point of weight at most radius - w, so the last
    ``pair`` takes each head shell with the tail's ball of radius - w.
    Floor division is monotone, so the extremes of floor(m.p / d) + offset
    are those of m.p, divided and offset once per class.
    """
    center = metric.sphere_center(m.cols, radius, center)
    rows = m.rows
    unit = {(0,) * rows: (1, (0,) * 2 * rows)}  # weight 0; pairing a shell with it adds the shell as it is

    def pair(shell_pairs, out):
        # add to out the sum of every entry of xs and every entry of ys, for each (xs, ys)
        for xs, ys in shell_pairs:
            for count, a in xs.values():
                for c, b in ys.values():
                    ext = [u + v for u, v in zip(a, b)]
                    t = tuple([v % d for v in ext[:rows]])  # every point of an entry is in the class of its min
                    old = out.get(t)
                    if old is None:
                        out[t] = count * c, tuple(ext)
                    else:
                        out[t] = old[0] + count * c, tuple([u if u < v else v for u, v in zip(old[1], ext)])
        return out

    y = m.mat_vec(center)
    parts = [[{tuple([v % d for v in y]): (1, y + tuple([-v for v in y]))}] + [{}] * radius]
    for col in zip(*m.entries):
        shells = [unit]
        for w in range(1, radius + 1):
            up = tuple([w * v for v in col])
            down = tuple([-v for v in up])
            s, t = tuple([v % d for v in up]), tuple([v % d for v in down])
            if s == t:  # one class for both points, as when d <= 2 or the column is 0
                shells.append({s: (2, tuple([-abs(v) for v in up]) * 2)})
            else:
                shells.append({s: (1, up + down), t: (1, down + up)})
        parts.append(shells)
    while len(parts) > 2:
        xs, ys = parts.pop(0), parts.pop(0)
        parts.append([pair(zip(xs[: w + 1], ys[w::-1]), {}) for w in range(radius + 1)])
    head, tail = parts
    balls = [tail[0]]
    for shell in tail[1:]:
        balls.append(pair([(shell, unit)], dict(balls[-1])))
    sums = pair(zip(head, reversed(balls)), {})
    lo, hi = [], []
    for t, (_, ext) in sums.items():
        lo.append([v // d + o for v, o in zip(ext, offsets[t])])
        hi.append([-v // d + o for v, o in zip(ext[rows:], offsets[t])])
    count = sum(c for c, _ in sums.values())
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
    inequality; here it is measured exactly over the full sphere, from
    joined per-coordinate summaries (``_sphere_box`` with d = 1, one class), and
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
    offset s - floor(H.s / d) of the coset's minimum-weight leader s;
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
                cosets[tuple(v % d for v in hs)] = tuple(c - v // d for c, v in zip(s, hs))
        if len(cosets) != table.size:
            raise ArithmeticError("two coset leaders share a syndrome")
        return cls(h=h, d=d, code=code, rho=table.rho, cosets=cosets)


def discrete_columns(spec: TransformSpec, cols) -> list:
    """The involution of Z^{d^2} on a block of points held as coordinate
    columns (see ``column_blocks``); column i of the result holds coordinate
    i of every image.

    With s the leader of p's coset the image is (H.p - H.s)/d + s.  Write
    H.p = d*q + r with 0 <= r < d entrywise: r is the syndrome, and H.s
    leaves the same r, so the image is q + (s - floor(H.s / d)), the
    syndrome's stored offset.  No divisibility test is needed: the residues
    cancel, so the division is exact by construction."""
    if len(cols) != spec.h.order:
        raise DimensionError("point length disagrees with the transform order")
    d, hp = spec.d, hadamard_columns(spec.h, cols)
    offsets = list(map(spec.cosets.__getitem__, zip(*[[v % d for v in col] for col in hp])))
    if not offsets:
        return [[] for _ in hp]
    return [[v // d + c for v, c in zip(col, off)] for col, off in zip(hp, zip(*offsets))]


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

    The box is computed exactly, not sampled: ``_sphere_box`` joins
    per-coordinate summaries by weight and residue class and reads each
    class's stored offset once, so no sphere point is mapped.  Spheres
    of more than ``metric.DEFAULT_CAP`` points raise ``CapExceededError``."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    lo, hi, count = _sphere_box(spec.h.matrix, radius, center, spec.d, spec.cosets)
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
