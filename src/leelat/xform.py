"""Sphere-to-box transformations driven by a symmetric Hadamard matrix.

The continuous map sends x to H.x/sqrt(n); values are kept exact as
integer vectors over a square-root denominator.  For n = d^2 the integer
points mapping back into Z^n form a lattice code with minimum distance d,
and combining the map with coset leaders gives an involution of Z^n that
squeezes a Lee sphere into a small box.
"""

from __future__ import annotations

import functools
import math
import struct
from collections import namedtuple
from itertools import chain, islice

from . import analyzer, intlat, metric
from .errors import BoundViolationError, DimensionError, IntegralityError, LatticeError
from .hadamard import HadamardMatrix, sylvester
from .intlat import IntMatrix, Lattice


class RadicalVector(namedtuple("RadicalVector", "nums radicand")):
    """An exact vector of the form (integer components) / sqrt(radicand)."""

    __slots__ = ()

    def __new__(cls, nums: tuple, radicand: int):
        if radicand <= 0:
            raise ValueError("radicand must be positive")
        return super().__new__(cls, nums, radicand)

    def to_int_vector(self) -> tuple:
        """The exact integer value, defined when the radicand is a perfect
        square dividing every component."""
        root = math.isqrt(self.radicand)
        if root * root != self.radicand:
            raise IntegralityError(f"radicand {self.radicand} is not a square")
        if any(v % root for v in self.nums):
            raise IntegralityError("components are not divisible by the root")
        return tuple(v // root for v in self.nums)


#: points per block in the column sweeps: one block is one field per point
#: of each packed column (``_Lanes``), so BLOCK spreads each big-int
#: operation over that many points while a 64-bit-field column stays at
#: 2 KB; one large coordinate widens only its own block's fields
BLOCK = 256


def column_blocks(points, n: int):
    """Yield the points of length ``n``, in input order, in blocks of at most
    ``BLOCK`` held as coordinate columns: column j of a block lists the j-th
    coordinates of its points; a point of another length raises.
    ``hadamard_columns`` and ``discrete_columns`` pack each block in 64-bit
    fields while its coordinates stay below 2^(63-g) in size, g =
    n.bit_length() guard bits, and in wider fields otherwise (``_packed``)."""
    points = iter(points)
    while block := list(islice(points, BLOCK)):
        if any(len(p) != n for p in block):
            raise DimensionError("point length disagrees with the transform order")
        yield list(zip(*block))


class _Lanes:
    """``m`` fields of ``w`` bits (a multiple of 64) in one int, field i at
    bits [w*i, w*i + w): SIMD within a register, one field per point of a
    block.  A packed column is sum(v_i * 2^(w*i)) + ``top``, each field
    holding v_i + 2^(w-1), so packed columns add and subtract as single
    ints, exactly, whatever the fields hold in between.  A field is read
    (``unpack``, or a mask or shift) only where its value is known to lie
    in [-2^(w-1), 2^(w-1)); then no field has carried into the next.  At
    64 bits a column packs and unpacks through ``struct`` in C; wider
    fields go through ``int.to_bytes`` a value at a time.  64-bit lanes
    also hold ``low`` and ``mask``, which test the fields for g guard bits
    (``_packed``); ``_lanes64`` keeps them."""

    __slots__ = ("m", "w", "one", "top", "q", "low", "mask")

    def __init__(self, m: int, w: int, g: int = 0):
        self.m, self.w = m, w
        self.one = int.from_bytes((b"\1" + bytes(w // 8 - 1)) * m, "little")  # 1 in every field
        self.top = self.one << (w - 1)
        if w == 64:
            self.q = struct.Struct(f"<{m}q")
            self.low, self.mask = self.one << (63 - g), self.one * ((1 << g) - 1 << (64 - g))

    def pack(self, cols) -> list:
        if self.w == 64:
            return [int.from_bytes(self.q.pack(*col), "little") ^ self.top for col in cols]
        size = self.w // 8
        return [int.from_bytes(b"".join([v.to_bytes(size, "little", signed=True) for v in col]), "little")
                ^ self.top for col in cols]

    def unpack(self, x: int) -> tuple:
        raw = (x ^ self.top).to_bytes(self.m * self.w // 8, "little")
        if self.w == 64:
            return self.q.unpack(raw)
        size = self.w // 8
        return tuple([int.from_bytes(raw[i : i + size], "little", signed=True) for i in range(0, len(raw), size)])


# _lanes64(m, 64, g): the 64-bit lanes that every block of m points with g
# guard bits shares; wider lanes (megabytes for huge coordinates) are built
# afresh and dropped
_lanes64 = functools.lru_cache(maxsize=16)(_Lanes)


def _packed(cols, n: int):
    """The ``_Lanes`` for a block and its columns packed in them, the fields
    wide enough that H.x fits for every H of order ``n`` with +-1 entries.

    |(H.x)_i| <= n*max|x_j| < 2^g * max|x_j| for g = n.bit_length(), so g
    guard bits above a value's own bits keep H.x in range, and no fewer
    do: with g - 1, a row of -1s maps n coordinates -2^(64-g) to n*2^(64-g)
    >= 2^63.  The block takes 64-bit fields when every value lies in
    [-2^(63-g), 2^(63-g)), tested per column with one add, and and compare:
    the field v + 2^63 plus 2^(63-g) must land in [2^63, 2^63 + 2^(64-g)),
    its top g bits 1, 0, ..., 0.  A value past that, or past the signed
    64-bit range (``struct.error``), sends the block to the least multiple
    of 64 bits that leaves g guard bits above its largest |value|."""
    g = n.bit_length()
    lanes = _lanes64(len(cols[0]), 64, g)
    try:
        xs = lanes.pack(cols)
    except struct.error:  # a value past the signed 64-bit range
        pass
    else:
        low, mask, top = lanes.low, lanes.mask, lanes.top
        if all((x + low) & mask == top for x in xs):
            return lanes, xs
    big = max(map(abs, chain.from_iterable(cols)))
    lanes = _Lanes(len(cols[0]), -(-(big.bit_length() + g + 1) // 64) * 64)
    return lanes, lanes.pack(cols)


def _hadamard_packed(h: HadamardMatrix, xs: list, top: int) -> list:
    """H.x on packed columns (see ``_Lanes``): column i of the result holds
    (H.x)_i of each point.

    With H = H_2^(x)k (x) A (k = ``h.split``), H.x is k stages of the fast
    Walsh-Hadamard butterfly, each sending a column pair (x, y) to
    (x + y, x - y), then A on each run of order(A) columns they leave.  Row
    i of A.x is the total of the run minus twice the total of its columns
    where row i of A is -1.  A Sylvester matrix costs 2n*log2(n) big-int
    additions per block, a Paley matrix (k = 0) about n^2/2.  Each sum or
    difference takes one ``top`` off or puts one back, so every column
    holds its values plus exactly one ``top`` throughout."""
    n = h.order
    xs = list(xs)
    half = n
    for _ in range(h.split):
        half //= 2
        for start in range(0, n, 2 * half):
            for j in range(start, start + half):
                x, y = xs[j], xs[j + half]
                xs[j], xs[j + half] = x + y - top, x - y + top
    negs = [[i for i, v in enumerate(row[:half]) if v < 0] for row in h.matrix.entries[:half]]  # A's -1s
    if negs == [[]]:  # A = [1]
        return xs
    out = []
    for start in range(0, n, half):
        run = xs[start : start + half]
        total = sum(run)
        for neg in negs:
            # the total holds half copies of top, each -1 column takes two off
            y = total - 2 * sum([run[i] for i in neg])
            out.append(y + (1 - half + 2 * len(neg)) * top)
    return out


def _check_block(cols, n: int, what: str) -> None:
    if len(cols) != n:
        raise DimensionError(f"point length disagrees with the {what} order")
    if len(set(map(len, cols))) > 1:
        raise DimensionError("coordinate columns of a block differ in length")


def hadamard_columns(h: HadamardMatrix, cols) -> list:
    """H.x for every point x of a block held as coordinate columns: column i
    of the result holds (H.x)_i of each point, exactly.  The columns are
    packed (``_packed``) and go through the butterfly as one int each."""
    _check_block(cols, h.order, "matrix")
    if not cols[0]:
        return [() for _ in cols]
    lanes, xs = _packed(cols, h.order)
    return list(map(lanes.unpack, _hadamard_packed(h, xs, lanes.top)))


def _class_key(residues, d: int) -> int:
    """The key sum(r_i * d^i) of the residue class (r_0, r_1, ...) mod d:
    what ``TransformSpec.cosets`` is indexed by."""
    key = 0
    for r in reversed(residues):
        key = key * d + r
    return key


def _divide(lanes: _Lanes, xs: list, d: int) -> tuple:
    """For packed columns y = H.x of a block: the class key of y mod d for
    each point, and the packed columns of floor(y / d).

    For d = 2^k, the field v + 2^(w-1) has v's residue in its low k bits and
    floor(v / d) + 2^(w-1-k) above them, since d divides the bias: one and
    and one shift per column give both, and the residues of a point,
    shifted k bits apart, add into its key while its n*k bits fit below
    the field's top bit.  Any other d takes the residues and quotients
    per value."""
    k = d.bit_length() - 1
    if d == 1 << k and len(xs) * k < lanes.w:
        one, top, w = lanes.one, lanes.top, lanes.w
        low, high, rebias = (d - 1) * one, one * ((1 << (w - k)) - 1), top - (top >> k)
        keys = lanes.unpack(sum([(x & low) << (i * k) for i, x in enumerate(xs)]) + top)
        return keys, [(x >> k & high) + rebias for x in xs]
    cols = list(map(lanes.unpack, xs))
    keys = [_class_key(r, d) for r in zip(*[[v % d for v in col] for col in cols])]
    return keys, lanes.pack([[v // d for v in col] for col in cols])


def t_apply(h: HadamardMatrix, x) -> RadicalVector:
    """The continuous transform H.x / sqrt(order), exactly."""
    return RadicalVector(tuple(c[0] for c in hadamard_columns(h, [(v,) for v in x])), h.order)


def _sphere_box(m: IntMatrix, radius: int, center, d: int, offsets) -> tuple:
    """The per-row extremes ``(lo, hi)`` of floor(m.p / d) + offsets[k] over
    every point p of the Lee sphere of the given radius about
    ``center`` (default the origin), k the key of the class m.p mod d
    (``_class_key``), and the number of sphere points.

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
        off = offsets[_class_key(t, d)]
        lo.append([v // d + o for v, o in zip(ext, off)])
        hi.append([-v // d + o for v, o in zip(ext[rows:], off)])
    count = sum(c for c, _ in sums.values())
    return list(map(min, zip(*lo))), list(map(max, zip(*hi))), count


class ContinuousBoxReport(
    namedtuple("ContinuousBoxReport", "order radius max_abs points_checked witness_attains")
):
    """``max_abs`` is max_j |(H.x)_j| over the checked sphere points."""

    __slots__ = ()


def continuous_box(h: HadamardMatrix, radius: int) -> ContinuousBoxReport:
    """Check that the transformed Lee sphere of the given radius fits in the
    per-axis bound |(H.x)_j| <= radius (box side 2*radius/sqrt(n)).

    The bound itself follows from the entries being +-1 and the triangle
    inequality; here it is measured exactly over the full sphere, from
    joined per-coordinate summaries (``_sphere_box`` with d = 1, one class), and
    the extreme point radius*e_1 is confirmed to attain it.  A sphere of
    more than ``metric.DEFAULT_CAP`` points raises ``CapExceededError``;
    that cap is a size guard only, since the cost follows the summary
    entries, here one class per weight, not the sphere points: radius 60
    at order 4 counts 8,940,161 points from summaries of at most 61 entries.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    n = h.order
    lo, hi, count = _sphere_box(h.matrix, radius, None, 1, {0: (0,) * n})
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
    # H is symmetric, so row i of the stack ends in row i of H, its column i
    stacked = [[int(i == j) for j in range(n)] + list(m[i]) for i in range(n)]
    stacked += [[0] * n + [d * (i == j) for j in range(n)] for i in range(n)]
    code = Lattice([r[:n] for r in intlat.hnf(IntMatrix(stacked)).entries[:n]])
    # every generator row really is in the kernel: the rows go through H as one block
    if any(v % d for col in hadamard_columns(h, list(zip(*code.int_matrix.entries))) for v in col):
        raise LatticeError("kernel construction produced a non-member")
    return code


def transform_matrix(d: int) -> HadamardMatrix:
    """The symmetric Sylvester matrix of order d^2 behind the transforms with
    box parameter d, a power of two."""
    if d < 2 or d & (d - 1):
        raise ValueError("d must be a power of two, at least 2")
    return sylvester(2 * d.bit_length() - 2)


class TransformSpec(namedtuple("TransformSpec", "h d code rho cosets")):
    """Everything the discrete involution needs: the symmetric Hadamard
    matrix of order d^2, its kernel code, and the code's coset leaders.

    The code is the kernel of x -> H.x mod d, so the syndrome r = H.p mod d
    names the coset of p exactly.  ``cosets`` maps each syndrome's key
    sum(r_i * d^i) to the offset s - floor(H.s / d) of the coset's
    minimum-weight leader s;
    ``rho``, the largest leader weight, is the code's covering radius.
    The repr leaves ``cosets`` out.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return f"TransformSpec(h={self.h!r}, d={self.d!r}, code={self.code!r}, rho={self.rho!r})"

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
            lanes, ss = _packed(cols, h.order)
            keys, qs = _divide(lanes, _hadamard_packed(h, ss, lanes.top), d)
            offsets = [lanes.unpack(s - q + lanes.top) for s, q in zip(ss, qs)]
            cosets.update(zip(keys, zip(*offsets)))
        if len(cosets) != table.size:
            raise LatticeError("two coset leaders share a syndrome")
        return cls(h=h, d=d, code=code, rho=table.rho, cosets=cosets)


def discrete_columns(spec: TransformSpec, cols) -> list:
    """The involution of Z^{d^2} on a block of points held as coordinate
    columns (see ``column_blocks``); column i of the result holds coordinate
    i of every image.

    With s the leader of p's coset the image is (H.p - H.s)/d + s.  Write
    H.p = d*q + r with 0 <= r < d entrywise: r is the syndrome, and H.s
    leaves the same r, so the image is q + (s - floor(H.s / d)), the
    syndrome's stored offset.  No divisibility test is needed: the residues
    cancel, so the division is exact by construction.  H.p, r, q and the
    image stay packed (``_divide``); only the keys are read per point."""
    _check_block(cols, spec.h.order, "transform")
    if not cols[0]:
        return [() for _ in cols]
    lanes, xs = _packed(cols, spec.h.order)
    keys, qs = _divide(lanes, _hadamard_packed(spec.h, xs, lanes.top), spec.d)
    offsets = lanes.pack(zip(*map(spec.cosets.__getitem__, keys)))
    return [lanes.unpack(q + c - lanes.top) for q, c in zip(qs, offsets)]


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


class DiscreteBoxReport(namedtuple("DiscreteBoxReport", "radius rho bound extents points_checked")):
    """``bound`` is the guaranteed per-axis extent 2*ceil((R+rho)/d) +
    2*rho + 1; ``extents`` the measured number of integer points spanned
    per axis."""

    __slots__ = ()


def discrete_box(spec: TransformSpec, radius: int, center=None) -> DiscreteBoxReport:
    """Measure the box a full Lee sphere lands in under the involution,
    checking the guaranteed per-axis extent.

    The box is computed exactly, not sampled: ``_sphere_box`` joins
    per-coordinate summaries by weight and residue class and reads each
    class's stored offset once, so no sphere point is mapped.  Spheres
    of more than ``metric.DEFAULT_CAP`` points raise ``CapExceededError``;
    that cap is a size guard only, since the cost follows the summary
    entries (weights times residue classes), not the sphere points."""
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
