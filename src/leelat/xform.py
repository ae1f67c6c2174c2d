"""Sphere-to-box transformations driven by a symmetric Hadamard matrix.

The continuous map sends x to H.x/sqrt(n); values are kept exact as
integer vectors over a square-root denominator.  For n = d^2 the integer
points mapping back into Z^n form a lattice code with minimum distance d,
and combining the map with coset leaders gives an involution of Z^n that
squeezes a Lee sphere into a small box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def t_apply(h: HadamardMatrix, x) -> RadicalVector:
    """The continuous transform H.x / sqrt(order), exactly."""
    if len(x) != h.order:
        raise DimensionError("point length disagrees with the matrix order")
    return RadicalVector(h.matrix.mat_vec(x), h.order)


def _sphere_images(m: IntMatrix, radius: int, center=None):
    """Yield m.p for every point p of the Lee sphere of the given radius
    about ``center`` (default the origin), each point exactly once.

    No point set is stored.  The walk fixes the nonzero coordinates of
    p - center in increasing position; fixing coordinate j to v adds v
    times column j of m to the image carried down, so a point costs one
    vector addition instead of a matrix-vector product.
    """
    n = m.cols
    center = metric.sphere_center(n, radius, center)
    cols = [m.column(j) for j in range(n)]

    def walk(start, rem, image):
        # every point with its first nonzero offset at or after ``start``
        for j in range(start, n):
            col = cols[j]
            up = down = image
            for left in range(rem - 1, -1, -1):
                up = tuple([a + b for a, b in zip(up, col)])
                down = tuple([a - b for a, b in zip(down, col)])
                yield up
                yield down
                if left and j + 1 < n:
                    yield from walk(j + 1, left, up)
                    yield from walk(j + 1, left, down)

    image = m.mat_vec(center)
    yield image
    yield from walk(0, radius, image)


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
    inequality; here it is measured on the full sphere and the extreme
    point radius*e_1 is confirmed to attain it.  A sphere of more than
    ``metric.DEFAULT_CAP`` points raises ``CapExceededError``.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    n = h.order
    max_abs = 0
    count = 0
    for image in _sphere_images(h.matrix, radius):
        top = max(map(abs, image))
        if top > max_abs:
            max_abs = top
        count += 1
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
    for row in code.int_matrix.entries:  # every generator really is in the kernel
        if any(v % d for v in h.matrix.mat_vec(row)):
            raise ArithmeticError("kernel construction produced a non-member")
    return code


@dataclass(frozen=True)
class TransformSpec:
    """Everything the discrete involution needs: the symmetric Hadamard
    matrix of order d^2, its kernel code, and the code's coset leaders.

    The code is the kernel of x -> H.x mod d, so the syndrome H.p mod d
    names the coset of p exactly.  ``cosets`` maps each syndrome to the
    coset's minimum-weight leader s and H.s; ``rho``, the largest leader
    weight, is the code's covering radius.
    """

    h: HadamardMatrix
    d: int
    code: Lattice
    rho: int
    cosets: dict = field(repr=False)

    @classmethod
    def build(cls, d: int) -> "TransformSpec":
        if d < 2 or d & (d - 1):
            raise ValueError("d must be a power of two, at least 2")
        return cls.from_hadamard(sylvester(2 * d.bit_length() - 2))

    @classmethod
    def from_hadamard(cls, h: HadamardMatrix) -> "TransformSpec":
        code = hadamard_kernel_code(h)
        d = math.isqrt(h.order)
        table = analyzer.coset_table(code)
        cosets = {}
        for s in table.leaders:
            hs = h.matrix.mat_vec(s)
            cosets[tuple(v % d for v in hs)] = (s, hs)
        if len(cosets) != table.size:
            raise ArithmeticError("two coset leaders share a syndrome")
        return cls(h=h, d=d, code=code, rho=table.rho, cosets=cosets)


def _discrete_image(spec: TransformSpec, hp) -> tuple:
    """The involution's image of p, given hp = H.p: with s the leader of
    p's coset, (H.p - H.s)/d + s."""
    d = spec.d
    s, hs = spec.cosets[tuple([v % d for v in hp])]
    image = []
    for a, b, c in zip(hp, hs, s):
        q, r = divmod(a - b, d)
        if r:
            raise IntegralityError("H.(p - s) is not divisible by d")
        image.append(q + c)
    return tuple(image)


def discrete_transform(spec: TransformSpec, p) -> tuple:
    """The involution of Z^{d^2}: split p = c + s with c in the code and s
    its coset leader, and return (H.c)/d + s."""
    if len(p) != spec.h.order:
        raise DimensionError("point length disagrees with the transform order")
    return _discrete_image(spec, spec.h.matrix.mat_vec(p))


def check_involution_discrete(spec: TransformSpec, points) -> int:
    """Round-trip every point through the involution; any mismatch is an
    implementation bug and raises."""
    count = 0
    for p in points:
        p = tuple(p)
        if discrete_transform(spec, discrete_transform(spec, p)) != p:
            raise BoundViolationError(f"discrete transform failed to round-trip {p}")
        count += 1
    return count


@dataclass(frozen=True)
class DiscreteBoxReport:
    radius: int
    rho: int
    bound: int  # guaranteed per-axis extent 2*ceil((R+rho)/d) + 2*rho + 1
    extents: tuple  # measured number of integer points spanned per axis
    points_checked: int


def discrete_box(spec: TransformSpec, radius: int, center=None) -> DiscreteBoxReport:
    """Map a full Lee sphere through the involution and measure the box it
    lands in, checking the guaranteed per-axis extent.

    Spheres of more than ``metric.DEFAULT_CAP`` points raise
    ``CapExceededError``."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    images = _sphere_images(spec.h.matrix, radius, center)
    lo = hi = _discrete_image(spec, next(images))
    count = 1
    for hp in images:
        image = _discrete_image(spec, hp)
        lo = tuple(map(min, lo, image))
        hi = tuple(map(max, hi, image))
        count += 1
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
