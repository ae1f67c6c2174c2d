"""Minimum distance, coset leaders, covering radius, packing density and
perfection certificates for lattice codes."""

from __future__ import annotations

import enum
from collections import namedtuple
from fractions import Fraction

from . import intlat, metric
from .errors import (
    BoundViolationError,
    BudgetExhaustedError,
    CapExceededError,
    InconclusiveError,
    LatticeError,
)
from .intlat import CodeParams, Lattice

#: weight ceiling for the automatic minimum-distance search
DEFAULT_HARD_CAP = 64

#: ceiling on search nodes (coordinates fixed) during a distance search
DEFAULT_POINT_BUDGET = 20_000_000

#: largest volume for which coset tables are built, and, fixed, the largest for
#: which d is read from the coset sweep rather than the distance tree
DEFAULT_COSET_CAP = 10**6

#: largest ``coset_cap`` of ``report`` (and ``analyze --coset-cap``); the
#: covering radius costs about one bit a coset plus at most log2 of the
#: volume masks of that size
MAX_COSET_CAP = 10**7


def _tree_distance(lat: Lattice, cap: int | None = None) -> int:
    """The distance tree, which ``_distance`` runs above ``DEFAULT_COSET_CAP`` cosets.

    Depth-first enumeration of lattice vectors along the lower-triangular
    HNF, Fincke-Pohst / Schnorr-Euchner style in the L1 norm.  Coordinates
    are fixed from the last one down; the HNF rows already chosen confine
    coordinate j to one residue class mod ``hnf[j][j]``, tried smallest
    absolute value first.  Of each pair x, -x only the one whose last
    nonzero coordinate is positive is visited.  The weight bound deepens
    w = 1, 2, ... up to ``cap`` (``DEFAULT_HARD_CAP`` without one), and
    each pass looks for a vector of weight exactly w.  The node budget
    ``DEFAULT_POINT_BUDGET``, read once per call, caps the search nodes
    over all passes; once it is spent the search raises
    BudgetExhaustedError, the InconclusiveError that, unlike an exhausted
    cap, leaves some weight up to the cap unsearched.

    Each pass is one loop over the open path, kept in per-level lists
    instead of call frames, so the search does not recurse at any n.  A
    node at level j is settled where it stands when the coordinates below
    it follow in closed form (j <= 1, or no weight left) or x_j has no
    value to try; otherwise it opens level j with the values of x_j to try,
    the weight left and whether every coordinate above j is zero.  Stepping
    the deepest open level u to its next value moves row u's coefficient
    in the partial vector and enters the node at u - 1; once u has no value
    left, its coefficient goes back to 0 and the path backs up, u += 1.
    """
    h = lat.hnf.entries
    n = lat.n
    diag = [h[j][j] for j in range(n)]
    # nonzero below-diagonal entries of each HNF row: choosing row j's
    # coefficient moves only these lower coordinates
    below = [tuple((k, v) for k, v in enumerate(h[j][:j]) if v) for j in range(n)]
    partial = [0] * n  # contribution of the rows chosen so far
    # the open path by level: the values of x_j still to try, row j's
    # coefficient in ``partial``, the weight left at j, and whether every
    # coordinate above j is zero
    todo, coef, left, zero = [None] * n, [0] * n, [0] * n, [False] * n
    limit = cap if cap is not None else DEFAULT_HARD_CAP
    budget = DEFAULT_POINT_BUDGET
    nodes = 0
    for w in range(1, limit + 1):
        j, rem, free = n - 1, w, True
        u = n  # the deepest open level; n while none is
        while True:
            if rem == 0:
                # every lower coordinate is zero: reduce the partial vector
                # against the HNF, one node per level that admits a zero
                p = partial[: j + 1]
                for k in range(j, -1, -1):
                    q, r = divmod(p[k], diag[k])
                    if r:
                        break
                    if q:
                        for i, a in below[k]:
                            p[i] -= q * a
                nodes += j - k
            elif j:
                d, t = diag[j], partial[j]
                # x_j = t (mod d) with |x_j| <= rem, smallest |x_j| first; only
                # x_j >= 0 while every higher coordinate is zero (then t == 0)
                if free:
                    values = range(0, rem + 1, d)
                else:
                    r = t % d
                    values = sorted(range(r - (r + rem) // d * d, rem + 1, d), key=abs)
                nodes += len(values)
            if nodes > budget:
                raise BudgetExhaustedError(
                    f"search budget exhausted: {nodes} nodes visited, budget "
                    f"{budget}, weights <= {w - 1} fully searched"
                )
            if rem == 0:
                if r == 0:
                    return w
            elif j == 0:  # n == 1, the lattice diag[0] * Z: x_0 = rem
                if rem % diag[0] == 0:
                    return w
            elif j == 1:
                # x_0 is forced: |x_0| = rem - |x_1|, in one class mod diag[0]
                d0 = diag[0]
                a = h[1][0]
                t0 = partial[0]
                for v in values:
                    r0 = rem - abs(v)
                    s = t0 + (v - t) // d * a
                    if (r0 - s) % d0 == 0 or (r0 + s) % d0 == 0:
                        return w
            elif values:  # open level j; with no value the node is settled
                u = j
                todo[u], left[u], zero[u] = iter(values), rem, free
            # back up to the deepest open level with a value left and step to it
            while u < n:
                v = next(todo[u], None)
                c = 0 if v is None else (v - partial[u]) // diag[u]
                step, coef[u] = c - coef[u], c
                if step:
                    for k, a in below[u]:
                        partial[k] += step * a
                if v is not None:
                    j, rem, free = u - 1, left[u] - abs(v), zero[u] and v == 0
                    break
                u += 1
            else:
                break
    raise InconclusiveError(
        f"no nonzero lattice vector of weight <= {limit}; raise the cap "
        f"({nodes} nodes visited, budget {budget})"
    )


class CosetTable(namedtuple("CosetTable", "leaders rho")):
    """Minimum-weight coset leaders of Z^n modulo the lattice.

    ``leaders`` holds one leader per coset, in the order the shell walk
    reached them; the covering radius ``rho`` is the largest leader weight.
    """

    __slots__ = ()

    @property
    def size(self) -> int:
        return len(self.leaders)


def coset_table(lat: Lattice) -> CosetTable:
    """Assign each coset its minimum-weight leader.

    Shells are walked in increasing weight and lexicographic order inside
    a shell (``metric.weight_shell``), each point keyed by its canonical
    residue, so the leader is the lexicographically smallest vector among
    the minimum-weight members of its coset.  The walk stops at the shell
    where the last coset is first reached; that weight is ``rho``.
    """
    volume = lat.volume
    if volume > DEFAULT_COSET_CAP:
        raise CapExceededError(f"volume {volume} exceeds the coset cap {DEFAULT_COSET_CAP}")
    leaders = {}
    w = 0
    while True:
        for x in metric.weight_shell(lat.n, w):
            leaders.setdefault(intlat.canonical_residue(lat, x), x)
            if len(leaders) == volume:
                return CosetTable(leaders=tuple(leaders.values()), rho=w)
        w += 1


def _coset_moves(lat: Lattice) -> tuple:
    """The breadth-first sweep of G = Z^n/L shared by ``covering_radius``
    and ``_distance``, set up once: (full, steps).

    A set of cosets is one int used as a V-bit set, V the volume, indexed
    in mixed radix with the largest d_i of ``intlat.coset_group`` as the
    most significant digit; ``full`` holds every coset.  Each entry of
    ``steps`` moves a set by one ±σ(e_j), as a list of (mask or None, up
    shift, down shift) rotations.  Moving along the largest digit is a
    plain rotation of all V bits.  Moving by t along any other digit is a
    rotation inside each block of d_i digits, done as one masked rotation
    per set bit 2^b of t, so at most one mask per (digit, b) exists.  A
    unit vector in L keeps its move, an empty one, so that the odd check
    of ``_grow`` sees it.
    """
    volume = lat.volume
    full = (1 << volume) - 1
    # a single coset needs no group, and the sweep has nothing to move
    divisors, images = intlat.coset_group(lat) if volume > 1 else ((), ())
    order = sorted(range(len(divisors)), key=lambda i: -divisors[i])
    radix = [divisors[i] for i in order]
    strides = []
    stride = volume
    for d in radix:
        stride //= d
        strides.append(stride)
    moves = set()
    for image in images:
        g = tuple(image[i] for i in order)
        moves.add(g)
        moves.add(tuple(-t % d for t, d in zip(g, radix)))
    masks = {}

    def mask(k, s):
        # the positions whose digit k is below d_k - s, a run of
        # (d_k - s)·stride bits repeated every d_k·stride bits
        if (k, s) not in masks:
            width = radix[k] * strides[k]
            m = (1 << (radix[k] - s) * strides[k]) - 1
            while width < volume:
                m |= m << width
                width <<= 1
            masks[k, s] = m & full
        return masks[k, s]

    steps = []
    for g in sorted(moves):
        ops = []
        if g[0]:
            up = g[0] * strides[0]
            ops.append((None, up, volume - up))
        for k in range(1, len(g)):
            t, s = g[k], 1
            while t:
                if t & 1:
                    ops.append((mask(k, s), s * strides[k], (radix[k] - s) * strides[k]))
                t >>= 1
                s <<= 1
        steps.append(ops)
    return full, steps


def _grow(reached: int, full: int, steps: list, k: int, odd: bool = False) -> tuple:
    """(R_(k+1), least) from R_k = ``reached``, the cosets the Lee ball B_k
    of radius k reaches: R_k moved by every step of ``_coset_moves``.
    With ``odd``, ``least`` is the smallest size of
    R_k ∪ (R_k + σ(e_j)) = σ(B_k ∪ (B_k + e_j)) over all j, else V."""
    grown = reached
    least = full.bit_length()
    for ops in steps:
        x = reached
        for m, up, down in ops:
            if m is None:
                x = ((x << up) & full) | (x >> down)
            else:
                low = x & m
                x = (low << up) | ((x ^ low) >> down)
        if odd:
            least = min(least, (reached | x).bit_count())
        grown |= x
    if grown == reached:  # cannot happen while σ maps onto G
        raise LatticeError(f"coset sweep stalled at weight {k} short of {full.bit_length()} cosets")
    return grown, least


def _cover(reached: int, full: int, steps: list, k: int) -> int:
    """ρ: grow R_k = ``reached`` by ``_grow`` until it is every coset.  The
    sweep's second phase, after ``_distance`` has settled d."""
    while reached != full:
        reached = _grow(reached, full, steps, k)[0]
        k += 1
    return k


def covering_radius(lat: Lattice) -> int:
    """The least ρ whose Lee ball meets every coset of the lattice: the
    sweep of Z^n/L (``_coset_moves``, ``_cover``) from the zero coset."""
    volume = lat.volume
    if volume > DEFAULT_COSET_CAP:
        raise CapExceededError(f"volume {volume} exceeds the coset cap {DEFAULT_COSET_CAP}")
    return _cover(1, *_coset_moves(lat), 0)


def min_distance(lat: Lattice, cap: int | None = None) -> int:
    """Minimum Manhattan weight over the nonzero lattice vectors, from
    ``_distance``.  A d above ``cap`` (``DEFAULT_HARD_CAP`` without one) or
    a spent node budget raises InconclusiveError, never a wrong answer; a
    ``cap`` below 1 raises ValueError."""
    return _distance(lat, cap, radius=False)[0]


def _distance(lat: Lattice, cap: int | None, radius: bool) -> tuple:
    """(d, ρ), ρ None without ``radius``: the one choice of engine for d.
    Up to ``DEFAULT_COSET_CAP`` cosets one sweep of Z^n/L settles d, then
    grows on to ρ by ``_cover`` only when ρ is asked for.  Above it, where
    the sweep loses to the tree (Paley 12: 503 against 55 ms),
    ``_tree_distance`` gives d and ``_cover`` ρ (the caller checked the cap).

    d > 2k iff σ is one-to-one on B_k, that is, iff R_k has
    ``metric.lee_sphere_size(n, k)`` cosets: two points of B_k in one
    coset differ by a nonzero lattice vector of weight <= 2k, and every
    such vector is such a difference.  Given that, d > 2k + 1 iff σ is
    one-to-one on every odd anticode B_k ∪ (B_k + e_j), of
    ``metric.anticode_size_odd(n, k)`` points: a vector of weight 2k + 1
    that is nonzero at j is, up to sign, a difference across the two
    halves.  Once R_k is all of G, |B_k| >= V settles d, so d is known by
    k = ρ.  A d above ``cap`` (``DEFAULT_HARD_CAP`` without one) raises
    InconclusiveError once the sweep has passed it.
    """
    if cap is not None and cap < 1:
        raise ValueError(f"weight cap must be at least 1, got {cap}")
    if lat.volume > DEFAULT_COSET_CAP:
        return _tree_distance(lat, cap), (_cover(1, *_coset_moves(lat), 0) if radius else None)
    limit = cap if cap is not None else DEFAULT_HARD_CAP
    n = lat.n
    full, steps = _coset_moves(lat)
    reached = 1
    k = 0

    def above(w):
        if w >= limit:
            raise InconclusiveError(
                f"no nonzero lattice vector of weight <= {limit}; raise the cap "
                f"(Lee balls of radius <= {k} swept over {lat.volume} cosets)"
            )

    while True:
        if reached.bit_count() < metric.lee_sphere_size(n, k):
            d = 2 * k
            break
        above(2 * k)
        if reached == full:  # |B_k| = V, so every odd anticode collides
            d = 2 * k + 1
            break
        reached, least = _grow(reached, full, steps, k, odd=True)
        if least < metric.anticode_size_odd(n, k):
            d, k = 2 * k + 1, k + 1
            break
        above(2 * k + 1)
        k += 1
    return d, (_cover(reached, full, steps, k) if radius else None)


def density_decimal(value: Fraction, places: int = 6) -> str:
    """Deterministic fixed-point rendering, round half up."""
    num, den = value.numerator, value.denominator
    sign = "-" if num < 0 else ""
    num = abs(num)
    q, r = divmod(num * 10**places, den)
    if 2 * r >= den:
        q += 1
    whole, frac = divmod(q, 10**places)
    return f"{sign}{whole}.{frac:0{places}d}"


def density_fields(value: Fraction) -> dict:
    """A density as every report prints it: exact "num/den", then six places."""
    intlat.check_digits("density", [value.numerator, value.denominator])
    return {"density": f"{value.numerator}/{value.denominator}",
            "density_decimal": density_decimal(value)}


class CertificateKind(enum.Enum):
    PERFECT = "perfect"
    DIAMETER_PERFECT = "diameter_perfect"
    NONE = "none"


class Certificate(namedtuple("Certificate", "kind min_dist radius bound bound_size slack")):
    """Outcome of comparing a code's volume against its packing bound.

    For odd minimum distance d = 2R+1 the reference is the Lee sphere of
    radius R; equality means the code is perfect.  For even d = 2R+2 the
    reference is the odd-diameter anticode, which is only conjectured to
    be maximum, so the label says so.
    """

    __slots__ = ()


def certify(lat: Lattice, min_dist: int | None = None) -> Certificate:
    if min_dist is None:
        min_dist = min_distance(lat)
    n = lat.n
    if min_dist % 2 == 1:
        radius = (min_dist - 1) // 2
        bound = "lee_sphere"
        bound_size = metric.lee_sphere_size(n, radius)
        exact_kind = CertificateKind.PERFECT
    else:
        radius = (min_dist - 2) // 2
        bound = "odd_anticode(conjectured_max)"
        bound_size = metric.anticode_size_odd(n, radius)
        exact_kind = CertificateKind.DIAMETER_PERFECT
    slack = lat.volume - bound_size
    if slack < 0:
        raise BoundViolationError(
            f"volume {lat.volume} is below the proven bound {bound_size}; "
            "this indicates a bug in the construction or the distance search"
        )
    return Certificate(
        kind=exact_kind if slack == 0 else CertificateKind.NONE,
        min_dist=min_dist,
        radius=radius,
        bound=bound,
        bound_size=bound_size,
        slack=slack,
    )


def report(
    lat: Lattice,
    min_dist_cap: int | None = None,
    coset_cap: int = DEFAULT_COSET_CAP,
) -> dict:
    """Full machine-readable analysis document with a fixed key order.  A
    ``coset_cap`` above ``MAX_COSET_CAP`` raises ValueError before any search."""
    if coset_cap > MAX_COSET_CAP:
        raise ValueError(f"coset_cap must be at most {MAX_COSET_CAP}, got {coset_cap}")
    volume = lat.volume
    intlat.check_digits("volume", [volume])  # it bounds every number but the density
    d, rho = _distance(lat, min_dist_cap, radius=volume <= coset_cap)
    periods, q = intlat.period(lat)
    params = CodeParams(n=lat.n, d=d, v=volume, q=q)
    cert = certify(lat, min_dist=d)
    return {
        "n": lat.n,
        "min_distance": d,
        "volume": lat.volume,
        "period": list(periods),
        "q": q,
        **density_fields(params.density),
        "covering_radius": rho,
        "certificate": {
            "kind": cert.kind.value,
            "bound": cert.bound,
            "bound_size": cert.bound_size,
            "radius": cert.radius,
            "slack": cert.slack,
        },
    }
