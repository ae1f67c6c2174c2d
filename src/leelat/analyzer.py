"""Minimum distance, coset leaders, covering radius, packing density and
perfection certificates for lattice codes."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from . import intlat, metric
from .errors import BoundViolationError, CapExceededError, InconclusiveError
from .intlat import CodeParams, Lattice

#: weight ceiling for the automatic minimum-distance search
DEFAULT_HARD_CAP = 64

#: ceiling on search nodes (coordinates fixed) during a distance search
DEFAULT_POINT_BUDGET = 20_000_000

#: largest volume for which coset tables are built
DEFAULT_COSET_CAP = 10**6


def min_distance(
    lat: Lattice,
    cap: int | None = None,
    hard_cap: int = DEFAULT_HARD_CAP,
    point_budget: int = DEFAULT_POINT_BUDGET,
) -> int:
    """Minimum Manhattan weight over the nonzero lattice vectors.

    Depth-first enumeration of lattice vectors along the lower-triangular
    HNF, Fincke-Pohst / Schnorr-Euchner style in the L1 norm.  Coordinates
    are fixed from the last one down; the HNF rows already chosen confine
    coordinate j to one residue class mod ``hnf[j][j]``, tried smallest
    absolute value first.  Of each pair x, -x only the one whose last
    nonzero coordinate is positive is visited.  The weight bound deepens
    w = 1, 2, ... up to ``cap`` (``hard_cap`` without one), and each pass
    looks for a vector of weight exactly w.  ``point_budget`` caps the
    search nodes over all passes.  An exhausted cap or budget raises
    InconclusiveError, never a wrong answer.
    """
    h = lat.hnf.entries
    n = lat.n
    diag = [h[j][j] for j in range(n)]
    # nonzero below-diagonal entries of each HNF row: choosing row j's
    # coefficient moves only these lower coordinates
    below = [tuple((k, v) for k, v in enumerate(h[j][:j]) if v) for j in range(n)]
    partial = [0] * n  # contribution of the rows chosen so far
    limit = cap if cap is not None else hard_cap
    nodes = 0
    w = 0

    def exhausted():
        return InconclusiveError(
            f"search budget exhausted: {nodes} nodes visited, budget "
            f"{point_budget}, weights <= {w - 1} fully searched"
        )

    def search(j, rem, free):
        nonlocal nodes
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
            if nodes > point_budget:
                raise exhausted()
            return r == 0
        d = diag[j]
        t = partial[j]
        # x_j = t (mod d) with |x_j| <= rem, smallest |x_j| first; only
        # x_j >= 0 while every higher coordinate is zero (then t == 0)
        if free:
            values = range(0, rem + 1, d)
        else:
            r = t % d
            values = sorted(range(r - (r + rem) // d * d, rem + 1, d), key=abs)
        nodes += len(values)
        if nodes > point_budget:
            raise exhausted()
        if j == 1:
            # x_0 is forced: |x_0| = rem - |x_1|, in one class mod diag[0]
            d0 = diag[0]
            a = h[1][0]
            t0 = partial[0]
            for v in values:
                r0 = rem - abs(v)
                s = t0 + (v - t) // d * a
                if (r0 - s) % d0 == 0 or (r0 + s) % d0 == 0:
                    return True
            return False
        row = below[j]
        for v in values:
            c = (v - t) // d
            for k, a in row:
                partial[k] += c * a
            found = search(j - 1, rem - abs(v), free and v == 0)
            for k, a in row:
                partial[k] -= c * a
            if found:
                return True
        return False

    if n == 1:  # the lattice is diag[0] * Z
        if diag[0] <= limit:
            return diag[0]
    else:
        for w in range(1, limit + 1):
            if search(n - 1, w, True):
                return w
    raise InconclusiveError(
        f"no nonzero lattice vector of weight <= {limit}; raise the cap "
        f"({nodes} nodes visited, budget {point_budget})"
    )


@dataclass(frozen=True)
class CosetTable:
    """Minimum-weight coset leaders of Z^n modulo the lattice.

    ``leaders`` maps the canonical residue of a coset to its leader; the
    covering radius ``rho`` is the largest leader weight.
    """

    divisors: tuple
    leaders: dict
    rho: int

    @property
    def size(self) -> int:
        return len(self.leaders)


def coset_table(lat: Lattice, cap: int = DEFAULT_COSET_CAP) -> CosetTable:
    """Assign each coset its minimum-weight leader.

    Shells are scanned in increasing weight and lexicographic order inside
    a shell, so the leader is the lexicographically smallest vector among
    the minimum-weight members of its coset.
    """
    volume = lat.volume
    if volume > cap:
        raise CapExceededError(f"volume {volume} exceeds the coset cap {cap}")
    divisors = tuple(intlat.snf(lat.int_matrix))
    leaders: dict = {}
    rho = 0
    w = 0
    while len(leaders) < volume:
        for x in metric.weight_shell(lat.n, w):
            key = intlat.canonical_residue(lat, x)
            if key not in leaders:
                leaders[key] = x
                rho = w
                if len(leaders) == volume:
                    break
        w += 1
    return CosetTable(divisors=divisors, leaders=leaders, rho=rho)


def covering_radius(lat: Lattice, cap: int = DEFAULT_COSET_CAP) -> int:
    return coset_table(lat, cap=cap).rho


def packing_density(params: CodeParams) -> Fraction:
    """Nominal cross-polytope packing density d^n / (n! * v)."""
    return params.density


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


class CertificateKind(enum.Enum):
    PERFECT = "perfect"
    DIAMETER_PERFECT = "diameter_perfect"
    NONE = "none"


@dataclass(frozen=True)
class Certificate:
    """Outcome of comparing a code's volume against its packing bound.

    For odd minimum distance d = 2R+1 the reference is the Lee sphere of
    radius R; equality means the code is perfect.  For even d = 2R+2 the
    reference is the odd-diameter anticode, which is only conjectured to
    be maximum, so the label says so.
    """

    kind: CertificateKind
    min_dist: int
    radius: int
    bound: str
    bound_size: int
    slack: int


def certify(lat: Lattice, min_dist: int | None = None) -> Certificate:
    if min_dist is None:
        min_dist = min_distance(lat)
    n = lat.n
    volume = lat.volume
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
    slack = volume - bound_size
    if slack < 0:
        raise BoundViolationError(
            f"volume {volume} is below the proven bound {bound_size}; "
            "this indicates a bug in the construction or the distance search"
        )
    kind = exact_kind if slack == 0 else CertificateKind.NONE
    return Certificate(
        kind=kind,
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
    """Full machine-readable analysis document with a fixed key order."""
    d = min_distance(lat, cap=min_dist_cap)
    periods, q = intlat.period(lat)
    params = intlat.reduce_mod_period(lat, d)
    cert = certify(lat, min_dist=d)
    try:
        rho = covering_radius(lat, cap=coset_cap)
    except CapExceededError:
        rho = None
    doc = {
        "n": lat.n,
        "min_distance": d,
        "volume": lat.volume,
        "period": list(periods),
        "q": q,
        "density": f"{params.density.numerator}/{params.density.denominator}",
        "density_decimal": density_decimal(params.density),
        "covering_radius": rho,
        "certificate": {
            "kind": cert.kind.value,
            "bound": cert.bound,
            "bound_size": cert.bound_size,
            "radius": cert.radius,
            "slack": cert.slack,
        },
    }
    return doc
