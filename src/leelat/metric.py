"""Lee/Manhattan distances, sphere and anticode sizes, and the brute-force
shape enumerators used as oracles for them.

Points are plain tuples of ints.  All counting formulas are evaluated with
exact integer arithmetic.
"""

from __future__ import annotations

from math import comb

from .errors import CapExceededError, DimensionError, IntegralityError

#: ceiling on a walk's point count; in any dimension it bounds memory and time
DEFAULT_CAP = 10**7


def manhattan_dist(x, y) -> int:
    if len(x) != len(y):
        raise DimensionError("points have different lengths")
    return sum(abs(a - b) for a, b in zip(x, y))


def manhattan_weight(x) -> int:
    return sum(abs(a) for a in x)


def lee_dist(x, y, m: int) -> int:
    """Summed per-coordinate cyclic distance on Z_m."""
    if m < 2:
        raise ValueError("modulus must be at least 2")
    if len(x) != len(y):
        raise DimensionError("points have different lengths")
    total = 0
    for a, b in zip(x, y):
        d = (a - b) % m
        total += min(d, m - d)
    return total


def lee_sphere_size(n: int, radius: int) -> int:
    """Number of points of Z^n within Manhattan distance ``radius``."""
    if n < 1 or radius < 0:
        raise ValueError("need n >= 1 and radius >= 0")
    return sum(
        2**i * comb(n, i) * comb(radius, i) for i in range(min(n, radius) + 1)
    )


def anticode_size_odd(n: int, radius: int) -> int:
    """Size of the diameter-(2*radius+1) anticode grown from two adjacent
    points by ``radius`` rounds of unit-neighbor closure."""
    if n < 1 or radius < 0:
        raise ValueError("need n >= 1 and radius >= 0")
    return sum(
        2 ** (i + 1) * comb(n - 1, i) * comb(radius + 1, i + 1)
        for i in range(min(n - 1, radius) + 1)
    )


def check_anticode_recurrences(n_max: int, r_max: int) -> list:
    """Check the coupled recurrences tying sphere and odd-anticode sizes:

        sphere(n, R)   == sphere(n-1, R) + anticode(n, R-1)
        anticode(n, R) == sphere(n-1, R) + sphere(n, R)

    over 2 <= n <= n_max, 1 <= R <= r_max.  Returns the list of violating
    (n, R, which) triples; empty means everything holds.
    """
    if n_max < 1 or r_max < 1:
        raise ValueError("bounds must be at least 1")
    bad = []
    for n in range(2, n_max + 1):
        for r in range(1, r_max + 1):
            if lee_sphere_size(n, r) != lee_sphere_size(n - 1, r) + anticode_size_odd(n, r - 1):
                bad.append((n, r, "sphere"))
            if anticode_size_odd(n, r) != lee_sphere_size(n - 1, r) + lee_sphere_size(n, r):
                bad.append((n, r, "anticode"))
    return bad


def weight_shell(n: int, w: int):
    """Yield every point of Z^n with Manhattan weight exactly w, in
    lexicographic order.  Each point steps in place to its successor,
    starting from (-w, 0, ..., 0), so the walk holds one point and does
    not recurse at any n."""
    if n < 1:
        raise ValueError("need n >= 1")
    if w < 0:
        return
    point = [0] * n
    point[0] = -w
    last = n - 1
    while True:
        yield tuple(point)
        if point[last] < 0:  # (..., -r) is followed by (..., r)
            point[last] = -point[last]
            continue
        # the rightmost coordinate j < last that can grow: a negative one,
        # or one followed by weight s to take from; the tail after j is cleared
        s = point[last]
        point[last] = 0
        j = last - 1
        while j >= 0 and not s and point[j] >= 0:
            s = point[j]
            point[j] = 0
            j -= 1
        if j < 0:
            return
        v = point[j]
        point[j] = v + 1
        # the tail's smallest point of its weight: (-r, 0, ..., 0)
        point[j + 1] = abs(v + 1) - abs(v) - s


def _check_cap(shape: str, size: int) -> None:
    if size > DEFAULT_CAP:
        raise CapExceededError(f"{shape} has {size} points, cap is {DEFAULT_CAP}")


def sphere_center(n: int, radius: int, center=None) -> tuple:
    """``center`` (default the origin) of a walk over the Lee sphere of the
    given radius in Z^n, checked to have n coordinates, each an int, and the
    sphere to hold at most ``DEFAULT_CAP`` points."""
    _check_cap("sphere", lee_sphere_size(n, radius))
    if center is None:
        return (0,) * n
    if len(center) != n:
        raise DimensionError("center has the wrong length")
    for v in center:
        if not isinstance(v, int):
            raise IntegralityError(f"center coordinate {v!r} is not an int")
    return center


def enumerate_sphere(n: int, radius: int, center=None) -> set:
    """The exact point set of the Lee sphere of the given radius."""
    center = sphere_center(n, radius, center)
    points = set()
    for w in range(radius + 1):
        for p in weight_shell(n, w):
            points.add(tuple(c + v for c, v in zip(center, p)))
    return points


def enumerate_anticode_odd(n: int, radius: int) -> set:
    """Grow the odd-diameter anticode from the seed pair {0, e_1}.

    The seed is fixed for determinism; translation moves the shape but not
    its size or diameter.
    """
    _check_cap("anticode", anticode_size_odd(n, radius))
    e1 = tuple(1 if i == 0 else 0 for i in range(n))
    points = {(0,) * n, e1}
    for _ in range(radius):
        grown = set(points)
        for p in points:
            for i in range(n):
                for step in (1, -1):
                    q = list(p)
                    q[i] += step
                    grown.add(tuple(q))
        points = grown
    return points


def diameter(points) -> int:
    """Largest pairwise Manhattan distance; quadratic scan."""
    pts = list(points)
    best = 0
    for i, p in enumerate(pts):
        for q in pts[i + 1 :]:
            d = manhattan_dist(p, q)
            if d > best:
                best = d
    return best


def format_point_set(points) -> str:
    """One point per line, space-separated, lexicographically sorted."""
    return "\n".join(" ".join(str(v) for v in p) for p in sorted(points)) + "\n"
