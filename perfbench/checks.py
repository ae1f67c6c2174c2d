"""Output checks for the benchmark, built on oracles independent of leelat.

Nothing here imports leelat.  The oracles work from definitions: sphere
sizes by dynamic programming over coordinates, determinants by rational
elimination, the Sylvester matrix from its Kronecker definition (entry
(-1)^popcount(i & j), applied with the fast Walsh-Hadamard butterfly), and
the discrete involution from its coset-leader definition with cosets keyed
by the syndrome H.x mod d.  Recorded documents (``expected.json``) come from
the seed code and pin the fields no formula covers.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

#: rows n = 2..7 of the density table as printed in the project README
README_DENSITY_ROWS = (
    "2,n2perfect,2,1/2*d^2,d,1/1,1.000000",
    "3,minkowski3,6,19/108*d^3,19/3*d,18/19,0.947368",
    "4,dim4,6,37/648*d^4,37/3*d,27/37,0.729730",
    "5,gn_scaled(5),4,5/256*d^5,5*d,32/75,0.426667",
    "6,kron(n2perfect x minkowski3),12,361/93312*d^6,19/3*d,648/1805,0.359003",
    "7,gn_scaled(7),4,7/4096*d^7,7*d,256/2205,0.116100",
)


class CheckFailure(Exception):
    """An op produced a wrong answer."""


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# --- oracles ---------------------------------------------------------------


def sphere_size(n: int, radius: int) -> int:
    """Points of Z^n within Manhattan distance ``radius``, counted one
    coordinate at a time (coordinate value v costs |v| of the radius)."""
    ways = [1] * (radius + 1)  # dimension 0: one point at every budget
    for _ in range(n):
        ways = [ways[r] + 2 * sum(ways[r - v] for v in range(1, r + 1)) for r in range(radius + 1)]
    return ways[radius]


def rational_det(rows, scale=Fraction(1)) -> Fraction:
    """Determinant of scale * rows by Gaussian elimination over Fractions."""
    a = [[Fraction(v) for v in r] for r in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        piv = a[c][c]
        det *= piv
        for r in range(c + 1, n):
            f = a[r][c]
            if f:
                f /= piv
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det * Fraction(scale) ** n


def parse_matrix_text(text: str):
    """(rows, scale) from the matrix text format; raises CheckFailure."""
    scale = Fraction(1)
    lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) == 2 and parts[0] == "scale":
                scale = Fraction(parts[1])
            continue
        lines.append([int(v) for v in line.split()])
    if not lines or len(lines[0]) != 2:
        raise CheckFailure("matrix text has no 'rows cols' header")
    nrows, ncols = lines[0]
    body = lines[1:]
    if len(body) != nrows or any(len(r) != ncols for r in body):
        raise CheckFailure("matrix body does not match its header")
    return body, scale


def nominal(family: str, p: dict):
    """(minimum distance, volume) promised by a family's formulas."""
    if family == "hadamard":
        return p["order"], p["order"] ** (p["order"] // 2)
    if family == "gij":
        i, j = p["i"], p["j"]
        exponent = sum((j - r) * math.comb(i, r) for r in range(min(i, j) + 1))
        return 2**j, 2**exponent
    if family == "gn":
        return 4, 4 * p["n"]
    if family == "gw":
        return 3, 2 * p["n"] + 1
    if family == "minkowski3":
        return p["d"], Fraction(19, 108) * p["d"] ** 3
    if family == "dim4":
        return p["d"], Fraction(37, 648) * p["d"] ** 4
    if family == "scaled":
        return p["d"], 4 * p["n"] * Fraction(p["d"], 4) ** p["n"]
    if family == "n2perfect":
        return p["d"], Fraction(p["d"] ** 2, 2)
    raise ValueError(f"no nominal formulas for {family}")


def walsh_hadamard(x) -> list:
    """H.x for the natural-order Sylvester matrix, H[i][j] = (-1)^popcount(i & j)."""
    v = list(x)
    h = 1
    while h < len(v):
        for i in range(0, len(v), 2 * h):
            for j in range(i, i + h):
                a, b = v[j], v[j + h]
                v[j], v[j + h] = a + b, a - b
        h *= 2
    return v


class DiscreteInvolution:
    """The sphere-to-box involution of Z^(d^2) from its definition.

    The kernel code is {x : H.x = 0 (mod d)}, so a coset is named by its
    syndrome H.x mod d.  Each coset's leader is its lexicographically
    smallest minimum-weight member; the image of p = c + s is H.c/d + s.
    """

    def __init__(self, d: int):
        self.d = d
        self.n = d * d
        n = self.n
        syndromes = {(0,) * n}
        columns = [self._syndrome(tuple(int(i == j) for i in range(n))) for j in range(n)]
        frontier = list(syndromes)
        while frontier:  # closure of the column syndromes = the quotient group
            nxt = []
            for s in frontier:
                for c in columns:
                    t = tuple((a + b) % d for a, b in zip(s, c))
                    if t not in syndromes:
                        syndromes.add(t)
                        nxt.append(t)
            frontier = nxt
        self.leaders = {}
        w = 0
        while len(self.leaders) < len(syndromes):
            for p in sorted(_shell(n, w)):
                self.leaders.setdefault(self._syndrome(p), p)
            w += 1

    def _syndrome(self, x) -> tuple:
        return tuple(v % self.d for v in walsh_hadamard(x))

    def __call__(self, p) -> tuple:
        s = self.leaders[self._syndrome(p)]
        hc = walsh_hadamard([a - b for a, b in zip(p, s)])
        return tuple(v // self.d + b for v, b in zip(hc, s))


def _shell(n: int, w: int) -> list:
    """Every point of Z^n with Manhattan weight exactly w (unordered)."""
    if n == 1:
        return [(w,), (-w,)] if w else [(0,)]
    out = []
    for v in range(-w, w + 1):
        out += [(v,) + rest for rest in _shell(n - 1, w - abs(v))]
    return out


# --- per-workload checks ---------------------------------------------------


class Checker:
    """Checks every output of one workload; raises CheckFailure naming what
    differs.  Identical outputs are checked once."""

    def __init__(self, workload: str, expected: dict):
        self.expected = expected.get(workload, {})
        self._seen = set()
        self._involutions = {}

    def check(self, op: dict, output) -> None:
        key = (op["id"], output if isinstance(output, str) else json.dumps(output, sort_keys=True))
        if key in self._seen:
            return
        getattr(self, "_" + op["check"])(op, output)
        self._seen.add(key)

    def _want(self, op):
        if op["id"] not in self.expected:
            raise CheckFailure(f"no recorded output for {op['id']}")
        return self.expected[op["id"]]

    def _analyze(self, op, text):
        doc = json.loads(text)
        dist, volume = nominal(op["family"], op["params"])
        if doc["min_distance"] != dist:
            raise CheckFailure(f"min_distance {doc['min_distance']}, formula gives {dist}")
        if doc["volume"] != volume:
            raise CheckFailure(f"volume {doc['volume']}, formula gives {volume}")
        if doc != self._want(op):
            raise CheckFailure("analysis document differs from the recorded one")

    def _covering_radius(self, op, result):
        want = self._want(op)
        if result["rho"] != want["rho"]:
            raise CheckFailure(f"covering radius {result['rho']}, recorded {want['rho']}")

    def _discrete_box(self, op, result):
        r, rho = op["radius"], result["rho"]
        if rho != self._want(op)["rho"]:
            raise CheckFailure(f"kernel-code covering radius {rho}, recorded {self._want(op)['rho']}")
        if result["points_checked"] != sphere_size(4, r):
            raise CheckFailure(f"{result['points_checked']} points checked, sphere has {sphere_size(4, r)}")
        bound = 2 * -(-(r + rho) // 2) + 2 * rho + 1
        if result["bound"] != bound:
            raise CheckFailure(f"box bound {result['bound']}, formula gives {bound}")
        if len(result["extents"]) != 4 or not all(1 <= e <= bound for e in result["extents"]):
            raise CheckFailure(f"extents {result['extents']} break the bound {bound}")

    def _continuous_box(self, op, result):
        r = op["radius"]
        if result["points_checked"] != sphere_size(4, r):
            raise CheckFailure(f"{result['points_checked']} points checked, sphere has {sphere_size(4, r)}")
        if result["max_abs"] != r or not result["witness_attains"]:
            raise CheckFailure(f"max_abs {result['max_abs']} (witness {result['witness_attains']}), want {r}")

    def _transform(self, op, text):
        d = op["d"]
        with open(op["input"], encoding="utf-8") as fh:
            points = [tuple(int(v) for v in line.split()) for line in fh if line.strip()]
        lines = text.splitlines()
        if len(lines) != len(points):
            raise CheckFailure(f"{len(lines)} output lines for {len(points)} points")
        if op["mode"] == "disc":
            t = self._involutions.get(d)
            if t is None:
                t = self._involutions[d] = DiscreteInvolution(d)
            for k, (p, line) in enumerate(zip(points, lines)):
                image = tuple(int(v) for v in line.split())
                if len(image) != len(p) or t(image) != p:
                    raise CheckFailure(f"point {k}: image {line!r} does not round-trip to {p}")
        else:
            for k, (p, line) in enumerate(zip(points, lines)):
                want = " ".join(str(Fraction(v, d)) for v in walsh_hadamard(p))
                if line != want:
                    raise CheckFailure(f"point {k}: got {line!r}, H.x/d is {want!r}")

    def _construct(self, op, output):
        doc_text, matrix_text = output
        rows, scale = parse_matrix_text(matrix_text)
        volume = abs(rational_det(rows, scale))
        want = op["volume"]
        if volume != Fraction(want[0], want[1]) or len(rows) != op["n"]:
            raise CheckFailure(f"n={len(rows)} |det|={volume}, formula gives n={op['n']} |det|={want}")
        if json.loads(doc_text) != self._want(op):
            raise CheckFailure("parameter document differs from the recorded one")

    def _density(self, op, text):
        lines = text.splitlines()
        if tuple(lines[1:7]) != README_DENSITY_ROWS:
            raise CheckFailure("density rows n=2..7 differ from the README table")
        if text != self._want(op):
            raise CheckFailure("density CSV differs from the recorded one")
