"""Independent oracles for the test suite.

These deliberately avoid the library's own algorithms: determinants by
cofactor expansion, Smith divisors from gcds of minors, membership by
rational Gaussian elimination, and minimum weights by exhaustive search
over small coordinate boxes.  The coset-leader oracle grows whole Lee
shells by unit steps and takes each coset's smallest member by (weight,
tuple), so neither the library's shell walk order nor its first-hit rule
decides a leader.

``check_record`` holds the contract every leelat result type keeps.
``reference_parser`` is the CLI's argparse declaration written out one
``add_argument`` call per flag, not generated from ``cli.COMMANDS``.
"""

import argparse
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest

from leelat import analyzer, cli, intlat


def cofactor_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j, v in enumerate(rows[0]):
        if v == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * v * cofactor_det(minor)
    return total


def minor_gcd_snf(rows):
    """Smith divisors via s_k = g_k / g_{k-1}, g_k = gcd of all k x k minors."""
    rows = [list(r) for r in rows]
    n = len(rows)
    gs = [1]
    for k in range(1, n + 1):
        g = 0
        for ri in combinations(range(n), k):
            for ci in combinations(range(n), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = gcd(g, abs(cofactor_det(sub)))
        gs.append(g)
    return [gs[k] // gs[k - 1] for k in range(1, n + 1)]


def solve_membership(rows, x):
    """Is x an integer combination of the rows?  Rational elimination."""
    n = len(rows)
    # solve u . rows = x, i.e. rows^T u^T = x^T
    aug = [[Fraction(rows[i][j]) for i in range(n)] + [Fraction(x[j])] for j in range(len(x))]
    col = 0
    for r in range(len(aug)):
        piv = next((i for i in range(r, len(aug)) if aug[i][col] != 0), None)
        if piv is None:
            return False
        aug[r], aug[piv] = aug[piv], aug[r]
        lead = aug[r][col]
        aug[r] = [v / lead for v in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[r])]
        col += 1
        if col == n:
            break
    return all(aug[r][n].denominator == 1 for r in range(n))


def box_points(n, w):
    """All points of Z^n with Manhattan weight exactly w, by brute filter."""
    for p in product(range(-w, w + 1), repeat=n):
        if sum(abs(v) for v in p) == w:
            yield p


def recursive_weight_shell(n, w):
    """The points of Z^n of weight exactly w in lexicographic order, by the
    definition: each first coordinate v in increasing order, followed by the
    shell of weight w - |v| in Z^(n-1)."""
    if n == 1:
        return [(-w,), (w,)] if w else [(0,)]
    return [(v,) + rest for v in range(-w, w + 1) for rest in recursive_weight_shell(n - 1, w - abs(v))]


def brute_min_weight(rows, w_max):
    """Minimum Manhattan weight over the nonzero lattice points, or None."""
    n = len(rows[0])
    for w in range(1, w_max + 1):
        for p in box_points(n, w):
            if solve_membership(rows, p):
                return w
    return None


def subgroup_closure(rows, m):
    """The subgroup of Z_m^n generated by the rows, as a set of tuples."""
    n = len(rows[0])
    zero = (0,) * n
    span = {zero}
    for g in rows:
        g = tuple(v % m for v in g)
        if g == zero:
            continue
        base = list(span)
        shift = zero
        while True:
            shift = tuple((a + b) % m for a, b in zip(shift, g))
            if shift == zero:
                break
            span.update(tuple((a + b) % m for a, b in zip(s, shift)) for s in base)
    return span


def lee_code_min_distance(rows, m):
    """min(m, min nonzero Lee weight of the row span mod m): equals the
    minimum Manhattan weight of the lattice the rows generate."""
    span = subgroup_closure(rows, m)
    best = m
    zero = (0,) * len(rows[0])
    for word in span:
        if word == zero:
            continue
        w = sum(min(v, m - v) for v in word)
        if w < best:
            best = w
    return best


def brute_coset_leaders(lat):
    """(leaders, rho) from the definition, by another route than the
    shell scan of ``analyzer.coset_table``: shell w + 1 is grown as the
    set of unit-step neighbours of shell w that have weight w + 1, whole
    shells are added until every coset is met, each coset's leader is its
    member smallest by (weight, tuple), and the leaders are listed in that
    order."""
    n = lat.n
    best = {}
    shell, w = {(0,) * n}, 0
    while True:
        for x in shell:
            key = intlat.canonical_residue(lat, x)
            best[key] = min(best.get(key, (w, x)), (w, x))
        if len(best) == lat.volume:
            return tuple(x for _, x in sorted(best.values())), w
        w += 1
        shell = {y for x in shell for i in range(n) for s in (-1, 1)
                 for y in [x[:i] + (x[i] + s,) + x[i + 1:]] if sum(map(abs, y)) == w}


def kronecker_rows(a, b):
    """The Kronecker product of two matrices given as row lists: entry
    (i*p + k, j*q + l) is a[i][j] * b[k][l], with b of shape p x q."""
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def check_record(cls, fields, other, text):
    """The contract of a leelat result type: built by position and by
    keyword from ``fields`` (name -> value, in field order), equal by
    value and unequal once ``other`` (name -> value) changes a field,
    every field readable and none assignable, and ``text`` as its repr."""
    record = cls(*fields.values())
    assert record == cls(**fields)
    assert record != cls(**{**fields, **other})
    assert all(getattr(record, name) is value for name, value in fields.items())
    for name in [*fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert repr(record) == text


def reference_parser() -> argparse.ArgumentParser:
    """The CLI's argparse parser, declared flag by flag: its help texts,
    usage errors and namespaces are what ``cli.run`` must reproduce."""
    parser = argparse.ArgumentParser(
        prog="leelat",
        description="construct, analyze and transform lattice codes in the "
        "Lee/Manhattan metric",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a generator matrix from a named family")
    c.set_defaults(handler=cli.cmd_construct)
    c.add_argument("family", choices=cli.FAMILIES)
    for name, (kind, text) in cli.CONSTRUCT_FLAGS.items():
        readers = ", ".join(fam for fam, (flags, *_) in cli.FAMILIES.items() if name in flags)
        c.add_argument(f"--{name}", type=None if kind == "matrix" else int, help=f"{text} ({readers})")
    c.add_argument(
        "--out",
        help="write the generator here and print the parameter document; "
        "without it the matrix itself goes to stdout",
    )

    a = sub.add_parser("analyze", help="measure a generator matrix with the oracles")
    a.set_defaults(handler=cli.cmd_analyze)
    a.add_argument("matrix", help="matrix file in the shared text format, or - for stdin")
    a.add_argument("--min-dist-cap", type=cli._bounded_int(1), default=None,
                   help="weight cap for the distance search")
    a.add_argument("--coset-cap", type=cli._bounded_int(0, analyzer.MAX_COSET_CAP),
                   default=analyzer.DEFAULT_COSET_CAP,
                   help=f"skip the covering radius above this volume (<= {analyzer.MAX_COSET_CAP})")

    t = sub.add_parser("density", help="print the packing-density table as CSV")
    t.set_defaults(handler=cli.cmd_density)
    t.add_argument("--max-n", type=cli._bounded_int(2, 12), default=10, help="largest length (<= 12)")

    x = sub.add_parser("transform", help="apply the sphere-to-box transform to a point stream")
    x.set_defaults(handler=cli.cmd_transform)
    x.add_argument("--d", type=int, required=True, choices=(2, 4))
    x.add_argument("--mode", choices=("cont", "disc"), required=True)
    x.add_argument("--input", help="point file, one point per line (default stdin)")
    return parser
