"""Named lattice-code families, the doubling construction, and the
per-dimension packing-density table.

Every family is a scale family: the instance at parameter d is the base
instance multiplied by an exact rational, so densities and alphabet
coefficients are d-independent constants.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import analyzer, intlat
from .errors import BudgetExhaustedError, InconclusiveError
from .intlat import IntMatrix, Lattice


#: non-lattice-code lower bounds on cross-polytope packing density, kept
#: for reference only; they are never emitted as computed results.
SURVEY_LOWER_BOUNDS = {
    4: Fraction(512, 621),
    5: Fraction(1600, 2343),
    6: Fraction(38416, 71595),
}

_MINKOWSKI_BASE = [[1, -2, 3], [-2, 3, 1], [3, 1, -2]]

_DIM4_BASE = [[1, 0, 1, 4], [0, 1, 0, 7], [0, 0, 1, 23], [0, 0, 0, 74]]


def minkowski3(d: int) -> Lattice:
    """Minkowski's densest cross-polytope lattice, scaled to minimum
    distance d; a (3, d, 19/108*d^3, 19/3*d) code of density 18/19."""
    if d <= 0 or d % 6:
        raise ValueError("d must be a positive multiple of 6")
    return Lattice(_MINKOWSKI_BASE, Fraction(d, 6))


def dim4(d: int) -> Lattice:
    """The 4-dimensional direct construction, scaled by d/6.

    The family's advertised parameters (volume 13/216*d^4, density 9/13)
    do not match this generator; use ``dim4_reconciliation`` for the
    oracle-true numbers and the discrepancy record.
    """
    if d <= 0 or d % 6:
        raise ValueError("d must be a positive multiple of 6")
    return Lattice(_DIM4_BASE, Fraction(d, 6))


def dim4_reconciliation(d: int = 6) -> dict:
    """Oracle-measured parameters of ``dim4(d)`` next to its advertised
    ones, with a machine-readable discrepancy note."""
    lat = dim4(d)
    # dim4(d) is dim4(6) scaled by d/6, so its distance is too; measuring at
    # d = 6 keeps the search inside the default weight cap for every d
    oracle = intlat.reduce_mod_period(lat, analyzer.min_distance(dim4(6)) * d // 6)
    claimed_volume = Fraction(13, 216) * d**4
    claimed_q = Fraction(37, 3) * d
    claimed_density = Fraction(9, 13)
    return {
        "family": "dim4",
        "d_parameter": d,
        "n": 4,
        "oracle": {
            "min_distance": oracle.d,
            "volume": oracle.v,
            "q": oracle.q,
            **analyzer.density_fields(oracle.density),
        },
        "advertised": {
            "volume_formula": "13/216*d^4",
            "volume": str(claimed_volume),
            "density": "9/13",
            "q_formula": "37/3*d",
            "q": str(claimed_q),
        },
        "discrepancy": {
            "volume_matches": oracle.v == claimed_volume,
            "density_matches": oracle.density == claimed_density,
            "q_matches": oracle.q == claimed_q,
            "note": (
                "the printed generator has |det| = 37/648*d^4, so the "
                "advertised volume 13/216*d^4 and density 9/13 are not "
                "reproducible from it; oracle values are reported instead"
            ),
        },
    }


def n2_perfect(d: int) -> Lattice:
    """The two-dimensional code generated by (d/2, d/2) and (d/2, -d/2):
    volume d^2/2, minimum distance d, diameter perfect, density 1."""
    if d < 2 or d % 2:
        raise ValueError("d must be a positive even integer")
    h = d // 2
    return Lattice([[h, h], [h, -h]])


def gn(n: int) -> Lattice:
    """Distance-4 diameter-perfect code of length n over Z_{4n}.

    Identity block, last column (3, 5, ..., 2n-1), lower-right entry 4n;
    parameters (n, 4, 4n, 4n).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    rows = []
    for i in range(n - 1):
        row = [0] * n
        row[i] = 1
        row[n - 1] = 2 * i + 3
        rows.append(row)
    last = [0] * n
    last[n - 1] = 4 * n
    rows.append(last)
    return Lattice(rows)


def double(lat: Lattice) -> Lattice:
    """Length-doubling for a distance-4 code: the new lattice is
    {(x, y) : x + y in L, sum(x) even}, with volume 2v and distance 4.

    A weight-1 x forced to cancel y is excluded by the parity condition;
    otherwise |x| + |y| >= |x + y| >= 4.
    """
    try:
        d = analyzer.min_distance(lat, cap=4)
    except BudgetExhaustedError:
        raise
    except InconclusiveError:  # every weight <= 4 searched, none found
        raise ValueError("doubling needs minimum distance 4, input exceeds it") from None
    if d != 4:
        raise ValueError(f"doubling needs minimum distance 4, got {d}")
    n = lat.n
    g = lat.int_matrix.entries
    rows = []
    for i in range(n - 1):  # even-coordinate-sum basis of Z^n
        row = [0] * (2 * n)
        row[i], row[i + 1] = 1, -1
        row[n + i], row[n + i + 1] = -1, 1
        rows.append(row)
    row = [0] * (2 * n)
    row[n - 1], row[2 * n - 1] = 2, -2
    rows.append(row)
    for gi in g:
        rows.append([0] * n + list(gi))
    return Lattice(intlat.hnf(IntMatrix(rows)))


def scaled_diameter_code(n: int, d: int) -> Lattice:
    """``gn(n)`` scaled to minimum distance d; volume 4n*(d/4)^n over Z_{nd}."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if d <= 0 or d % 4:
        raise ValueError("d must be a positive multiple of 4")
    return intlat.scale(gn(n), Fraction(d, 4))


def gw_perfect(n: int) -> Lattice:
    """Golomb-Welch perfect code {x : sum(i * x_i) = 0 (mod 2n+1)}:
    volume 2n+1, minimum distance 3, radius-1 spheres tile Z^n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    q = 2 * n + 1
    rows = [[q] + [0] * (n - 1)]
    for i in range(2, n + 1):
        row = [0] * n
        row[0] = -i
        row[i - 1] = 1
        rows.append(row)
    return Lattice(rows)


# --- density table --------------------------------------------------------


class DensityEntry(namedtuple("DensityEntry", "n label d volume q density volume_power lattice")):
    """One row of the density table: the best construction found for a
    length, evaluated at its smallest valid distance; volume =
    volume_coeff * d**volume_power."""

    __slots__ = ()

    @property
    def volume_coeff(self) -> Fraction:
        return Fraction(self.volume, self.d**self.volume_power)

    @property
    def q_coeff(self) -> Fraction:
        return Fraction(self.q, self.d)


def _entry(label: str, lat: Lattice, d: int, volume_power: int | None = None) -> DensityEntry:
    params = intlat.reduce_mod_period(lat, d)
    return DensityEntry(
        n=lat.n,
        label=label,
        d=d,
        volume=params.v,
        q=params.q,
        density=params.density,
        volume_power=lat.n if volume_power is None else volume_power,
        lattice=lat,
    )


def _candidates(n: int, best: dict) -> list:
    """Every construction of length n but the punctured ones, as (label,
    lattice, d) triples; products read only rows ``best[m]`` with m < n and
    m <= 6, which ``density_table`` has already filled."""
    out = []
    if n == 2:
        out.append(("n2perfect", n2_perfect(2), 2))
    if n == 3:
        out.append(("minkowski3", minkowski3(6), 6))
    if n == 4:
        out.append(("dim4", dim4(6), 6))
    out.append((f"gn_scaled({n})", scaled_diameter_code(n, 4), 4))
    for a in range(2, n):
        if a * a > n:
            break
        if n % a == 0:
            ea, eb = best[a], best[n // a]
            lat = intlat.kronecker(ea.lattice, eb.lattice)
            # label stays comma-free so the CSV needs no quoting
            out.append((f"kron({ea.label} x {eb.label})", lat, ea.d * eb.d))
    return out


def _punctured(parents: list) -> list:
    """The punctured codes of the ``parents`` whose first column normalizes
    to (1, 0, ..., 0), each with its parent's d and, as volume power, its
    parent's length."""
    out = []
    for label, lat, d in parents:
        norm = intlat.normalize_first_column(lat)
        if norm.int_matrix.entries[0][0] != 1:
            continue
        out.append((f"puncture({label})", intlat.puncture(norm), d, lat.n))
    return out


def density_table(n_max: int) -> list:
    """Best-known entry for each length 2..n_max (n_max <= 12)."""
    if not 2 <= n_max <= 12:
        raise ValueError("n_max must be between 2 and 12")
    best: dict = {}
    twelve = None
    for n in range(2, n_max + 1):
        candidates = twelve if n == 12 else _candidates(n, best)
        if n == 11:
            # row 11 also takes the punctured length-12 codes; row 12
            # reuses the candidates built for them
            twelve = _candidates(12, best)
            candidates += _punctured(twelve)
        # density reads n, d and the volume, never q, so only the winner
        # needs its period; max keeps the first of equally dense candidates
        winner = max(candidates, key=lambda c: intlat.CodeParams(c[1].n, c[2], c[1].volume, None).density)
        best[n] = _entry(*winner)
    return list(best.values())


def _coeff_expr(coeff: Fraction, power: int) -> str:
    sym = "d" if power == 1 else f"d^{power}"
    return sym if coeff == 1 else f"{coeff}*{sym}"


def density_csv(n_max: int) -> str:
    """The density table as deterministic CSV text."""
    lines = ["n,construction,d,volume,q,density,density_decimal"]
    for e in density_table(n_max):
        lines.append(
            ",".join(
                [
                    str(e.n),
                    e.label,
                    str(e.d),
                    _coeff_expr(e.volume_coeff, e.volume_power),
                    _coeff_expr(e.q_coeff, 1),
                    *analyzer.density_fields(e.density).values(),
                ]
            )
        )
    return "\n".join(lines) + "\n"
