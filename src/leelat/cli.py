"""Command-line interface.

Subcommands: construct, analyze, density, transform.  Matrices travel in
the shared text format, analysis reports are JSON with a fixed key order,
the density table is CSV.  Exit codes: 0 success, 2 invalid arguments,
3 input format error, 4 inconclusive computation.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import analyzer, constructions, hadamard, intlat, xform
from .errors import InconclusiveError, LatticeError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_INCONCLUSIVE = 4

FAMILIES = (
    "hadamard",
    "gij",
    "minkowski3",
    "dim4",
    "n2perfect",
    "gn",
    "double",
    "scaled",
    "gw",
    "kronecker",
    "puncture",
)


class UsageFault(Exception):
    pass


class FormatFault(Exception):
    pass


def _int_at_least(lo: int):
    """argparse type for integers >= lo; anything else is a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leelat",
        description="construct, analyze and transform lattice codes in the "
        "Lee/Manhattan metric",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a generator matrix from a named family")
    c.add_argument("family", choices=FAMILIES)
    c.add_argument("--n", type=int, help="code length (gn, scaled, gw)")
    c.add_argument("--d", type=int, help="minimum-distance parameter")
    c.add_argument("--i", type=int, help="first index for gij")
    c.add_argument("--j", type=int, help="second index for gij")
    c.add_argument("--order", type=int, help="Hadamard order (power of 2, or q+1 for prime q = 3 mod 4)")
    c.add_argument("--input", help="input matrix file (double, puncture)")
    c.add_argument("--a", help="left matrix file (kronecker)")
    c.add_argument("--b", help="right matrix file (kronecker)")
    c.add_argument(
        "--out",
        help="write the generator here and print the parameter document; "
        "without it the matrix itself goes to stdout",
    )

    a = sub.add_parser("analyze", help="measure a generator matrix with the oracles")
    a.add_argument("matrix", help="matrix file in the shared text format, or - for stdin")
    a.add_argument("--min-dist-cap", type=_int_at_least(1), default=None,
                   help="weight cap for the distance search")
    a.add_argument("--coset-cap", type=_int_at_least(0), default=analyzer.DEFAULT_COSET_CAP,
                   help="skip the covering radius above this volume")

    t = sub.add_parser("density", help="print the packing-density table as CSV")
    t.add_argument("--max-n", type=int, default=10, help="largest length (<= 12)")

    x = sub.add_parser("transform", help="apply the sphere-to-box transform to a point stream")
    x.add_argument("--d", type=int, required=True, choices=(2, 4))
    x.add_argument("--mode", choices=("cont", "disc"), required=True)
    x.add_argument("--input", help="point file, one point per line (default stdin)")
    return parser


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise FormatFault(f"cannot read {path}: {e}") from e


def _load_lattice(path: str) -> intlat.Lattice:
    try:
        lat = intlat.parse_lattice(_read_text(path))
        # a scale that leaves the generator fractional is a format error
        lat.int_matrix
    except (ValueError, LatticeError) as e:
        raise FormatFault(f"{path}: {e}") from e
    return lat


def _fraction_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _construct_lattice(args) -> tuple:
    """Build (lattice, nominal parameter document) for the chosen family."""

    def need(name):
        value = getattr(args, name)
        if value is None:
            raise UsageFault(f"family {args.family} requires --{name}")
        return value

    fam = args.family
    try:
        if fam == "hadamard":
            order = need("order")
            if order >= 1 and order & (order - 1) == 0:
                h = hadamard.sylvester(order.bit_length() - 1)
            else:
                h = hadamard.paley(order - 1)
            lat = hadamard.hadamard_code(h)
            nominal = {"min_distance": order, "volume_formula": f"{order}^{order//2}"}
        elif fam == "gij":
            i, j = need("i"), need("j")
            lat = hadamard.g_matrix(i, j)
            nominal = {
                "min_distance": 2**j,
                "volume_formula": str(hadamard.g_volume_formula(i, j)),
            }
        elif fam == "minkowski3":
            lat = constructions.minkowski3(need("d"))
            nominal = {"min_distance": args.d, "volume_formula": "19/108*d^3"}
        elif fam == "dim4":
            lat = constructions.dim4(need("d"))
            nominal = {}
        elif fam == "n2perfect":
            lat = constructions.n2_perfect(need("d"))
            nominal = {"min_distance": args.d, "volume_formula": "1/2*d^2"}
        elif fam == "gn":
            lat = constructions.gn(need("n"))
            nominal = {"min_distance": 4, "volume_formula": f"{4 * args.n}"}
        elif fam == "scaled":
            lat = constructions.scaled_diameter_code(need("n"), need("d"))
            nominal = {"min_distance": args.d, "volume_formula": f"{4 * args.n}*(d/4)^{args.n}"}
        elif fam == "gw":
            lat = constructions.gw_perfect(need("n"))
            nominal = {"min_distance": 3, "volume_formula": f"{2 * args.n + 1}"}
        elif fam == "double":
            lat = constructions.double(_load_lattice(need("input")))
            nominal = {"min_distance": 4}
        elif fam == "kronecker":
            lat = intlat.kronecker(_load_lattice(need("a")), _load_lattice(need("b")))
            nominal = {}
        elif fam == "puncture":
            src = intlat.normalize_first_column(_load_lattice(need("input")))
            lat = intlat.puncture(src)
            nominal = {}
        else:  # pragma: no cover - argparse already restricts the choices
            raise UsageFault(f"unknown family {fam}")
    except (ValueError, LatticeError) as e:
        raise UsageFault(f"{fam}: {e}") from e

    periods, q = intlat.period(lat)
    doc = {
        "family": fam,
        "n": lat.n,
        "volume": lat.volume,
        "period": list(periods),
        "q": q,
    }
    if "min_distance" in nominal:
        d = nominal["min_distance"]
        params = intlat.reduce_mod_period(lat, d)
        doc["min_distance_nominal"] = d
        doc["density"] = f"{params.density.numerator}/{params.density.denominator}"
        doc["density_decimal"] = analyzer.density_decimal(params.density)
    if nominal.get("volume_formula"):
        doc["volume_formula"] = nominal["volume_formula"]
    if fam == "dim4":
        doc["reconciliation"] = constructions.dim4_reconciliation(args.d)
    return lat, doc


def cmd_construct(args) -> int:
    lat, doc = _construct_lattice(args)
    text = intlat.format_lattice(lat)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise FormatFault(f"cannot write {args.out}: {e}") from e
        print(json.dumps(doc, indent=2))
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_analyze(args) -> int:
    lat = _load_lattice(args.matrix)
    doc = analyzer.report(lat, min_dist_cap=args.min_dist_cap, coset_cap=args.coset_cap)
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def cmd_density(args) -> int:
    if not 2 <= args.max_n <= 12:
        raise UsageFault("--max-n must be between 2 and 12")
    sys.stdout.write(constructions.density_csv(args.max_n))
    return EXIT_OK


def _read_points(args, length: int):
    text = _read_text(args.input) if args.input else sys.stdin.read()
    points = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            p = tuple(int(v) for v in line.split())
        except ValueError as e:
            raise FormatFault(f"line {lineno}: non-integer coordinate") from e
        if len(p) != length:
            raise FormatFault(f"line {lineno}: expected {length} coordinates, got {len(p)}")
        points.append(p)
    return points


def cmd_transform(args) -> int:
    spec = xform.TransformSpec.build(args.d)
    points = _read_points(args, spec.h.order)
    out = []
    for p in points:
        if args.mode == "disc":
            image = xform.discrete_transform(spec, p)
            out.append(" ".join(str(v) for v in image))
        else:
            rv = xform.t_apply(spec.h, p)
            coords = [Fraction(v, spec.d) for v in rv.nums]
            out.append(" ".join(_fraction_str(c) for c in coords))
    sys.stdout.write("\n".join(out) + ("\n" if out else ""))
    return EXIT_OK


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    handlers = {
        "construct": cmd_construct,
        "analyze": cmd_analyze,
        "density": cmd_density,
        "transform": cmd_transform,
    }
    try:
        return handlers[args.command](args)
    except UsageFault as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except FormatFault as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FORMAT
    except InconclusiveError as e:
        print(f"inconclusive: {e}", file=sys.stderr)
        return EXIT_INCONCLUSIVE


def main() -> None:
    sys.exit(run())
