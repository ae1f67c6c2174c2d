"""Command-line interface.

Subcommands: construct, analyze, density, transform.  Matrices travel in
the shared text format, analysis reports are JSON with a fixed key order,
the density table is CSV.  Exit codes: 0 success, 2 invalid arguments,
3 input format error, 4 inconclusive computation.

Each subcommand's positional and flags are declared once, in
``COMMANDS``.  ``run`` reads a plain argv (the subcommand, its positional
and exact ``--flag value`` pairs) straight from that table, through the
flags' own type and choices checks.  Any other argv, and any plain one
that fails a check, goes to the argparse parser that ``build_parser``
makes from the same table, so help, abbreviations, ``--flag=value`` and
every usage error are argparse's own.  ``argparse`` is imported only then:
a valid plain argv loads neither it nor the ``gettext`` and ``locale``
modules it brings.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from functools import partial
from itertools import chain
from types import SimpleNamespace

from . import analyzer, constructions, hadamard, intlat, xform
from .errors import DigitLimitError, InconclusiveError, LatticeError

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_INCONCLUSIVE = 4

#: longest code ``construct`` builds; a family's generator has length^2
#: entries, so an unchecked size flag could exhaust memory
MAX_LENGTH = 256


#: characters per parsing pass of ``transform``'s input; a pass ends at the
#: first "\n" past them, so a text with no later "\n" is one pass.  A pass
#: holds a string of about 50 bytes for every token of its lines, and the
#: memo one per distinct token until the parse returns.  Besides these a run
#: holds only the input text, the coordinates of one part block and the
#: formatted output, which is written once the last line has parsed.  On
#: the benchmark's point streams (2-core x86-64 VM, Python 3.11), passes of
#: 1024, 2048 and 4096 parsed 2000 lines of 16 coordinates in the same
#: time, 3.2-3.3 ms, and a forked run on them grew its RSS by 220, 244
#: and 344 KB.
READ_CHARS = 1024


class UsageFault(Exception):
    pass


class FormatFault(Exception):
    pass


def _bounded_int(lo: int, hi: int | None = None):
    """argparse type for integers in [lo, hi] (no upper bound when hi is
    None); anything else is a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            fault = f"invalid int value: {text!r}"
        else:
            if value < lo:
                fault = f"must be at least {lo}, got {value}"
            elif hi is not None and value > hi:
                fault = f"must be at most {hi}, got {value}"
            else:
                return value
        import argparse  # a valid value never loads it

        raise argparse.ArgumentTypeError(fault)

    return parse


def _read_text(path: str) -> str:
    """The text of ``path``, or of stdin for "-"."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise FormatFault(f"{'stdin' if path == '-' else path} is not UTF-8 text: {e}") from e
    except OSError as e:
        raise FormatFault(f"cannot read {path}: {e}") from e


def _load_lattice(path: str, max_n: int | None = None) -> intlat.Lattice:
    try:
        lat = intlat.parse_lattice(_read_text(path), max_n)
    except (ValueError, LatticeError) as e:
        raise FormatFault(f"{path}: {e}") from e
    return lat


def _hadamard(order: int) -> intlat.Lattice:
    """Sylvester for a power of two, Paley on q = order - 1 otherwise."""
    if order >= 1 and order & (order - 1) == 0:
        h = hadamard.sylvester(order.bit_length() - 1)
    elif hadamard.is_paley_prime(order - 1):
        h = hadamard.paley(order - 1)
    else:
        accepted = [k for k in range(1, MAX_LENGTH + 1)
                    if k & (k - 1) == 0 or hadamard.is_paley_prime(k - 1)]
        raise UsageFault(f"--order {order} is not a Hadamard order: use a power of 2 or q+1 "
                         f"for a prime q = 3 mod 4, one of {', '.join(map(str, accepted))}")
    return hadamard.hadamard_code(h)


def _gij(i: int, j: int) -> intlat.Lattice:
    if j >= MAX_LENGTH.bit_length():  # minimum distance 2^j > MAX_LENGTH
        raise UsageFault(f"--j {j} gives distance 2^{j}, above the ceiling {MAX_LENGTH}")
    return hadamard.g_matrix(i, j)


#: family -> (flags, builder, length, nominal).  The builder and ``length``
#: take the flag values in order, matrix files already loaded; ``length``
#: gives the code length they ask for, held to MAX_LENGTH before the build.
#: ``nominal`` maps the same values to (minimum distance, volume formula or
#: None), or is None when the family has no nominal parameters.
FAMILIES = {
    "hadamard": (("order",), _hadamard, lambda order: order,
                 lambda order: (order, f"{order}^{order//2}")),
    # 2^i with i clamped to [0, MAX_LENGTH.bit_length()]: the top is already past
    # the ceiling, and a negative i is the builder's to refuse
    "gij": (("i", "j"), _gij, lambda i, j: 1 << min(max(i, 0), MAX_LENGTH.bit_length()),
            lambda i, j: (2**j, str(hadamard.g_volume_formula(i, j)))),
    "minkowski3": (("d",), constructions.minkowski3, lambda d: 3, lambda d: (d, "19/108*d^3")),
    "dim4": (("d",), constructions.dim4, lambda d: 4, None),
    "n2perfect": (("d",), constructions.n2_perfect, lambda d: 2, lambda d: (d, "1/2*d^2")),
    "gn": (("n",), constructions.gn, lambda n: n, lambda n: (4, f"{4 * n}")),
    "double": (("input",), constructions.double, lambda lat: 2 * lat.n, lambda lat: (4, None)),
    "scaled": (("n", "d"), constructions.scaled_diameter_code, lambda n, d: n,
               lambda n, d: (d, f"{4 * n}*(d/4)^{n}")),
    "gw": (("n",), constructions.gw_perfect, lambda n: n, lambda n: (3, f"{2 * n + 1}")),
    "kronecker": (("a", "b"), intlat.kronecker, lambda a, b: a.n * b.n, None),
    "puncture": (("input",), lambda lat: intlat.puncture(intlat.normalize_first_column(lat)),
                 lambda lat: lat.n - 1, None),
}


#: construct flag -> (kind, help).  A "matrix" flag names a matrix file,
#: loaded before the build and held to MAX_LENGTH + 1 rows and columns, so
#: that ``puncture`` can reach MAX_LENGTH; an "int" flag is an integer.
#: Which family reads which flag is FAMILIES' to say; ``construct`` refuses
#: any other.
CONSTRUCT_FLAGS = {
    "n": ("int", "code length"),
    "d": ("int", "minimum-distance parameter"),
    "i": ("int", "first index: length 2^i"),
    "j": ("int", "second index: minimum distance 2^j"),
    "order": ("int", "Hadamard order: a power of 2, or q+1 for a prime q = 3 mod 4"),
    "input": ("matrix", "input matrix file"),
    "a": ("matrix", "left matrix file"),
    "b": ("matrix", "right matrix file"),
}


def _construct_lattice(args) -> tuple:
    """Build (lattice, flag values) for the chosen family."""
    fam = args.family
    flags, build, length = FAMILIES[fam][:3]
    values = []
    for name in flags:
        value = getattr(args, name)
        kind = CONSTRUCT_FLAGS[name][0]
        if value is None:
            raise UsageFault(f"family {fam} requires --{name}")
        values.append(_load_lattice(value, MAX_LENGTH + 1) if kind == "matrix" else value)
    for name in CONSTRUCT_FLAGS:  # a flag the family does not read is refused, its file unopened
        if name not in flags and getattr(args, name) is not None:
            raise UsageFault(f"family {fam} does not read --{name}")
    if length(*values) > MAX_LENGTH:  # refused before anything is built
        given = " ".join(f"--{name} {getattr(args, name)}" for name in flags)
        raise UsageFault(f"{fam} {given} asks for a code longer than the ceiling {MAX_LENGTH}")
    try:
        lat = build(*values)
        # the scale's denominator divides every entry
        intlat.check_digits("output number", [lat.scale.numerator] + [v for r in lat.gen.entries for v in r])
    except InconclusiveError:
        raise
    except (ValueError, LatticeError) as e:
        raise UsageFault(f"{fam}: {e}") from e
    return lat, values


def _parameter_doc(fam: str, lat: intlat.Lattice, values: list) -> dict:
    """The nominal parameter document that ``construct --out`` prints."""
    try:
        intlat.check_digits("output number", [lat.volume])  # it bounds the document
    except DigitLimitError as e:
        raise UsageFault(f"{fam}: {e}") from e
    nominal = FAMILIES[fam][3]
    d, formula = nominal(*values) if nominal else (None, None)
    periods, q = intlat.period(lat)
    doc = {"family": fam, "n": lat.n, "volume": lat.volume, "period": list(periods), "q": q}
    if d is not None:
        doc["min_distance_nominal"] = d
        doc.update(analyzer.density_fields(intlat.CodeParams(lat.n, d, lat.volume, q).density))
    if formula:
        doc["volume_formula"] = formula
    if fam == "dim4":
        doc["reconciliation"] = constructions.dim4_reconciliation(*values)
    return doc


def cmd_construct(args) -> int:
    if args.out == "-":  # "-" is stdin to every reader, so it names no output file
        raise UsageFault("--out - names no file; leave --out out to print the matrix on stdout")
    lat, values = _construct_lattice(args)
    text = intlat.format_lattice(lat)
    if not args.out:  # the parameter document is built only to be printed
        sys.stdout.write(text)
        return EXIT_OK
    doc = _parameter_doc(args.family, lat, values)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise FormatFault(f"cannot write {args.out}: {e}") from e
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def cmd_analyze(args) -> int:
    lat = _load_lattice(args.matrix, max_n=MAX_LENGTH)
    doc = analyzer.report(lat, min_dist_cap=args.min_dist_cap, coset_cap=args.coset_cap)
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def cmd_density(args) -> int:
    sys.stdout.write(constructions.density_csv(args.max_n))
    return EXIT_OK


def _read_blocks(text: str, length: int):
    """Yield the points of ``text``, one point a line and blank lines
    skipped, in input order, ``xform.BLOCK`` at a time as coordinate
    columns: each full block once its last line has parsed, and the part
    block left over at the end.  A bad line raises, naming its line, before
    any block that follows it is yielded.

    The text goes through passes of about ``READ_CHARS`` characters, each
    cut just after a "\\n", so that the passes split into the lines the
    whole text would (``_read_pass``).  Between blocks only the coordinates
    of a part block are kept."""
    step = length * xform.BLOCK
    values, memo = [], {}  # memo: each token seen -> its int
    pos = lineno = 0
    while pos < len(text):
        cut = text.find("\n", pos + READ_CHARS) + 1 or len(text)
        lineno += _read_pass(text[pos:cut], lineno, length, values, memo)
        pos = cut
        while len(values) >= step or pos == len(text) and values:
            block = [values[j:step:length] for j in range(length)]
            del values[:step]
            yield block


def _read_pass(piece: str, before: int, length: int, values: list, memo: dict) -> int:
    """Append the coordinates of the lines of ``piece``, which follow line
    ``before``, to ``values``, and return how many lines it has.

    C-level steps over the whole pass: split, one length check, then each
    token's int from ``memo``.  ``int`` runs only in a pass that holds a
    token no earlier pass did, and only on those tokens.  Only a pass that
    faults is walked line by line (``_line_fault``)."""
    lines = piece.splitlines()
    rows = list(map(str.split, lines))
    if not {0, length}.issuperset(map(len, rows)):  # a blank line, or a point
        _line_fault(lines, before, length)
    known = len(values)
    try:
        values += map(memo.__getitem__, chain.from_iterable(rows))
    except KeyError:  # a token no earlier pass held
        del values[known:]
        new = set(chain.from_iterable(rows)).difference(memo)
        try:
            memo.update(zip(new, map(int, new)))
        except ValueError:  # a non-integer, or past the int-string limit
            _line_fault(lines, before, length)
        values += map(memo.__getitem__, chain.from_iterable(rows))
    return len(lines)


def _line_fault(lines: list, before: int, length: int) -> None:
    # raise the fault of the first bad line of the pass ``lines``, which
    # follows line ``before``
    for lineno, raw in enumerate(lines, start=before + 1):
        line = raw.strip()
        if not line:
            continue
        try:
            p = list(map(int, line.split()))
        except ValueError as e:
            fault = intlat.number_fault(line, "coordinate", "non-integer coordinate")
            raise FormatFault(f"line {lineno}: {fault}") from e
        if len(p) != length:
            raise FormatFault(f"line {lineno}: expected {length} coordinates, got {len(p)}")
    raise AssertionError("a pass faulted with no bad line")


def cmd_transform(args) -> int:
    # disc prints the involution's image, cont prints H.x / d
    if args.mode == "disc":
        spec = xform.TransformSpec.build(args.d)
        h, scale, columns = spec.h, 1, partial(xform.discrete_columns, spec)
    else:
        h, scale = xform.transform_matrix(args.d), args.d
        columns = partial(xform.hadamard_columns, h)
    text = {}  # each distinct value met in an image -> str(Fraction(value, scale))
    out = []  # one string per block, each of its lines ending in "\n"
    blocks = _read_blocks(_read_text(args.input or "-"), h.order)
    for cols in blocks:
        image = columns(cols)
        try:
            for v in set().union(*image).difference(text):
                text[v] = str(Fraction(v, scale))
        except ValueError:  # str() refuses a number past the int-string limit
            try:  # name the first point, in input order, that fails
                for p in zip(*image):
                    intlat.check_digits("image coordinate", [Fraction(v, scale).numerator for v in p])
            except DigitLimitError:
                for _ in blocks:  # parse the rest first: a bad line anywhere wins
                    pass
                raise
            raise
        words = [list(map(text.__getitem__, col)) for col in image]
        del image, cols  # freed before the block's lines are made
        rows = list(map(" ".join, zip(*words)))
        rows.append("")
        out.append("\n".join(rows))
    sys.stdout.writelines(out)
    return EXIT_OK


#: subcommand -> (handler, help, positional, flags).  The positional is
#: (name, add_argument keywords) or None; ``flags`` maps each flag name,
#: without its "--", to its add_argument keywords.  ``build_parser`` hands
#: the keywords to argparse; ``_plain_args`` reads type, choices, required
#: and default from them, so no other keyword may change what a flag parses.
COMMANDS = {
    "construct": (cmd_construct, "build a generator matrix from a named family",
                  ("family", {"choices": FAMILIES}), {
        **{name: {"type": None if kind == "matrix" else int,
                  "help": f"{text} ({', '.join(f for f, (names, *_) in FAMILIES.items() if name in names)})"}
           for name, (kind, text) in CONSTRUCT_FLAGS.items()},
        "out": {"help": "write the generator here and print the parameter document; "
                "without it the matrix itself goes to stdout"},
    }),
    "analyze": (cmd_analyze, "measure a generator matrix with the oracles",
                ("matrix", {"help": "matrix file in the shared text format, or - for stdin"}), {
        "min-dist-cap": {"type": _bounded_int(1), "default": None,
                         "help": "weight cap for the distance search"},
        "coset-cap": {"type": _bounded_int(0, analyzer.MAX_COSET_CAP),
                      "default": analyzer.DEFAULT_COSET_CAP,
                      "help": f"skip the covering radius above this volume (<= {analyzer.MAX_COSET_CAP})"},
    }),
    "density": (cmd_density, "print the packing-density table as CSV", None, {
        "max-n": {"type": _bounded_int(2, 12), "default": 10, "help": "largest length (<= 12)"},
    }),
    "transform": (cmd_transform, "apply the sphere-to-box transform to a point stream", None, {
        "d": {"type": int, "required": True, "choices": (2, 4)},
        "mode": {"choices": ("cont", "disc"), "required": True},
        "input": {"help": "point file, one point per line (default stdin)"},
    }),
}


def build_parser():
    """The argparse parser of ``COMMANDS``, for every argv ``_plain_args``
    declines: help, abbreviations, ``--flag=value``, usage errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="leelat",
        description="construct, analyze and transform lattice codes in the "
        "Lee/Manhattan metric",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, text, positional, flags) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        p.set_defaults(handler=handler)
        if positional:
            p.add_argument(positional[0], **positional[1])
        for name, keywords in flags.items():
            p.add_argument(f"--{name}", **keywords)
    return parser


def _plain_args(argv: list):
    """The namespace argparse gives a plain ``argv``, or None for any other.

    Plain is the subcommand, then its positional and exact ``--flag value``
    pairs in any order, each flag at most once, with no value but a lone
    "-" starting with "-".  Each value goes through its flag's type and
    choices, and every required flag must be given; when a check fails the
    answer is None too, and argparse reports the fault in its own words."""
    if not argv or argv[0] not in COMMANDS:
        return None
    handler, _, positional, flags = COMMANDS[argv[0]]
    given, positionals = {}, []
    words = iter(argv[1:])
    for word in words:
        if not word.startswith("-") or word == "-":
            positionals.append(word)
            continue
        name, value = word[2:], next(words, None)
        if (not word.startswith("--") or name not in flags or name in given
                or value is None or value.startswith("-") and value != "-"):
            return None
        given[name] = value
    if len(positionals) != (positional is not None):
        return None
    specs = flags
    if positional:
        specs = {positional[0]: positional[1], **flags}
        given[positional[0]] = positionals[0]
    fields = {"command": argv[0], "handler": handler}
    for name, spec in specs.items():
        if name not in given:
            if spec.get("required"):
                return None
            value = spec.get("default")
        else:
            try:
                value = (spec.get("type") or str)(given[name])
            except Exception:  # argparse parses the argv again and words the fault
                return None
            if "choices" in spec and value not in spec["choices"]:
                return None
        fields[name.replace("-", "_")] = value
    return SimpleNamespace(**fields)


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as e:
            return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except UsageFault as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (FormatFault, DigitLimitError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FORMAT
    except InconclusiveError as e:
        print(f"inconclusive: {e}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except LatticeError as e:  # a failed internal check: a proven bound, an exact division, a cap
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run())
