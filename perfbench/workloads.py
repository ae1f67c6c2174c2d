"""The four workloads: fixed op pools, seeded inputs, and op execution.

A pool lists the ops of one round.  Its instance sizes are fixed; the
seed only changes the order of each round, the random unimodular basis
each lattice input is written in, sphere centres and point streams, so
runs with different seeds cost the same.  Why each workload exists and
what it should move is written down in DESIGN.md next to this file.

``pool`` needs no leelat.  ``prepare`` and ``execute`` run in forked
children of the benchmark process, never in the benchmark process itself.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction

from checks import nominal

WORKLOADS = ("analyze", "cover-sweep", "transform-stream", "construct-density")

# Every pool has 15 ops.  With 15 ops a round, the nearest-rank p50 and p90
# of r whole rounds fall on ranks 7.5r and 13.5r, the middle of the 8th and
# 14th cheapest op's samples, so neither percentile depends on how many
# rounds a run completes.  Sizes are picked so that a 25 s run holds well
# over 100 ops and, as far as the recorded instances allow, so that those
# two ops stand apart from their neighbours; DESIGN.md gives the gaps.

_ANALYZE_CODES = (
    [("sylvester8", "hadamard", {"order": 8}), ("g3_3", "gij", {"i": 3, "j": 3}), ("g4_2", "gij", {"i": 4, "j": 2})]
    + [(f"gn{n}", "gn", {"n": n}) for n in (10, 13, 16)]
    + [(f"gw{n}", "gw", {"n": n}) for n in (21, 41)]
    + [(f"minkowski3_{d}", "minkowski3", {"d": d}) for d in (24, 30, 36)]
    + [(f"dim4_{d}", "dim4", {"d": d}) for d in (12, 18)]
    + [(f"scaled{n}_8", "scaled", {"n": n, "d": 8}) for n in (5, 6)]
)

# (d, mode, batch size): mostly d=4 disc, 200 to 2000 points each.  The
# 8th and 14th cheapest, d4 disc 600 and 1500, sit 20-30% from both their
# neighbours; the d4 cont batches are sized to stay clear of them.
_TRANSFORM_BATCHES = (
    [(2, mode, size) for mode in ("disc", "cont") for size in (500, 1000)]
    + [(4, "disc", size) for size in (200, 300, 400, 600, 900, 1000, 1100, 1150, 1500)]
    + [(4, "cont", size) for size in (1000, 2000)]
)

_CONSTRUCT_FAMILIES = (
    [(f"hadamard{o}", "hadamard", {"order": o}) for o in (16, 20, 24, 32)]
    + [(f"gij{i}_3", "gij", {"i": i, "j": 3}) for i in (5, 6)]
    + [
        ("gn32", "gn", {"n": 32}),
        ("gw61", "gw", {"n": 61}),
        ("minkowski3_48", "minkowski3", {"d": 48}),
        ("scaled6_8", "scaled", {"n": 6, "d": 8}),
        ("dim4_12", "dim4", {"d": 12}),
    ]
)

# matrices read by the kronecker and puncture ops: name -> (family, params)
_CONSTRUCT_INPUTS = {
    "minkowski3_6": ("minkowski3", {"d": 6}),
    "n2perfect_2": ("n2perfect", {"d": 2}),
    "hadamard16": ("hadamard", {"order": 16}),
    "gn12": ("gn", {"n": 12}),
}

_FLAGS = {"order": "--order", "i": "--i", "j": "--j", "n": "--n", "d": "--d"}


def _dim(family: str, p: dict) -> int:
    return {
        "hadamard": lambda: p["order"],
        "gij": lambda: 2 ** p["i"],
        "gn": lambda: p["n"],
        "gw": lambda: p["n"],
        "minkowski3": lambda: 3,
        "dim4": lambda: 4,
        "scaled": lambda: p["n"],
        "n2perfect": lambda: 2,
    }[family]()


def _frac(v) -> list:
    v = Fraction(v)
    return [v.numerator, v.denominator]


def pool(workload: str, work: str) -> list:
    """The ops of one round; ``work`` is the directory for inputs and outputs."""
    ops = []
    if workload == "analyze":
        for oid, family, params in _ANALYZE_CODES:
            path = os.path.join(work, f"{oid}.txt")
            ops.append({"id": oid, "kind": "cli", "check": "analyze", "argv": ["analyze", path],
                        "family": family, "params": params, "inputs": [[family, params, path]]})
    elif workload == "cover-sweep":
        for family, sizes in (("minkowski3", (24, 36, 48)), ("dim4", (12, 18, 24))):
            for d in sizes:
                ops.append({"id": f"covering_{family}_{d}", "kind": "lib", "check": "covering_radius",
                            "lattice": [family, {"d": d}]})
        for r in range(7, 12):
            ops.append({"id": f"discrete_box_R{r}", "kind": "lib", "check": "discrete_box", "radius": r})
        for r in (10, 12, 15, 16):
            ops.append({"id": f"continuous_box_R{r}", "kind": "lib", "check": "continuous_box", "radius": r})
    elif workload == "transform-stream":
        for d, mode, size in _TRANSFORM_BATCHES:
            oid = f"d{d}_{mode}_{size}"
            path = os.path.join(work, f"{oid}.pts")
            ops.append({"id": oid, "kind": "cli", "check": "transform", "d": d, "mode": mode, "size": size,
                        "input": path,
                        "argv": ["transform", "--d", str(d), "--mode", mode, "--input", path]})
    elif workload == "construct-density":
        for oid, family, params in _CONSTRUCT_FAMILIES:
            argv = ["construct", family]
            for k, v in params.items():
                argv += [_FLAGS[k], str(v)]
            ops.append(_construct_op(oid, argv, _dim(family, params), nominal(family, params)[1]))
        path = {name: os.path.join(work, f"in_{name}.txt") for name in _CONSTRUCT_INPUTS}
        vol = {name: nominal(f, p)[1] for name, (f, p) in _CONSTRUCT_INPUTS.items()}
        dim = {name: _dim(f, p) for name, (f, p) in _CONSTRUCT_INPUTS.items()}

        def inputs(*names):
            return [[*_CONSTRUCT_INPUTS[name], path[name]] for name in names]

        a, b = "minkowski3_6", "n2perfect_2"
        argv = ["construct", "kronecker", "--a", path[a], "--b", path[b]]
        volume = Fraction(vol[a]) ** dim[b] * Fraction(vol[b]) ** dim[a]
        ops.append(dict(_construct_op(f"kronecker_{a}_{b}", argv, dim[a] * dim[b], volume), inputs=inputs(a, b)))
        for src in ("hadamard16", "gn12"):
            argv = ["construct", "puncture", "--input", path[src]]
            ops.append(dict(_construct_op(f"puncture_{src}", argv, dim[src] - 1, vol[src]), inputs=inputs(src)))
        ops.append({"id": "density12", "kind": "cli", "check": "density", "argv": ["density", "--max-n", "12"]})
    else:
        raise ValueError(f"unknown workload {workload}")
    return ops


def _construct_op(oid, argv, n, volume) -> dict:
    return {"id": oid, "kind": "cli", "check": "construct", "argv": argv + ["--out", None],
            "n": n, "volume": _frac(volume)}


# --- seeded inputs (run in a forked child) ---------------------------------


def _lattice(family: str, p: dict):
    from leelat import constructions, hadamard

    if family == "hadamard":
        order = p["order"]
        h = hadamard.sylvester(order.bit_length() - 1) if order & (order - 1) == 0 else hadamard.paley(order - 1)
        return hadamard.hadamard_code(h)
    if family == "gij":
        return hadamard.g_matrix(p["i"], p["j"])
    return {
        "gn": lambda: constructions.gn(p["n"]),
        "gw": lambda: constructions.gw_perfect(p["n"]),
        "minkowski3": lambda: constructions.minkowski3(p["d"]),
        "dim4": lambda: constructions.dim4(p["d"]),
        "scaled": lambda: constructions.scaled_diameter_code(p["n"], p["d"]),
        "n2perfect": lambda: constructions.n2_perfect(p["d"]),
    }[family]()


def _unimodular_rows(rows, rng: random.Random) -> list:
    """The same lattice in a random basis: every row but the last gets +-1
    times one later row added, and every row a random sign.

    The change of basis is upper unitriangular, so column j of the new
    adjugate is column j of the old one plus earlier columns.  The seed
    code's membership test tries adjugate columns in order and stops at the
    first that rejects a point; a row shuffle would reorder the columns and
    make the distance search of the gn and gw codes cost up to 3x more on
    some seeds than on others.
    """
    n = len(rows)
    m = []
    for i in range(n):
        row = list(rows[i])
        if i < n - 1:
            j, s = rng.randrange(i + 1, n), rng.choice((1, -1))
            row = [a + s * b for a, b in zip(row, rows[j])]
        m.append([-v for v in row] if rng.random() < 0.5 else row)
    return m


def _matrix_text(rows, scale: Fraction) -> str:
    head = "" if scale == 1 else f"# scale {scale.numerator}/{scale.denominator}\n"
    return head + f"{len(rows)} {len(rows[0])}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)


def _lee_stream(rng: random.Random, n: int, size: int, radius: int) -> list:
    """``size`` points in Lee spheres of the given radius around a few
    seeded centres."""
    centres = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(4)]
    points = []
    for k in range(size):
        p = list(centres[k % 4])
        for _ in range(rng.randint(0, radius)):
            p[rng.randrange(n)] += rng.choice((1, -1))
        points.append(p)
    return points


def prepare(ops: list, seed: int) -> list:
    """Write the seeded inputs of one pool and fill in seeded op fields."""
    rng = random.Random(f"inputs:{seed}")
    out = []
    for op in ops:
        op = dict(op)
        for family, params, path in op.pop("inputs", ()):
            lat = _lattice(family, params)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_matrix_text(_unimodular_rows(lat.gen.entries, rng), lat.scale))
        if "lattice" in op:
            lat = _lattice(*op.pop("lattice"))
            op["rows"], op["scale"] = _unimodular_rows(lat.gen.entries, rng), _frac(lat.scale)
        if op["check"] == "discrete_box":
            op["center"] = [rng.randint(-50, 50) for _ in range(4)]
        if op["check"] == "transform":
            radius = 6 if op["d"] == 4 else 10
            with open(op["input"], "w", encoding="utf-8") as fh:
                for p in _lee_stream(rng, op["d"] ** 2, op["size"], radius):
                    fh.write(" ".join(map(str, p)) + "\n")
        out.append(op)
    return out


# --- op execution (run in a forked child) ----------------------------------


def execute(op: dict):
    """Run one op: a CLI call returns its exit code, a library call the
    fields of its report."""
    from leelat import analyzer, cli, hadamard, intlat, xform

    if op["kind"] == "cli":
        return cli.run(op["argv"])
    check = op["check"]
    if check == "covering_radius":
        lat = intlat.Lattice(op["rows"], Fraction(*op["scale"]))
        return {"rho": analyzer.covering_radius(lat)}
    if check == "discrete_box":
        rep = xform.discrete_box(xform.TransformSpec.build(2), op["radius"], center=tuple(op["center"]))
        return {"rho": rep.rho, "bound": rep.bound, "extents": list(rep.extents),
                "points_checked": rep.points_checked}
    if check == "continuous_box":
        rep = xform.continuous_box(hadamard.sylvester(2), op["radius"])
        return {"max_abs": rep.max_abs, "points_checked": rep.points_checked,
                "witness_attains": rep.witness_attains}
    raise ValueError(f"unknown op {op['id']}")
