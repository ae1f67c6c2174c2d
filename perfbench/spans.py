"""Spans around leelat's public functions, recorded from outside the package.

``install`` replaces every public module-level function of the leelat
modules (and ``IntMatrix.mat_vec``, ``TransformSpec.build``) with a wrapper
that records a span: name, start, end and parent.  Internal calls go
through module globals, so they are caught too; every module namespace
that imported a function by name gets the same wrapper.  Of ``cli`` only
``run`` is wrapped, so its self time is all of the CLI layer: argument
parsing, text I/O and ``Fraction`` rendering.

Generator functions (``metric.weight_shell``) get no span; their yields
are counted as ``points`` on the span that created them.  Spans of one op
stay in memory in that op's process and are handed to the benchmark
process once, when the op ends; self time and counts are derived from them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

MODULES = ("cli", "intlat", "metric", "analyzer", "hadamard", "constructions", "xform")

#: name of the root span the runner opens around each op
OP = "op"

#: counts taken from a function's return value, per span
RESULT_COUNTS = {"analyzer.coset_table": ("filled", lambda table: table.size)}


class Recorder:
    """Span store of one op: parallel arrays indexed by span number."""

    def __init__(self):
        self.names = [OP]
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = {}  # span index -> {counter: value}

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, fn, name_id: int, result_count=None):
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack
        counts = self.counts
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if result_count is not None:
                key, get = result_count
                counts.setdefault(idx, {})[key] = get(out)
            return out

        return traced

    def wrap_generator(self, fn):
        stack, counts = self.stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            owner = stack[-1]
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                c = counts.setdefault(owner, {})
                c["points"] = c.get("points", 0) + n

        return traced

    def payload(self) -> dict:
        """The recorded spans in a compact, picklable form."""
        return {
            "name": self.name.tobytes(),
            "parent": self.parent.tobytes(),
            "start": self.start.tobytes(),
            "end": self.end.tobytes(),
            "counts": self.counts,
        }


def install(rec: Recorder):
    """Wrap leelat's public functions; returns a function undoing it."""
    import leelat.intlat
    import leelat.xform

    replace = {}
    for modname in MODULES:
        mod = sys.modules["leelat." + modname]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            if modname == "cli" and attr != "run":
                continue
            name = f"{modname}.{attr}"
            if inspect.isgeneratorfunction(obj):
                replace[obj] = rec.wrap_generator(obj)
            else:
                replace[obj] = rec.wrap(obj, rec.name_id(name), RESULT_COUNTS.get(name))

    undo = []
    for mod in [m for k, m in sys.modules.items() if k == "leelat" or k.startswith("leelat.")]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replace:
                undo.append((mod, attr, obj))
                setattr(mod, attr, replace[obj])

    matrix, spec = leelat.intlat.IntMatrix, leelat.xform.TransformSpec
    mat_vec = matrix.__dict__["mat_vec"]
    build = spec.__dict__["build"]
    undo += [(matrix, "mat_vec", mat_vec), (spec, "build", build)]
    matrix.mat_vec = rec.wrap(mat_vec, rec.name_id("intlat.IntMatrix.mat_vec"))
    spec.build = classmethod(rec.wrap(build.__func__, rec.name_id("xform.TransformSpec.build")))

    def restore():
        for owner, attr, obj in undo:
            setattr(owner, attr, obj)

    return restore


class Profile:
    """Per-function totals over many ops, derived from their spans."""

    def __init__(self, names):
        self.names = names
        self.calls = [0] * len(names)
        self.self_s = [0.0] * len(names)
        self.counters = [dict() for _ in names]
        self.ops = 0

    def add(self, payload: dict, scale: float = 1.0) -> None:
        """Add one op's spans, self times multiplied by ``scale``."""
        name = array("i", payload["name"])
        parent = array("i", payload["parent"])
        start = array("d", payload["start"])
        end = array("d", payload["end"])
        covered = [0.0] * len(name)
        for i, p in enumerate(parent):
            if p >= 0:
                covered[p] += end[i] - start[i]
        for i, k in enumerate(name):
            self.calls[k] += 1
            self.self_s[k] += (end[i] - start[i] - covered[i]) * scale
        for i, counts in payload["counts"].items():
            into = self.counters[name[i]]
            for key, v in counts.items():
                into[key] = into.get(key, 0) + v
        self.ops += 1

    def stat(self, name: str, stat: str) -> float:
        """``calls`` or ``self_s`` per op, or a counter per op."""
        k = self.names.index(name)
        if stat == "calls":
            total = self.calls[k]
        elif stat == "self_s":
            total = self.self_s[k]
        else:
            total = self.counters[k].get(stat, 0)
        return total / self.ops if self.ops else 0.0

    def counter(self, name: str, key: str) -> int:
        return self.counters[self.names.index(name)].get(key, 0)

    def top(self, limit: int = 12):
        """(name, self seconds per op, calls per op), largest self time first."""
        order = sorted(range(len(self.names)), key=lambda k: -self.self_s[k])
        return [
            (self.names[k], self.self_s[k] / max(self.ops, 1), self.calls[k] / max(self.ops, 1))
            for k in order[:limit]
            if self.calls[k]
        ]
