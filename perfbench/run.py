#!/usr/bin/env python3
"""Benchmark of the leelat library and CLI, run against the in-tree source.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke        # a handful of ops per workload, all checks on
    python3 perfbench/run.py --self-test    # the smoke run, then tampered outputs must be rejected

Each workload is a closed loop with one client and one op in flight.  An
op is one ``leelat.cli.run(argv)`` call, or one public library call where
the CLI has no subcommand for it.  Every op runs in a child forked from
a worker that has just imported ``leelat.cli`` and never changes state,
and is timed inside the child, so no memo or table carries over from one
op to the next, as with separate ``leelat`` invocations.  This process
never calls into leelat itself: inputs are written by a forked child, and
outputs are checked against oracles that do not use leelat (checks.py).

With ``--trace 0`` the last line of stdout holds the end-to-end metrics;
with ``--trace 1`` each op runs twice, untraced and then traced, and the
last line holds the per-layer metrics (per op) and the tracing overhead.
DESIGN.md describes the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import math
import os
import pickle
import random
import select
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import time
import traceback
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

import checks  # noqa: E402  (HERE is on sys.path as the script's directory)
import spans  # noqa: E402
import workloads  # noqa: E402

#: fresh interpreters started to time start-up plus import
SETUP_SPAWNS = 9

#: an op still running after this long is killed and counted as failed
OP_TIMEOUT_S = 60

#: the timed phase stops mid-round once it has run this many times --seconds
HARD_STOP_FACTOR = 3

#: loop length of the speed probe, and the probe time at the reference
#: speed that every reported time is scaled to
PROBE_ITERATIONS = 3000
PROBE_REF_S = 0.005

#: ops per workload in the smoke run, one or more per kind of check
SMOKE = {
    "analyze": ("gn10", "gw21", "minkowski3_24", "g4_2"),
    "cover-sweep": ("covering_minkowski3_24", "covering_dim4_12", "discrete_box_R7", "continuous_box_R10"),
    "transform-stream": ("d4_disc_300", "d2_disc_500", "d4_cont_1000", "d2_cont_500"),
    "construct-density": ("hadamard16", "kronecker_minkowski3_6_n2perfect_2", "puncture_gn12", "density12"),
}

#: end-to-end metrics of the untraced run: (name, unit, better)
E2E_METRICS = (
    ("setup_s", "s", "lower"),
    ("op_s_p50", "s", "lower"),
    ("op_s_p90", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

#: per-layer metrics of the traced run: (function, stat, unit, better)
_FUNCS = (
    "analyzer.min_distance", "analyzer.coset_table", "intlat.canonical_residue",
    "metric.enumerate_sphere", "xform.discrete_transform", "intlat.IntMatrix.mat_vec", "xform.t_apply",
    "xform.TransformSpec.build", "xform.hadamard_kernel_code", "cli.run",
    "intlat.adjugate", "intlat.det", "intlat.hnf", "intlat.snf", "intlat.period",
    "intlat.parse_lattice", "intlat.format_lattice",
    "hadamard.sylvester", "hadamard.paley", "hadamard.g_matrix",
    "constructions.density_table", "constructions.dim4_reconciliation",
)
LAYER_METRICS = (
    [(f, "calls", "count/op", "lower") for f in _FUNCS]
    + [(f, "self_s", "s/op", "lower") for f in _FUNCS]
    + [
        ("analyzer.min_distance", "points", "count/op", "lower"),
        ("analyzer.coset_table", "points", "count/op", "lower"),
        ("analyzer.coset_table", "useful_ratio", "ratio", "higher"),
        ("metric.enumerate_sphere", "points", "count/op", "lower"),
    ]
)
TRACE_METRICS = (
    ("trace.op_s_mean", "s", "lower"),
    ("trace.untraced_op_s_mean", "s", "lower"),
    ("trace.ops_per_s", "1/s", "higher"),
    ("trace.untraced_ops_per_s", "1/s", "higher"),
    ("trace.overhead", "ratio", "lower"),
)


class ChildFailed(Exception):
    pass


class RunAborted(Exception):
    pass


# --- speed normalisation -----------------------------------------------------
#
# The CPU this benchmark gets is shared, and its speed drifts by 25% or more
# within seconds.  Every op and every set-up spawn is therefore bracketed by
# two runs of a fixed pure-Python probe on the same CPU, and its time is
# reported at the reference speed: measured time * PROBE_REF_S / probe time.
# Each probe of an op runs in a child of its own, forked from the same state
# as the op's child, so it pays the same fresh-process costs (copy-on-write
# page faults) as the op, and nothing the op leaves behind can change it.
# The raw times go into the run stamp.


def speed_probe() -> float:
    """Seconds taken by fixed integer, tuple and dict work shaped like
    leelat's inner loops; it does not touch leelat."""
    t0 = time.perf_counter()
    seen = {}
    total = 0
    for i in range(PROBE_ITERATIONS):
        t = (i, i * 7 % 13, -i)
        total += sum(a * b for a, b in zip(t, (3, -1, 2)))
        seen[t] = total
    return time.perf_counter() - t0


def pin_to_one_cpu():
    """Run this process and its children on one CPU, so that the probes
    measure the CPU the ops run on."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


# --- the worker and its per-call children ------------------------------------
#
# The worker is forked once, just after ``import leelat.cli`` (and, in the
# traced run, after the wrappers are installed).  For every call it forks a
# child from that unchanging state, so each op starts where a fresh leelat
# process starts and its resident set is measured from the same base however
# many ops the run holds.  The worker keeps no results: a child pickles its
# return value to a file, and the worker only sends back how the child ran.

#: the traced run's (Recorder, restore function), set before the worker forks
TRACER = None


def _send(fd, obj):
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    data = len(data).to_bytes(8, "little") + data
    while data:
        data = data[os.write(fd, data):]


def _recv(fd):
    """The next object sent on fd, or None at end of file."""
    head = _read_exactly(fd, 8)
    return None if head is None else pickle.loads(_read_exactly(fd, int.from_bytes(head, "little")))


def _read_exactly(fd, n):
    chunks = []
    while n:
        chunk = os.read(fd, n)
        if not chunk:
            return None
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _child(fn, args, path, fds):
    """Body of a per-call child: write fn(*args) to path and exit."""
    code = 0
    try:
        for fd in fds:
            os.close(fd)
        data = pickle.dumps(fn(*args), protocol=pickle.HIGHEST_PROTOCOL)
        with open(path, "wb") as fh:
            fh.write(data)
    except BaseException:
        traceback.print_exc()
        sys.stderr.flush()
        code = 70
    finally:
        os._exit(code)


def _probe_in_child(fds):
    """speed_probe() run in a freshly forked child."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 0
        try:
            for fd in (r, *fds):
                os.close(fd)
            os.write(w, struct.pack("d", speed_probe()))
        except BaseException:
            traceback.print_exc()
            sys.stderr.flush()
            code = 70
        finally:
            os._exit(code)
    os.close(w)
    data = _read_exactly(r, 8)
    os.close(r)
    _, status = os.waitpid(pid, 0)
    if data is None or status != 0:
        raise ChildFailed(f"speed probe exited with status {status}")
    return struct.unpack("d", data)[0]


def _serve(requests, replies):
    """The worker's loop: one forked child per request, until end of file."""
    while (msg := _recv(requests)) is not None:
        fn, args, path, timeout = msg
        probe = _probe_in_child((requests, replies))
        r, w = os.pipe()  # the child holds w open until it exits
        t0 = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            _child(fn, args, path, (r, requests, replies))
        os.close(w)
        exited = bool(select.select([r], [], [], timeout)[0])
        if not exited:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
        os.close(r)
        probe += _probe_in_child((requests, replies))
        error = None if status == 0 else (
            f"killed after {timeout} s" if not exited else f"child exited with status {status}")
        _send(replies, {"error": error, "wall_s": wall, "probe_s": probe, "rss_kb": usage.ru_maxrss})


class Worker:
    """A forked process that runs each call in a fresh child of its own."""

    def __init__(self):
        req_r, self.requests = os.pipe()
        self.replies, rep_w = os.pipe()
        sys.stdout.flush()
        sys.stderr.flush()
        self.pid = os.fork()
        if self.pid == 0:
            code = 0
            try:
                os.close(self.requests)
                os.close(self.replies)
                _serve(req_r, rep_w)
            except BaseException:
                traceback.print_exc()
                code = 70
            finally:
                os._exit(code)
        os.close(req_r)
        os.close(rep_w)

    def call(self, fn, args, path, timeout=OP_TIMEOUT_S):
        """(fn(*args) or None if the child failed, how the child ran)."""
        _send(self.requests, (fn, args, path, timeout))
        meta = _recv(self.replies)
        if meta is None:
            raise ChildFailed("the worker process ended")
        if meta["error"] is not None:
            return None, meta
        with open(path, "rb") as fh:
            # only this benchmark's own children write these files
            value = pickle.load(fh)
        os.remove(path)
        return value, meta

    def close(self):
        os.close(self.requests)
        os.close(self.replies)
        os.waitpid(self.pid, 0)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _op_child(op, out_path, traced):
    """Body of one op's child: time the op and report how it went."""
    from leelat.errors import LatticeError

    rec, restore = TRACER if TRACER else (None, None)
    if restore is not None and not traced:
        restore()
    run = rec.wrap(workloads.execute, 0) if traced else workloads.execute
    out = None
    if op["kind"] == "cli":
        out = sys.stdout = open(out_path, "w", encoding="utf-8")
    error = None
    t0 = time.perf_counter()
    try:
        result = run(op)
        sys.stdout.flush()
    except LatticeError as e:
        result, error = None, f"{type(e).__name__}: {e}"
    except Exception:
        result, error = None, traceback.format_exc(limit=4)
    op_s = time.perf_counter() - t0
    if out is not None:
        out.close()
        sys.stdout = sys.__stdout__
        if error is None and result != 0:
            error = f"exit code {result}"
        result = None
    return {"op_s": op_s, "error": error, "result": result, "spans": rec.payload() if traced else None}


def run_op(op, k, traced, worker, work) -> dict:
    out_path = os.path.join(work, f"out{k}.txt")
    mat_path = os.path.join(work, f"mat{k}.txt")
    if op["kind"] == "cli":
        op = dict(op, argv=[mat_path if a is None else a for a in op["argv"]])
    payload, meta = worker.call(_op_child, (op, out_path, traced), os.path.join(work, f"res{k}.pkl"))
    if payload is None:
        payload = {"op_s": meta["wall_s"], "error": meta["error"], "result": None, "spans": None}
    return dict(payload, op=op, k=k, traced=traced, wall_s=meta["wall_s"], rss_kb=meta["rss_kb"],
                speed=2 * PROBE_REF_S / meta["probe_s"], out=out_path, mat=mat_path)


def output_of(run):
    op = run["op"]
    if op["kind"] == "lib":
        return run["result"]
    with open(run["out"], encoding="utf-8") as fh:
        text = fh.read()
    if op["check"] == "construct":
        with open(run["mat"], encoding="utf-8") as fh:
            return text, fh.read()
    return text


# --- phases ------------------------------------------------------------------


def prepare(workload, seed, work, worker):
    os.makedirs(work, exist_ok=True)
    ops, meta = worker.call(workloads.prepare, (workloads.pool(workload, work), seed), os.path.join(work, "ops.pkl"))
    if ops is None:
        raise ChildFailed(f"writing the inputs of {workload} failed: {meta['error']}")
    return ops


def setup_times(n):
    """(raw, speed-normalised) seconds of n fresh interpreters importing leelat.cli."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import leelat.cli"
    raw, scaled = [], []
    for _ in range(n):
        probe = speed_probe()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, stdin=subprocess.DEVNULL)
        t = time.perf_counter() - t0
        probe += speed_probe()
        raw.append(t)
        scaled.append(t * 2 * PROBE_REF_S / probe)
    return raw, scaled


def timed_loop(ops, seed, seconds, traced_too, worker, work):
    """Whole rounds, each a seeded shuffle of the pool, until ``seconds``
    have passed; returns (runs, rounds, wall seconds)."""
    rng = random.Random(f"order:{seed}")
    runs = []
    rounds = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        order = list(ops)
        rng.shuffle(order)
        for op in order:
            for traced in (False, True) if traced_too else (False,):
                if time.perf_counter() - start > HARD_STOP_FACTOR * seconds:
                    return runs, rounds, time.perf_counter() - start
                runs.append(run_op(op, len(runs), traced, worker, work))
        rounds += 1
    return runs, rounds, time.perf_counter() - start


def check_runs(workload, seed, runs, checker):
    for run in runs:
        if run["error"] is not None:
            continue
        try:
            checker.check(run["op"], output_of(run))
        except Exception as e:  # a malformed output is as wrong as a mismatch
            raise RunAborted(
                f"wrong output: workload {workload} seed {seed} op #{run['k']} "
                f"({run['op']['id']}): {type(e).__name__}: {e}"
            ) from e


def p90(values):
    """Nearest-rank 90th percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = math.ceil(0.9 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def succeeded(runs):
    """The runs whose op completed; a failed op's time says nothing about
    the work it was asked to do."""
    ok = [r for r in runs if r["error"] is None]
    if not ok:
        raise RunAborted("no op completed")
    return ok


def end_to_end(runs, setup):
    """Speed-normalised metrics, and the time metrics unnormalised.  Op
    times come from completed ops only; ``ops_per_s`` counts completed ops
    over the time of all ops, failed ones included."""
    ok = succeeded(runs)
    values, raw = {}, {}
    for out, time_of, wall_of, setup_s in (
        (values, lambda r: r["op_s"] * r["speed"], lambda r: r["wall_s"] * r["speed"], setup[1]),
        (raw, lambda r: r["op_s"], lambda r: r["wall_s"], setup[0]),
    ):
        times = [time_of(r) for r in ok]
        out["setup_s"] = statistics.median(setup_s)
        out["op_s_p50"] = statistics.median(times)
        out["op_s_p90"] = p90(times)[0]
        out["ops_per_s"] = len(ok) / sum(wall_of(r) for r in runs)
    values["peak_rss_mb"] = max(r["rss_kb"] for r in runs) / 1024
    samples = {"setup_s": len(setup[1]), "op_s_p50": len(ok), "op_s_p90": len(ok),
               "op_s_p90_beyond": p90(times)[1]}
    return {name: (values[name], unit) for name, unit, _ in E2E_METRICS}, samples, raw


def per_layer(runs, names):
    """Per-op layer metrics and tracing overhead, from completed ops only."""
    traced = succeeded([r for r in runs if r["traced"]])
    plain = succeeded([r for r in runs if not r["traced"]])
    profile = spans.Profile(names)
    for r in traced:
        profile.add(r["spans"], r["speed"])
    metrics = {}
    for func, stat, unit, _ in LAYER_METRICS:
        if stat == "useful_ratio":
            scanned = profile.counter(func, "points")
            value = profile.counter(func, "filled") / scanned if scanned else 0.0
        else:
            value = profile.stat(func, stat)
        metrics[f"{func}.{stat}"] = (value, unit)
    values = {
        "trace.op_s_mean": statistics.fmean(r["op_s"] * r["speed"] for r in traced),
        "trace.untraced_op_s_mean": statistics.fmean(r["op_s"] * r["speed"] for r in plain),
        "trace.ops_per_s": len(traced) / sum(r["wall_s"] * r["speed"] for r in traced),
        "trace.untraced_ops_per_s": len(plain) / sum(r["wall_s"] * r["speed"] for r in plain),
    }
    values["trace.overhead"] = values["trace.untraced_ops_per_s"] / values["trace.ops_per_s"]
    metrics.update((name, (values[name], unit)) for name, unit, _ in TRACE_METRICS)
    return metrics, profile


def write_spans(workload, runs, names):
    """All spans of the traced run, one JSON line per op, written once."""
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{workload}.jsonl.gz")
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write(json.dumps({"names": names, "time": "perf_counter seconds"}) + "\n")
        for r in runs:
            s = r["spans"]
            if s is None:
                continue
            fh.write(json.dumps({
                "op": r["k"], "id": r["op"]["id"],
                "name": array("i", s["name"]).tolist(), "parent": array("i", s["parent"]).tolist(),
                "start": array("d", s["start"]).tolist(), "end": array("d", s["end"]).tolist(),
                "counts": {str(i): c for i, c in s["counts"].items()},
            }) + "\n")
    return path


def stamp(args, loadavg_start, samples, extra):
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_sha": _git_sha(), "src_sha256": _src_digest(),
        "python": sys.version.split()[0], "nproc": os.cpu_count(), "cpu": sorted(os.sched_getaffinity(0)),
        "loadavg_start": loadavg_start, "loadavg_end": _loadavg(),
        "samples": samples, **extra,
    }


def _loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def _git_sha():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="ascii") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "leelat")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


# --- modes -------------------------------------------------------------------


def measure(args, worker, names):
    loadavg_start = _loadavg()
    work = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        ops = prepare(args.workload, args.seed, work, worker)
        setup = setup_times(SETUP_SPAWNS) if not args.trace else None
        runs, rounds, wall = timed_loop(ops, args.seed, args.seconds, bool(args.trace), worker, work)
        failed = sum(r["error"] is not None for r in runs)
        for r in runs:
            if r["error"] is not None:
                print(f"op #{r['k']} ({r['op']['id']}) failed: {r['error']}", file=sys.stderr)
        correct = True
        try:
            check_runs(args.workload, args.seed, runs, checks.Checker(args.workload, checks.load_expected()))
        except RunAborted as e:
            print(e, file=sys.stderr)
            correct = False
    finally:
        shutil.rmtree(work, ignore_errors=True)

    extra = {"rounds": rounds, "ops": len(runs), "wall_s": wall, "failed_frac": failed / len(runs),
             "speed_median": statistics.median(r["speed"] for r in runs)}
    plain = [r for r in runs if not r["traced"]]
    if args.workload == "transform-stream":
        points = sum(r["op"]["size"] for r in plain if r["error"] is None)
        extra["points_per_s"] = points / sum(r["wall_s"] * r["speed"] for r in plain)
    print(f"workload {args.workload} seed {args.seed}: {len(runs)} ops in {rounds} rounds "
          f"({wall:.1f} s), {failed} failed")
    if args.trace:
        metrics, profile = per_layer(runs, names)
        samples = {"traced_ops": profile.ops, "untraced_ops": len(plain)}
        extra["spans_file"] = os.path.relpath(write_spans(args.workload, runs, names), ROOT)
        print("largest self time per op (traced):")
        for name, self_s, calls in profile.top():
            print(f"  {name:40s} {self_s:10.6f} s {calls:12.1f} calls")
    else:
        metrics, samples, extra["raw"] = end_to_end(plain, setup)
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6f} {unit}")
    if "points_per_s" in extra:
        print(f"  {'points_per_s':44s} {extra['points_per_s']:14.1f} 1/s")
    print(json.dumps({"stamp": stamp(args, loadavg_start, samples, extra)}))
    print(json.dumps({
        "correct": correct, "attempted": len(runs), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def smoke(seed, root, worker):
    """Run the smoke ops of every workload with inputs and outputs under
    ``root``, check them, and return their runs."""
    expected = checks.load_expected()
    all_runs = {}
    for workload in workloads.WORKLOADS:
        work = os.path.join(root, workload)
        ops = [op for op in prepare(workload, seed, work, worker) if op["id"] in SMOKE[workload]]
        runs = [run_op(op, k, False, worker, work) for k, op in enumerate(ops)]
        bad = [r for r in runs if r["error"] is not None]
        if bad:
            raise RunAborted(f"smoke op {bad[0]['op']['id']} failed: {bad[0]['error']}")
        check_runs(workload, seed, runs, checks.Checker(workload, expected))
        all_runs[workload] = [dict(r, output=output_of(r)) for r in runs]
        print(f"smoke {workload}: {len(runs)} ops checked")
    return all_runs


def declared_metrics_match() -> bool:
    """Does BENCHMARK.json list exactly the metrics this file reports?"""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"] + bench["per_layer"]]
    reported = list(E2E_METRICS) + [(f"{f}.{s}", u, b) for f, s, u, b in LAYER_METRICS] + list(TRACE_METRICS)
    return sorted(declared) == sorted(reported)


def self_test(seed, root, worker):
    """Each check must reject a tampered copy of an output that passed it."""
    runs = smoke(seed, root, worker)
    expected = checks.load_expected()

    def first(workload, oid):
        return next(r for r in runs[workload] if r["op"]["id"] == oid)

    def analyze_off_by_one(text):
        doc = json.loads(text)
        doc["min_distance"] += 1
        return json.dumps(doc, indent=2)

    def disc_coordinate(text):
        lines = text.splitlines()
        head = lines[0].split()
        head[3] = str(int(head[3]) + 1)
        return "\n".join([" ".join(head)] + lines[1:]) + "\n"

    def density_row(text):
        return text.replace("5,gn_scaled(5),4,5/256*d^5", "5,gn_scaled(5),4,5/255*d^5")

    cases = (
        ("analyze", "gn10", "min_distance off by one", analyze_off_by_one),
        ("transform-stream", "d4_disc_300", "one coordinate of a disc image changed", disc_coordinate),
        ("construct-density", "density12", "one altered density row", density_row),
        ("cover-sweep", "covering_minkowski3_24", "covering radius off by one",
         lambda result: dict(result, rho=result["rho"] + 1)),
    )
    all_caught = True
    for workload, oid, label, tamper in cases:
        run = first(workload, oid)
        bad = tamper(run["output"])
        if bad == run["output"]:
            raise RunAborted(f"tampering '{label}' left the output unchanged")
        try:
            checks.Checker(workload, expected).check(run["op"], bad)
            caught = False
        except checks.CheckFailure as e:
            caught = True
            label += f" -> rejected: {e}"
        all_caught &= caught
        print(f"self-test {workload}: {label}" + ("" if caught else " -> NOT REJECTED"))
    declared = declared_metrics_match()
    print("self-test BENCHMARK.json lists the reported metrics: " + ("yes" if declared else "NO"))
    return 0 if all_caught and declared else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--smoke", action="store_true", help="a handful of ops per workload, all checks on")
    mode.add_argument("--self-test", action="store_true", help="smoke run, then tampered outputs must fail")
    args = parser.parse_args(argv)
    if not (args.smoke or args.self_test or args.workload):
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(SRC, "leelat", "cli.py")):
        print(f"error: no leelat source under {SRC}", file=sys.stderr)
        return 2
    global TRACER
    pin_to_one_cpu()
    sys.path.insert(0, SRC)
    import leelat.cli  # noqa: F401  (the worker's children start from this imported state)

    names = None
    if args.trace and not (args.smoke or args.self_test):
        rec = spans.Recorder()
        TRACER = (rec, spans.install(rec))
        names = rec.names
    root = os.path.join(OUT, f"smoke-{os.getpid()}")
    try:
        with Worker() as worker:
            if args.smoke:
                smoke(args.seed, root, worker)
                return 0
            if args.self_test:
                return self_test(args.seed, root, worker)
            return measure(args, worker, names)
    except (RunAborted, ChildFailed) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
