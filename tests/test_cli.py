import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
from itertools import chain, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leelat import analyzer, cli, constructions, intlat, xform
from leelat.errors import BoundViolationError, CapExceededError, IntegralityError

from helpers import reference_parser


def identity_text(n):
    return f"{n} {n}\n" + "".join(
        " ".join("1" if i == j else "0" for j in range(n)) + "\n" for i in range(n))


def run_cli(args, stdin=None, monkeypatch=None):
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    return cli.run(args)


#: matrix files the family documents below read, by name
FAMILY_INPUTS = {
    "gn3": ["gn", "--n", "3"],
    "n2perfect2": ["n2perfect", "--d", "2"],
    "minkowski6": ["minkowski3", "--d", "6"],
}

FAMILY_DOCS = [
    (["hadamard", "--order", "12"], {
        "family": "hadamard", "n": 12, "volume": 2985984, "period": [12] * 12, "q": 12,
        "min_distance_nominal": 12, "density": "12/1925", "density_decimal": "0.006234",
        "volume_formula": "12^6",
    }),
    # a power of two takes the Sylvester branch; 12 takes Paley's
    (["hadamard", "--order", "16"], {
        "family": "hadamard", "n": 16, "volume": 4294967296, "period": [16] * 16, "q": 16,
        "min_distance_nominal": 16, "density": "131072/638512875", "density_decimal": "0.000205",
        "volume_formula": "16^8",
    }),
    (["gij", "--i", "3", "--j", "2"], {
        "family": "gij", "n": 8, "volume": 32, "period": [4] * 8, "q": 4,
        "min_distance_nominal": 4, "density": "16/315", "density_decimal": "0.050794",
        "volume_formula": "32",
    }),
    (["minkowski3", "--d", "6"], {
        "family": "minkowski3", "n": 3, "volume": 38, "period": [38, 38, 38], "q": 38,
        "min_distance_nominal": 6, "density": "18/19", "density_decimal": "0.947368",
        "volume_formula": "19/108*d^3",
    }),
    (["dim4", "--d", "6"], {
        "family": "dim4", "n": 4, "volume": 74, "period": [74, 74, 74, 74], "q": 74,
        "reconciliation": {
            "family": "dim4", "d_parameter": 6, "n": 4,
            "oracle": {"min_distance": 6, "volume": 74, "q": 74, "density": "27/37",
                       "density_decimal": "0.729730"},
            "advertised": {"volume_formula": "13/216*d^4", "volume": "78", "density": "9/13",
                           "q_formula": "37/3*d", "q": "74"},
            "discrepancy": {
                "volume_matches": False, "density_matches": False, "q_matches": True,
                "note": "the printed generator has |det| = 37/648*d^4, so the advertised "
                "volume 13/216*d^4 and density 9/13 are not reproducible from it; oracle "
                "values are reported instead",
            },
        },
    }),
    (["n2perfect", "--d", "4"], {
        "family": "n2perfect", "n": 2, "volume": 8, "period": [4, 4], "q": 4,
        "min_distance_nominal": 4, "density": "1/1", "density_decimal": "1.000000",
        "volume_formula": "1/2*d^2",
    }),
    (["gn", "--n", "6"], {
        "family": "gn", "n": 6, "volume": 24, "period": [8, 24, 24, 8, 24, 24], "q": 24,
        "min_distance_nominal": 4, "density": "32/135", "density_decimal": "0.237037",
        "volume_formula": "24",
    }),
    (["double", "--input", "gn3"], {
        "family": "double", "n": 6, "volume": 24, "period": [4, 12, 12, 4, 12, 12], "q": 12,
        "min_distance_nominal": 4, "density": "32/135", "density_decimal": "0.237037",
    }),
    (["scaled", "--n", "3", "--d", "8"], {
        "family": "scaled", "n": 3, "volume": 96, "period": [8, 24, 24], "q": 24,
        "min_distance_nominal": 8, "density": "8/9", "density_decimal": "0.888889",
        "volume_formula": "12*(d/4)^3",
    }),
    (["gw", "--n", "3"], {
        "family": "gw", "n": 3, "volume": 7, "period": [7, 7, 7], "q": 7,
        "min_distance_nominal": 3, "density": "9/14", "density_decimal": "0.642857",
        "volume_formula": "7",
    }),
    (["kronecker", "--a", "n2perfect2", "--b", "minkowski6"], {
        "family": "kronecker", "n": 6, "volume": 11552, "period": [76] * 6, "q": 76,
    }),
    (["puncture", "--input", "gn3"], {
        "family": "puncture", "n": 2, "volume": 12, "period": [12, 12], "q": 12,
    }),
]

#: one id per family; a repeated family adds its parameter values
FAMILY_IDS = []
for argv, _ in FAMILY_DOCS:
    FAMILY_IDS.append("-".join(argv[::2]) if argv[0] in FAMILY_IDS else argv[0])


#: a value of each int construct flag that every family reading it accepts
CONSTRUCT_VALUES = {"order": 4, "i": 3, "j": 2, "d": 6, "n": 3}

#: every (family, flag) pair that the family's FAMILIES row does not name
UNREAD_FLAGS = [(fam, flag) for fam, (flags, *_) in cli.FAMILIES.items()
                for flag in cli.CONSTRUCT_FLAGS if flag not in flags]


class TestConstruct:
    def test_gn6_writes_example_matrix(self, tmp_path, capsys):
        out = tmp_path / "g6.txt"
        assert run_cli(["construct", "gn", "--n", "6", "--out", str(out)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 6 and doc["volume"] == 24 and doc["q"] == 24
        assert doc["min_distance_nominal"] == 4
        body = out.read_text().splitlines()
        assert body[0] == "6 6"
        assert body[1] == "1 0 0 0 0 3"
        assert body[-1] == "0 0 0 0 0 24"

    @pytest.mark.parametrize("argv", [["dim4", "--d", "6"], ["gn", "--n", "6"]], ids=["dim4", "gn"])
    def test_no_parameter_document_without_out(self, argv, tmp_path, capsys, monkeypatch):
        out = tmp_path / "m.txt"
        assert run_cli(["construct", *argv, "--out", str(out)]) == 0
        capsys.readouterr()

        def unused(*args):
            raise AssertionError("the parameter document is built without --out")

        monkeypatch.setattr(intlat, "period", unused)
        monkeypatch.setattr(constructions, "dim4_reconciliation", unused)
        assert run_cli(["construct", *argv]) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_unwritable_out_exits_3(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "g.txt"
        assert run_cli(["construct", "gn", "--n", "6", "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
        assert not (tmp_path / "no").exists()

    @pytest.mark.parametrize("out", [["--out", "-"], ["--out=-"]], ids=["plain", "argparse"])
    def test_out_dash_exits_2(self, out, tmp_path, capsys, monkeypatch):
        """"-" means stdin to every reader, so ``--out -`` is refused before
        anything is built or written, on the plain-argv path and the
        argparse path alike."""
        argv = ["construct", "gn", "--n", "3", *out]
        assert (cli._plain_args(argv) is None) == (out == ["--out=-"])
        monkeypatch.chdir(tmp_path)
        assert run_cli(argv) == 2
        assert capsys.readouterr() == (
            "", "error: --out - names no file; leave --out out to print the matrix on stdout\n")
        assert os.listdir(tmp_path) == []

    def test_gij_parameters(self, tmp_path, capsys):
        out = tmp_path / "g32.txt"
        assert run_cli(["construct", "gij", "--i", "3", "--j", "2", "--out", str(out)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 8 and doc["volume"] == 32 and doc["q"] == 4
        assert doc["min_distance_nominal"] == 4

    def test_minkowski_bad_d_exits_2(self, capsys):
        assert run_cli(["construct", "minkowski3", "--d", "4"]) == 2
        assert "multiple of 6" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "family,flag",
        [(fam, flag) for fam, (flags, *_) in cli.FAMILIES.items() for flag in flags],
    )
    def test_missing_param_exits_2(self, family, flag, tmp_path, capsys):
        matrix = tmp_path / "gn3.txt"
        matrix.write_text("3 3\n1 0 3\n0 1 5\n0 0 12\n")
        given = {"order": 4, "i": 3, "j": 2, "d": 8, "n": 3, "input": matrix, "a": matrix, "b": matrix}
        argv = ["construct", family]
        for other in cli.FAMILIES[family][0]:
            if other != flag:
                argv += [f"--{other}", str(given[other])]
        assert run_cli(argv) == 2
        assert capsys.readouterr().err == f"error: family {family} requires --{flag}\n"

    @pytest.mark.parametrize("family,flag", UNREAD_FLAGS)
    def test_unread_flag_exits_2(self, family, flag, tmp_path, capsys):
        """Each family/flag pair outside the family's row, after the row's
        own flags: exit 2, one line, nothing on stdout."""
        matrix = tmp_path / "gn3.txt"
        matrix.write_text("3 3\n1 0 3\n0 1 5\n0 0 12\n")
        argv = ["construct", family]
        for name in cli.FAMILIES[family][0] + (flag,):
            argv += [f"--{name}", str(CONSTRUCT_VALUES.get(name, matrix))]
        assert run_cli(argv) == 2
        assert capsys.readouterr() == ("", f"error: family {family} does not read --{flag}\n")

    @pytest.mark.parametrize("argv, message", [
        # argparse's path: "--n=3" is not a plain pair
        (["gn", "--n=3", "--d", "4"], "family gn does not read --d"),
        # the file of an unread flag is never opened, so this is no exit-3 read fault
        (["gn", "--n", "3", "--input", "/nonexistent"], "family gn does not read --input"),
        # a missing flag is named first
        (["scaled", "--n", "3", "--i", "2"], "family scaled requires --d"),
    ], ids=["argparse", "unread-file", "requires-first"])
    def test_unread_flag_cases(self, argv, message, capsys, monkeypatch):
        read = []
        monkeypatch.setattr(cli, "_read_text", read.append)
        assert run_cli(["construct", *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n") and read == []

    def test_bad_hadamard_order_names_flag(self, capsys):
        for order in ("6", "0", "-4"):
            assert run_cli(["construct", "hadamard", "--order", order]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: --order {order} is not a Hadamard order")
            assert "q must" not in err and err.count("\n") == 1
            assert "one of 1, 2, 4, 8, 12, 16, 20, 24, 32, 44, 48, " in err
            assert err.endswith(", 240, 252, 256\n")

    def test_matrix_to_stdout_without_out(self, capsys):
        assert run_cli(["construct", "gn", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "3 3"

    def test_dim4_reconciliation_attached(self, tmp_path, capsys):
        out = tmp_path / "d4.txt"
        assert run_cli(["construct", "dim4", "--d", "6", "--out", str(out)]) == 0
        doc = json.loads(capsys.readouterr().out)
        rec = doc["reconciliation"]
        assert rec["oracle"]["volume"] == 74
        assert rec["advertised"]["volume"] == "78"
        assert rec["discrepancy"]["volume_matches"] is False
        assert rec["discrepancy"]["note"]

    def test_dim4_above_default_weight_cap(self, tmp_path, capsys):
        out = tmp_path / "d4.txt"
        assert run_cli(["construct", "dim4", "--d", "66", "--out", str(out)]) == 0
        rec = json.loads(capsys.readouterr().out)["reconciliation"]
        assert rec["oracle"]["min_distance"] == 66
        assert analyzer.min_distance(constructions.dim4(66), cap=66) == 66
        assert out.read_text().startswith("# scale 11/1\n4 4\n")
        assert run_cli(["construct", "dim4", "--d", "66"]) == 0
        assert capsys.readouterr().out == out.read_text()

    @pytest.mark.parametrize(
        "argv",
        [
            ["hadamard", "--order", "257"],
            ["gij", "--i", "9", "--j", "2"],
            ["gn", "--n", "257"],
            ["gw", "--n", "257"],
            ["scaled", "--n", "257", "--d", "4"],
            ["gij", "--i", "3", "--j", "9"],
            ["gij", "--i", "1000000000", "--j", "2"],  # refused without building 2^i
        ],
    )
    def test_length_ceiling_exits_2(self, argv, tmp_path, capsys):
        assert cli.MAX_LENGTH == 256
        out = tmp_path / "code.txt"
        assert run_cli(["construct", *argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert "ceiling" in captured.err and len(captured.err.splitlines()) == 1

    def test_negative_gij_index_exits_2(self, capsys):
        assert run_cli(["construct", "gij", "--i", "-1", "--j", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: gij: ") and len(err.splitlines()) == 1

    def test_kronecker_length_ceiling_exits_2(self, tmp_path, capsys):
        f = tmp_path / "g17.txt"
        assert run_cli(["construct", "gn", "--n", "17", "--out", str(f)]) == 0
        capsys.readouterr()
        assert run_cli(["construct", "kronecker", "--a", str(f), "--b", str(f)]) == 2
        assert "ceiling" in capsys.readouterr().err

    def test_matrix_inputs_held_to_ceiling(self, tmp_path, capsys):
        f = tmp_path / "wide.txt"
        f.write_text(identity_text(1200))
        for argv in (["double", "--input", f], ["puncture", "--input", f],
                     ["kronecker", "--a", f, "--b", f]):
            assert run_cli(["construct", *map(str, argv)]) in (2, 3)
            out = capsys.readouterr()
            assert out.out == "" and len(out.err.splitlines()) == 1
        f.write_text(identity_text(129))  # doubles past the ceiling
        assert run_cli(["construct", "double", "--input", str(f)]) == 2
        assert "ceiling" in capsys.readouterr().err
        f.write_text(identity_text(cli.MAX_LENGTH + 1))  # punctures onto it
        assert run_cli(["construct", "puncture", "--input", str(f), "--out", str(tmp_path / "p")]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == cli.MAX_LENGTH

    @pytest.mark.parametrize("k", [112, 128])
    def test_double_of_gn_past_the_tree_budget(self, k, tmp_path, capsys, monkeypatch):
        # construct gn --n k | construct double: d = 4 of the input from the coset sweep
        assert run_cli(["construct", "gn", "--n", str(k)]) == 0
        text = capsys.readouterr().out
        out = tmp_path / "d.txt"
        assert run_cli(["construct", "double", "--input", "-", "--out", str(out)], stdin=text,
                       monkeypatch=monkeypatch) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 2 * k

    def test_double_budget_exhaustion_exits_4(self, tmp_path, capsys, monkeypatch):
        # Paley 12 has 12^6 > 10^6 cosets, so the distance tree checks its d
        f = tmp_path / "h12.txt"
        assert run_cli(["construct", "hadamard", "--order", "12", "--out", str(f)]) == 0
        capsys.readouterr()
        monkeypatch.setattr(analyzer, "DEFAULT_POINT_BUDGET", 100)
        assert run_cli(["construct", "double", "--input", str(f)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("inconclusive: search budget exhausted") and len(err.splitlines()) == 1

    def test_hadamard_order_12(self, tmp_path, capsys):
        out = tmp_path / "h12.txt"
        assert run_cli(["construct", "hadamard", "--order", "12", "--out", str(out)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["volume"] == 12**6
        assert doc["q"] == 12

    def test_kronecker(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        run_cli(["construct", "n2perfect", "--d", "2", "--out", str(a)])
        run_cli(["construct", "minkowski3", "--d", "6", "--out", str(b)])
        capsys.readouterr()
        out = tmp_path / "k.txt"
        assert run_cli(["construct", "kronecker", "--a", str(a), "--b", str(b), "--out", str(out)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 6 and doc["volume"] == 2**3 * 38**2

    def test_scaled_lattice_file_round_trip(self, tmp_path, capsys):
        # minkowski3 at d = 12 carries a "# scale 2/1" header end to end
        f = tmp_path / "mink12.txt"
        assert run_cli(["construct", "minkowski3", "--d", "12", "--out", str(f)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["volume"] == 304
        assert doc["density"] == "18/19"
        assert f.read_text().startswith("# scale 2/1\n")
        assert run_cli(["analyze", str(f)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["min_distance"] == 12
        assert report["volume"] == 304
        assert report["q"] == 76

    def test_double_and_puncture(self, tmp_path, capsys):
        g3 = tmp_path / "g3.txt"
        run_cli(["construct", "gn", "--n", "3", "--out", str(g3)])
        capsys.readouterr()
        doubled = tmp_path / "d.txt"
        assert run_cli(["construct", "double", "--input", str(g3), "--out", str(doubled)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 6 and doc["volume"] == 24
        punct = tmp_path / "p.txt"
        assert run_cli(["construct", "puncture", "--input", str(g3), "--out", str(punct)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 2 and doc["volume"] == 12

    @pytest.mark.parametrize("argv,doc", FAMILY_DOCS, ids=FAMILY_IDS)
    def test_parameter_document(self, argv, doc, tmp_path, capsys):
        # every key of the --out document, in order, for one instance per family
        for name, spec in FAMILY_INPUTS.items():
            assert run_cli(["construct", *spec, "--out", str(tmp_path / name)]) == 0
        capsys.readouterr()
        argv = [str(tmp_path / v) if v in FAMILY_INPUTS else v for v in argv]
        assert run_cli(["construct", *argv, "--out", str(tmp_path / "out.txt")]) == 0
        assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"


class TestAnalyze:
    def test_gn4_certificate(self, tmp_path, capsys):
        f = tmp_path / "gn4.txt"
        run_cli(["construct", "gn", "--n", "4", "--out", str(f)])
        capsys.readouterr()
        assert run_cli(["analyze", str(f)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["certificate"]["kind"] == "diameter_perfect"
        assert doc["min_distance"] == 4

    def test_gw3_certificate(self, tmp_path, capsys):
        f = tmp_path / "gw3.txt"
        run_cli(["construct", "gw", "--n", "3", "--out", str(f)])
        capsys.readouterr()
        assert run_cli(["analyze", str(f)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["certificate"]["kind"] == "perfect"
        assert doc["volume"] == 7

    def test_z2_identity(self, tmp_path, capsys):
        f = tmp_path / "z2.txt"
        f.write_text("2 2\n1 0\n0 1\n")
        assert run_cli(["analyze", str(f)]) == 0
        doc = json.loads(capsys.readouterr().out)
        # d = 1 means radius-0 spheres, which trivially tile
        assert doc["min_distance"] == 1
        assert doc["certificate"]["kind"] == "perfect"

    def test_parse_error_exits_3(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("2 2\n1 junk\n0 1\n")
        assert run_cli(["analyze", str(f)]) == 3
        # past the interpreter's int-string digit limit: named as too long
        huge = "7" * 5000
        for text, fault in [
            (f"2 2\n1 {huge}\n0 1\n", "line 2: entry too long (5000 digits"),
            (f"# scale 1/{huge}\n2 2\n1 0\n0 1\n", "line 1: scale value too long (5000 digits"),
            # the scale is integer p/q or p: no exponent, so no huge power of ten to build
            ("# scale 1e20000000\n2 2\n1 0\n0 1\n", "line 1: bad scale value\n"),
            ("# scale 1e1000000\n2 2\n1 0\n0 1\n", "line 1: bad scale value\n"),
        ]:
            capsys.readouterr()
            f.write_text(text)
            assert run_cli(["analyze", str(f)]) == 3
            assert f"{f}: {fault}" in capsys.readouterr().err

    def test_missing_file_exits_3(self):
        assert run_cli(["analyze", "/nonexistent/matrix.txt"]) == 3

    def test_inconclusive_exits_4(self, tmp_path, capsys):
        f = tmp_path / "gn4.txt"
        run_cli(["construct", "gn", "--n", "4", "--out", str(f)])
        capsys.readouterr()
        assert run_cli(["analyze", str(f), "--min-dist-cap", "2"]) == 4
        assert "raise the cap" in capsys.readouterr().err

    @pytest.mark.parametrize("k", [128, 256])
    def test_gn_pipeline_certifies_distance_four(self, k, capsys, monkeypatch):
        # construct gn --n k | analyze -: past k = 104 the distance tree runs out of nodes
        assert run_cli(["construct", "gn", "--n", str(k)]) == 0
        text = capsys.readouterr().out
        assert run_cli(["analyze", "-"], stdin=text, monkeypatch=monkeypatch) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["n"], doc["min_distance"], doc["certificate"]["kind"]) == (k, 4, "diameter_perfect")

    def test_distance_above_default_cap_exits_4(self, tmp_path, capsys):
        # 100·Z: volume 100 is within the sweep's range, d = 100 is above the default cap 64
        f = tmp_path / "z100.txt"
        f.write_text("1 1\n100\n")
        assert run_cli(["analyze", str(f)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("inconclusive: ") and "raise the cap" in err and len(err.splitlines()) == 1
        assert run_cli(["analyze", str(f), "--min-dist-cap", "100"]) == 0
        assert json.loads(capsys.readouterr().out)["min_distance"] == 100

    def test_coset_cap_zero_keeps_distance(self, tmp_path, capsys):
        f = tmp_path / "gn16.txt"
        run_cli(["construct", "gn", "--n", "16", "--out", str(f)])
        capsys.readouterr()
        assert run_cli(["analyze", str(f), "--coset-cap", "0"]) == 0
        out = capsys.readouterr().out
        assert '"covering_radius": null' in out
        assert json.loads(out)["min_distance"] == 4

    def test_nonpositive_min_dist_cap_exits_2(self, tmp_path, capsys):
        f = tmp_path / "gn4.txt"
        run_cli(["construct", "gn", "--n", "4", "--out", str(f)])
        capsys.readouterr()
        faults = {"0": "must be at least 1", "-1": "must be at least 1", "abc": "invalid int value"}
        for cap, fault in faults.items():
            assert run_cli(["analyze", str(f), "--min-dist-cap", cap]) == 2
            assert f"argument --min-dist-cap: {fault}" in capsys.readouterr().err

    def test_negative_coset_cap_exits_2(self, tmp_path, capsys):
        f = tmp_path / "gn4.txt"
        run_cli(["construct", "gn", "--n", "4", "--out", str(f)])
        capsys.readouterr()
        assert run_cli(["analyze", str(f), "--coset-cap", "-1"]) == 2
        assert "--coset-cap" in capsys.readouterr().err
        assert run_cli(["analyze", str(f), "--coset-cap", "10000001"]) == 2
        assert "--coset-cap" in capsys.readouterr().err
        assert run_cli(["analyze", str(f), "--coset-cap", "10000000"]) == 0

    def test_fractional_scale_exits_3(self, tmp_path, capsys):
        f = tmp_path / "half.txt"
        f.write_text("# scale 1/2\n2 2\n1 0\n0 2\n")
        assert run_cli(["analyze", str(f)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "integral" in err
        assert len(err.splitlines()) == 1

    def test_dimension_ceiling_exits_3(self, tmp_path, capsys):
        # the ceiling is construct's
        f = tmp_path / "wide.txt"
        f.write_text(identity_text(1200))
        assert run_cli(["analyze", str(f)]) == 3
        assert capsys.readouterr().err == (
            f"error: {f}: line 1: a 1200x1200 matrix is above the dimension ceiling 256\n")
        f.write_text(identity_text(cli.MAX_LENGTH))
        assert run_cli(["analyze", str(f)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["n"], doc["min_distance"], doc["covering_radius"]) == (256, 1, 0)

    def test_hadamard_order_12(self, tmp_path, capsys):
        f = tmp_path / "h12.txt"
        run_cli(["construct", "hadamard", "--order", "12", "--out", str(f)])
        capsys.readouterr()
        assert run_cli(["analyze", str(f)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["min_distance"] == 12
        assert doc["volume"] == 12**6

    def test_stdin_input(self, capsys, monkeypatch):
        assert run_cli(["analyze", "-"], stdin="2 2\n1 1\n1 -1\n", monkeypatch=monkeypatch) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["volume"] == 2

    def test_json_key_order(self, tmp_path, capsys):
        f = tmp_path / "gn2.txt"
        run_cli(["construct", "gn", "--n", "2", "--out", str(f)])
        capsys.readouterr()
        run_cli(["analyze", str(f)])
        payload = capsys.readouterr().out
        doc = json.loads(payload)
        assert list(doc) == [
            "n",
            "min_distance",
            "volume",
            "period",
            "q",
            "density",
            "density_decimal",
            "covering_radius",
            "certificate",
        ]


class TestDensity:
    def test_byte_identical_runs(self, capsys):
        assert run_cli(["density", "--max-n", "10"]) == 0
        first = capsys.readouterr().out
        assert run_cli(["density", "--max-n", "10"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_known_rows(self, capsys):
        run_cli(["density", "--max-n", "7"])
        rows = capsys.readouterr().out.splitlines()
        by_n = {r.split(",")[0]: r for r in rows[1:]}
        assert by_n["3"].split(",")[5] == "18/19"
        assert by_n["5"].split(",")[5] == "32/75"
        assert by_n["6"].endswith("0.359003")

    def test_max_n_validated(self, capsys):
        assert run_cli(["density", "--max-n", "13"]) == 2

    def test_byte_identical_across_processes(self):
        cmd = [sys.executable, "-m", "leelat", "density", "--max-n", "8"]
        a = subprocess.run(cmd, capture_output=True, check=True).stdout
        b = subprocess.run(cmd, capture_output=True, check=True).stdout
        assert a == b and a.startswith(b"n,construction")


#: ways to end the lines of a point stream, each joining a list of lines
#: into text; those that put a line break other than "\n" in each empty
#: line give ``str.splitlines`` one more (blank) line there
LINE_ENDS = {
    "lf": lambda lines: "".join(line + "\n" for line in lines),
    "crlf": lambda lines: "".join(line + "\r\n" for line in lines),
    "form-feed": lambda lines: "".join((line or " \x0c ") + "\n" for line in lines),
    "u2028": lambda lines: "".join((line or "\u2028") + "\n" for line in lines),
}

#: parsing pass sizes: passes of one or two lines, which cut every run of
#: blank lines, and the default
READ_CHARS = (1, cli.READ_CHARS)


class TestTransform:
    def test_disc_worked_example(self, capsys, monkeypatch):
        assert run_cli(
            ["transform", "--d", "2", "--mode", "disc"],
            stdin="1 0 0 0\n",
            monkeypatch=monkeypatch,
        ) == 0
        assert capsys.readouterr().out == "0 1 1 1\n"

    def test_disc_d4_images(self, capsys, monkeypatch):
        """The first two points drawn by random.Random(4), 16 coordinates in
        [-60, 60] each.  Running disc twice gives the input back for any
        choice of minimum-weight leaders; these images pin the
        lexicographically smallest."""
        stream = ("-30 -22 -47 32 -10 1 -41 -49 -52 -58 -9 10 57 -23 42 37\n"
                  "-53 -32 6 8 -14 -25 39 -38 45 -47 -27 -33 60 58 -57 46\n")
        argv = ["transform", "--d", "4", "--mode", "disc"]
        assert run_cli(argv, stdin=stream, monkeypatch=monkeypatch) == 0
        assert capsys.readouterr().out == (
            "-41 -4 -29 38 -47 -45 -46 10 -42 -40 50 -12 64 4 -13 35\n"
            "-17 16 12 27 -50 22 -32 7 -38 17 -81 -69 34 -76 3 17\n")

    def test_blank_lines_are_skipped(self, capsys, monkeypatch):
        stream = "1 0 0 0\n\n   \n0 1 1 1\n"
        argv = ["transform", "--d", "2", "--mode", "disc"]
        assert run_cli(argv, stdin=stream, monkeypatch=monkeypatch) == 0
        assert capsys.readouterr().out == "0 1 1 1\n1 0 0 0\n"

    def test_disc_twice_is_identity(self, capsys, monkeypatch):
        stream = "1 0 0 0\n5 -3 2 7\n0 0 0 0\n-9 4 4 1\n"
        run_cli(["transform", "--d", "2", "--mode", "disc"], stdin=stream, monkeypatch=monkeypatch)
        once = capsys.readouterr().out
        run_cli(["transform", "--d", "2", "--mode", "disc"], stdin=once, monkeypatch=monkeypatch)
        assert capsys.readouterr().out == stream

    def test_cont_on_code_vector(self, capsys, monkeypatch):
        run_cli(["transform", "--d", "2", "--mode", "cont"], stdin="2 0 0 0\n", monkeypatch=monkeypatch)
        assert capsys.readouterr().out == "1 1 1 1\n"

    def test_cont_fractional_output(self, capsys, monkeypatch):
        run_cli(["transform", "--d", "2", "--mode", "cont"], stdin="1 0 0 0\n", monkeypatch=monkeypatch)
        assert capsys.readouterr().out == "1/2 1/2 1/2 1/2\n"

    def test_bad_point_length_exits_3(self, capsys, monkeypatch):
        assert run_cli(
            ["transform", "--d", "2", "--mode", "disc"],
            stdin="1 0 0\n",
            monkeypatch=monkeypatch,
        ) == 3
        capsys.readouterr()
        assert run_cli(
            ["transform", "--d", "2", "--mode", "disc"],
            stdin="1 0 0 " + "9" * 5000 + "\n",
            monkeypatch=monkeypatch,
        ) == 3
        assert capsys.readouterr().err.startswith("error: line 1: coordinate too long (5000 digits")

    @pytest.mark.parametrize("bad, message", [
        ("1 0 0", "expected 4 coordinates, got 3"),
        ("1 0 0 " + "9" * 5000, "coordinate too long (5000 digits"),
    ])
    def test_late_fault_names_its_line(self, bad, message, capsys, monkeypatch):
        """Past the first block and parsing pass, after blank lines that the
        line numbers still count, a fault names the line that splitting the
        whole text once gives it: line 300 with "\\n" or "\\r\\n" ends, later
        when its blank lines hold other line breaks.  Passes of one or two
        lines cut the run of blank lines many times."""
        lines = ["1 0 0 0"] * 200 + [""] * 20 + ["  "] * 5 + ["-3 5 0 7"] * 74 + [bad] + ["0 1 1 1"] * 10
        assert lines[299] == bad
        argv = ["transform", "--d", "2", "--mode", "disc"]
        for ends, read_chars in product(LINE_ENDS, READ_CHARS):
            stdin = LINE_ENDS[ends](lines)
            lineno = stdin.splitlines().index(bad) + 1
            assert (lineno == 300) == (ends in ("lf", "crlf"))
            monkeypatch.setattr(cli, "READ_CHARS", read_chars)
            assert run_cli(argv, stdin=stdin, monkeypatch=monkeypatch) == 3
            out, err = capsys.readouterr()
            assert out == "" and err.startswith(f"error: line {lineno}: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("first, second, message", [
        ("1 0 0", "1 x 0 0", "expected 4 coordinates, got 3"),
        ("1 x 0 0", "1 0 0", "non-integer coordinate"),
    ])
    def test_first_bad_line_of_a_pass_wins(self, first, second, message, capsys, monkeypatch):
        """Two bad lines of different kinds in one parsing pass: the earlier
        is reported, whichever check it fails."""
        lines = ["+1 0 0 -0"] * 70 + [first] + ["01 0 0 0"] * 3 + [second]
        argv = ["transform", "--d", "2", "--mode", "disc"]
        assert run_cli(argv, stdin="\n".join(lines) + "\n", monkeypatch=monkeypatch) == 3
        assert capsys.readouterr() == ("", f"error: line 71: {message}\n")

    @pytest.mark.parametrize("stream, message", [
        ("1 0 0 0\n\n1 x 0 0\n", "non-integer coordinate"),
        ("1 0 0 0\n\n1 0 0\n", "expected 4 coordinates, got 3"),
    ])
    def test_blank_line_in_the_faulting_pass(self, stream, message, capsys, monkeypatch):
        """A blank line in the pass that faults is skipped, not reported,
        and still counts toward the bad line's number."""
        argv = ["transform", "--d", "2", "--mode", "disc"]
        assert run_cli(argv, stdin=stream, monkeypatch=monkeypatch) == 3
        assert capsys.readouterr() == ("", f"error: line 3: {message}\n")

    @pytest.mark.parametrize("fault", ["non-member", "shared syndrome"])
    def test_failed_self_check_is_an_internal_error(self, fault, capsys, monkeypatch):
        """The kernel code's membership check and the coset index's
        one-syndrome-per-leader check, each made to fail: exit 1 and one
        "internal error:" line."""
        if fault == "non-member":  # every generator row off the kernel by one
            columns = xform.hadamard_columns
            monkeypatch.setattr(xform, "hadamard_columns",
                                lambda h, cols: [[v + 1 for v in col] for col in columns(h, cols)])
            message = "kernel construction produced a non-member"
        else:  # the second leader replaced by the first
            def coset_table(lat, table=analyzer.coset_table):
                t = table(lat)
                return t._replace(leaders=[t.leaders[0], t.leaders[0], *t.leaders[2:]])

            monkeypatch.setattr(analyzer, "coset_table", coset_table)
            message = "two coset leaders share a syndrome"
        argv = ["transform", "--d", "2", "--mode", "disc"]
        assert run_cli(argv, stdin="1 0 0 0\n", monkeypatch=monkeypatch) == 1
        assert capsys.readouterr() == ("", f"internal error: {message}\n")

    def test_late_format_fault_beats_early_long_image(self, capsys, monkeypatch):
        """Nothing is printed before the last line has parsed.  An over-long
        image in the first, second or fourth block of 256 points gives the
        one ``image coordinate too long`` line when the rest is clean, and
        a bad line 1400 still wins over it."""
        long = " ".join(["9" * 4300] * 16)
        for mode, at in product(("disc", "cont"), (0, 300, 1000)):
            argv = ["transform", "--d", "4", "--mode", mode]

            def fault(lines):
                assert run_cli(argv, stdin="\n".join(lines) + "\n", monkeypatch=monkeypatch) == 3
                out, err = capsys.readouterr()
                assert out == "" and err.count("\n") == 1
                return err

            lines = ["1 " + "0 " * 14 + "-1"] * 1400
            lines[at] = long
            assert fault(lines) == fault([long])
            assert fault([long]).startswith("error: image coordinate too long (4301 digits")
            lines[-1] = "1 2 x"
            assert fault(lines) == "error: line 1400: non-integer coordinate\n"

    def test_output_is_the_same_for_every_block_size(self, capsys, monkeypatch):
        """Blocks of 255, 256 and 257 points print the same bytes, with some
        points past the 64-bit fields, so that blocks change field width.
        Every way of ending the lines, and passes that cut each run of
        blank lines, print what one "\\n"-ended pass over the text prints."""
        rng = random.Random(23)
        pts = [[rng.randint(-60, 60) for _ in range(16)] for _ in range(700)]
        for i in (3, 254, 255, 256, 257, 511, 699):
            pts[i][i % 16] = rng.choice([1 << 59, -(1 << 63), 1 << 64, -(10**30)])
        lines = [" ".join(map(str, p)) for p in pts]
        for i in (0, 255, 256, 600):
            lines[i:i] = [""] * 5
        argv = {mode: ["transform", "--d", "4", "--mode", mode] for mode in ("disc", "cont")}
        monkeypatch.setattr(cli, "READ_CHARS", 10**6)
        expected = {}
        for mode in argv:
            assert run_cli(argv[mode], stdin=LINE_ENDS["lf"](lines), monkeypatch=monkeypatch) == 0
            expected[mode] = capsys.readouterr().out
            assert expected[mode].count("\n") == 700
        for mode, ends, read_chars, block in product(argv, LINE_ENDS, READ_CHARS, (255, 256, 257)):
            monkeypatch.setattr(cli, "READ_CHARS", read_chars)
            monkeypatch.setattr(xform, "BLOCK", block)
            assert run_cli(argv[mode], stdin=LINE_ENDS[ends](lines), monkeypatch=monkeypatch) == 0
            assert capsys.readouterr().out == expected[mode]

    @pytest.mark.parametrize("mode", ["disc", "cont"])
    def test_peak_memory_of_a_long_stream(self, mode, monkeypatch):
        """A 20,000-point d=4 stream is held as its text, one parsing pass
        and the formatted output: the traced peak of a run stays below 3.5
        times the input's length."""
        rng = random.Random(28)
        stdin = "".join(" ".join(str(rng.randint(-60, 60)) for _ in range(16)) + "\n" for _ in range(20000))
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        with open(os.devnull, "w", encoding="utf-8") as sink:
            monkeypatch.setattr("sys.stdout", sink)
            tracemalloc.start()
            try:
                assert cli.run(["transform", "--d", "4", "--mode", mode]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 3.5 * len(stdin)

    def test_file_input(self, tmp_path, capsys):
        f = tmp_path / "pts.txt"
        f.write_text("0 1 1 1\n")
        run_cli(["transform", "--d", "2", "--mode", "disc", "--input", str(f)])
        assert capsys.readouterr().out == "1 0 0 0\n"

    def test_invalid_d_exits_2(self):
        assert run_cli(["transform", "--d", "3", "--mode", "disc"]) == 2

    @pytest.mark.parametrize("error", [BoundViolationError, IntegralityError, CapExceededError])
    def test_internal_error_exits_1(self, error, capsys, monkeypatch):
        """A library error the CLI does not expect is a bug: exit 1 with one
        stderr line, not a traceback."""
        def broken(spec, cols):
            raise error("broken invariant")

        monkeypatch.setattr(xform, "discrete_columns", broken)
        argv = ["transform", "--d", "2", "--mode", "disc"]
        assert run_cli(argv, stdin="1 0 0 0\n", monkeypatch=monkeypatch) == 1
        assert capsys.readouterr() == ("", "internal error: broken invariant\n")

    @pytest.mark.parametrize("source", ["input", "stdin"])
    def test_non_utf8_exits_3(self, source, tmp_path, capsys, monkeypatch):
        data = b"1 0 0 0\n\xff\xfe 1 1 1\n"
        argv = ["transform", "--d", "2", "--mode", "disc"]
        if source == "input":
            f = tmp_path / "pts.txt"
            f.write_bytes(data)
            argv += ["--input", str(f)]
        else:
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        assert run_cli(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "UTF-8" in err and err.count("\n") == 1


def _captured(call):
    """(exit code, stdout, stderr) of call(), an argparse exit included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call()
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


class TestParser:
    def test_unknown_family_exits_2(self):
        assert run_cli(["construct", "nosuch"]) == 2

    def test_unknown_command_exits_2(self):
        assert run_cli(["frobnicate"]) == 2

    @pytest.mark.parametrize("argv", [
        [],
        ["analyze"],
        ["analyze", "{m}", "--coset-cap", "-1"],
        ["transform", "--d", "3", "--mode", "disc"],
        ["construct", "nosuch"],
        ["-h"],
        ["construct", "-h"],
        ["analyze", "--help"],
        ["density", "-h"],
        ["transform", "-h"],
        ["analyze", "{m}", "--min-dist", "3"],
        ["analyze", "{m}", "--coset-cap=5"],
        ["analyze", "{m}", "--coset-cap", "5", "--coset-cap", "0"],
        ["analyze", "-"],
        ["analyze", "--coset-cap", "0", "{m}"],
        ["transform", "--mode", "disc", "--d", "2"],
        ["construct", "gn", "--n", "-3"],
        ["construct", "gn", "--", "--n", "3"],
        ["construct", "gn", "--o", "x"],
    ], ids=repr)
    def test_same_bytes_as_the_reference_parser(self, argv, tmp_path, monkeypatch):
        """stdout, stderr and exit code equal those of the flag-by-flag
        argparse declaration, for help, usage errors, abbreviations,
        ``--flag=value``, repeated flags and "-" as stdin."""
        matrix = tmp_path / "gn4.txt"
        matrix.write_text("4 4\n1 0 0 3\n0 1 0 1\n0 0 1 3\n0 0 0 4\n")
        argv = [a.format(m=matrix) for a in argv]
        monkeypatch.setenv("COLUMNS", "80")
        runs = []
        for reference in (False, True):
            if reference:  # every argv through the hand-written parser
                monkeypatch.setattr(cli, "build_parser", reference_parser)
                monkeypatch.setattr(cli, "_plain_args", lambda argv: None)
            stdin = matrix.read_text() if "analyze" in argv else "1 0 0 0\n"
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
            runs.append(_captured(lambda: cli.run(argv)))
        assert runs[0] == runs[1]

    def test_help_and_usage_exits(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert run_cli(["-h"]) == 0
        assert capsys.readouterr().out.startswith("usage: leelat [-h] {construct,analyze,density,transform}")
        assert run_cli([]) == 2
        assert capsys.readouterr().err.endswith(
            "leelat: error: the following arguments are required: command\n")
        assert run_cli(["transform", "--d", "2"]) == 2
        assert capsys.readouterr().err.endswith(
            "leelat transform: error: the following arguments are required: --mode\n")

    @pytest.mark.parametrize("argv", [
        ["construct", "gn", "--n", "6", "--out", "-"],
        ["construct", "--order", "8", "hadamard"],
        ["construct", "kronecker", "--a", "x.txt", "--b", "-"],
        ["analyze", "m.txt"],
        ["analyze", "-", "--min-dist-cap", "4", "--coset-cap", "0"],
        ["density"],
        ["density", "--max-n", "12"],
        ["transform", "--d", "4", "--mode", "disc", "--input", "p.txt"],
    ], ids=repr)
    def test_plain_argv_skips_argparse(self, argv):
        args = cli._plain_args(argv)
        assert args is not None and vars(args) == vars(reference_parser().parse_args(argv))


#: values that fail some flag's type or choices and pass others'
_VALUES = ["0", "2", "3", "4", "7", "12", "13", "04", " 4", "+2", "x", "", "10000001", "-",
           "m.txt", "nosuch", "cont", "disc"]
#: words a defect inserts: help, "--", negative numbers, a short flag,
#: --flag=value forms, and every subcommand's exact flags
_DASHED = ["--", "-h", "--help", "-1", "-4", "-n", "--d=2", "--coset-cap=5", "--max-n=7", "--mode=disc",
           *sorted({f"--{name}" for *_, flags in cli.COMMANDS.values() for name in flags})]


def _good(keywords):
    """A value that passes the checks of the argument ``keywords`` declare."""
    return st.sampled_from([str(c) for c in keywords.get("choices", ())]
                           or (["2", "4", "7"] if keywords.get("type") else ["m.txt", "-", "7"]))


@st.composite
def _argv(draw):
    """A valid plain argv of one subcommand, its required flags and up to
    three others in random order, then at most one defect: a flag cut to
    its first letter (--o is ambiguous in construct), a value from
    _VALUES, a dropped or repeated flag, a --flag=value pair, a flag
    without its value, or an inserted dashed word."""
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    _, _, positional, flags = cli.COMMANDS[command]
    required = [name for name, keywords in flags.items() if keywords.get("required")]
    names = required + draw(st.lists(st.sampled_from([n for n in flags if n not in required]),
                                     unique=True, max_size=3))
    pieces = [[f"--{name}", draw(_good(flags[name]))] for name in names]
    if positional:
        pieces.append([draw(_good(positional[1]))])
    pieces = draw(st.permutations(pieces))
    defect = draw(st.sampled_from([None, "prefix", "value", "drop", "repeat", "equals", "bare", "insert"]))
    pairs = [p for p in pieces if len(p) == 2]
    if defect == "value" and pieces:
        draw(st.sampled_from(pieces))[-1] = draw(st.sampled_from(_VALUES))
    elif defect == "insert" or defect and not pairs:
        pieces.insert(draw(st.integers(0, len(pieces))), [draw(st.sampled_from(_DASHED))])
    elif defect:
        pair = draw(st.sampled_from(pairs))
        if defect == "prefix":
            pair[0] = pair[0][:3]
        elif defect == "drop":
            pieces.remove(pair)
        elif defect == "repeat":
            pieces.append([pair[0], draw(st.sampled_from(_VALUES))])
        elif defect == "equals":
            pair[:] = [f"{pair[0]}={pair[1]}"]
        elif defect == "bare":
            pair.pop()
    return [command, *chain.from_iterable(pieces)]


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(_argv())
def test_plain_args_agree_with_argparse(argv):
    """Whenever the plain path reads an argv, argparse reads it to the same
    namespace, and does so without a usage error."""
    args = cli._plain_args(argv)
    if args is not None:
        with contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                expected = vars(cli.build_parser().parse_args(argv))
            except SystemExit:
                raise AssertionError(f"read without argparse, which refuses it: {err.getvalue()}") from None
        assert vars(args) == expected


BIG = 10**2500

#: (argv, input files by name, stdin, expected exit, what is too long, its digits)
OUTPUT_LIMIT_CASES = {
    "construct": (["construct", "scaled", "--n", "64", "--d", "4" + "0" * 80, "--out", "{out}"],
                  {}, None, 2, "scaled: output number", 5123),
    "analyze": (["analyze", "{m}"], {"m": f"3 3\n1 0 0\n0 {BIG} 0\n0 0 {BIG}\n"},
                None, 3, "volume", 5001),
    "analyze-density": (["analyze", "{m}"], {"m": f"3 3\n1 0 0\n0 1 0\n0 0 9{'0' * 4299}\n"},
                        None, 3, "density", 4301),
    "transform-disc": (["transform", "--d", "4", "--mode", "disc"], {}, " ".join(["9" * 4300] * 16),
                       3, "image coordinate", 4301),
    "transform-cont": (["transform", "--d", "4", "--mode", "cont"], {}, " ".join(["9" * 4300] * 16),
                       3, "image coordinate", 4301),
}


@pytest.mark.parametrize("case", OUTPUT_LIMIT_CASES)
def test_output_past_int_string_limit_exits_with_one_line(case, tmp_path, capsys, monkeypatch):
    """A number the run would print past the interpreter's int-string limit
    is reported in one line naming its length, not a traceback."""
    argv, files, stdin, code, what, digits = OUTPUT_LIMIT_CASES[case]
    paths = {"out": str(tmp_path / "out.txt")}
    for name, text in files.items():
        paths[name] = str(tmp_path / f"{name}.txt")
        (tmp_path / f"{name}.txt").write_text(text)
    argv = [a.format(**paths) for a in argv]
    assert run_cli(argv, stdin=stdin, monkeypatch=monkeypatch) == code
    out, err = capsys.readouterr()
    limit = sys.get_int_max_str_digits()
    assert err.endswith(f"{what} too long ({digits} digits; the limit is {limit})\n")
    assert err.startswith("error: ") and err.count("\n") == 1 and out == ""
    assert not os.path.exists(paths["out"])


def _matrix_text(header, rows, dims):
    lines = [] if header is None else [header]
    if dims is not None:
        lines.append(" ".join(map(str, dims)))
    lines += [" ".join(map(str, r)) for r in rows]
    return "\n".join(lines) + "\n"


_rows = st.lists(st.lists(st.integers(-4, 4), max_size=4), max_size=4)
_matrix = st.builds(
    _matrix_text,
    st.sampled_from([None, "# scale 1", "# scale 2", "# scale 1/2", "# scale 2/3", "# scale 0",
                     "# scale -1", "# scale x", "# scale 1/0", "# scale", "# scale 1 2", "# scale 1e9",
                     "# scale 0.5"]),
    _rows,
    st.one_of(st.none(), st.tuples(st.integers(0, 4), st.integers(0, 4))),
)
# square bodies with a matching header, so that most inputs get past the parser
_square = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n)
)
_square_matrix = st.builds(
    lambda header, rows: _matrix_text(header, rows, (len(rows), len(rows))),
    st.sampled_from([None, None, None, "# scale 3", "# scale 1/2", "# scale 0", "# scale -2/3"]),
    _square,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(["analyze", "double", "puncture", "kronecker"]),
    st.one_of(_matrix, _square_matrix, _square_matrix),
    _square_matrix,
)
def test_exit_code_contract_fuzz(command, text, other):
    """Every run on random matrix text exits 0, 2, 3 or 4, raises nothing,
    and a nonzero exit prints exactly one stderr line."""
    with tempfile.TemporaryDirectory() as work:
        a, b = os.path.join(work, "a.txt"), os.path.join(work, "b.txt")
        for path, body in ((a, text), (b, other)):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(body)
        argv = {
            "analyze": ["analyze", a, "--min-dist-cap", "3", "--coset-cap", "50"],
            "double": ["construct", "double", "--input", a],
            "puncture": ["construct", "puncture", "--input", a],
            "kronecker": ["construct", "kronecker", "--a", a, "--b", b],
        }[command]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    assert code in (0, 2, 3, 4)
    if code:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")


def _added_modules(code):
    """Modules that ``code`` leaves in sys.modules past a bare interpreter's,
    in the same environment, because ``site`` may import modules of its
    own.  It runs in a subprocess because pytest imports inspect, ast and
    argparse itself."""

    def modules(code):
        run = subprocess.run([sys.executable, "-c", code + "import sys; print(*sys.modules)"],
                             capture_output=True, check=True, text=True)
        return set(run.stdout.split())

    return modules(code) - modules("")


def test_import_adds_no_introspection_modules():
    """``import leelat.cli`` loads none of dataclasses, inspect, ast, dis,
    tokenize, argparse and gettext."""
    added = _added_modules("import leelat.cli; ")
    assert "leelat.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize", "argparse", "gettext"}


def test_package_import_loads_no_module():
    """``import leelat`` defines no name: the library lives in its modules."""
    added = _added_modules("import leelat; ")
    assert "leelat" in added and not [m for m in added if m.startswith("leelat.")]


def test_successful_runs_load_no_argparse(tmp_path):
    """A valid argv of each subcommand runs to exit 0 without argparse, and
    so without the gettext and locale it loads."""
    matrix, points = tmp_path / "gn4.txt", tmp_path / "pts.txt"
    points.write_text("1 0 0 0\n")
    runs = [["construct", "gn", "--n", "4", "--out", str(matrix)], ["analyze", str(matrix)],
            ["density", "--max-n", "4"], ["transform", "--d", "2", "--mode", "disc", "--input", str(points)]]
    code = ("import contextlib, io\nfrom leelat import cli\n"
            f"for argv in {runs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        if cli.run(argv):\n"
            "            raise SystemExit(f'{argv} failed')\n")
    added = _added_modules(code)
    assert "leelat.cli" in added
    assert not added & {"argparse", "gettext", "locale"}
