import io
import json

from leelat import cli


def run_cli(args, stdin=None, monkeypatch=None):
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    return cli.run(args)


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

    def test_gij_parameters(self, tmp_path, capsys):
        out = tmp_path / "g32.txt"
        assert run_cli(["construct", "gij", "--i", "3", "--j", "2", "--out", str(out)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 8 and doc["volume"] == 32 and doc["q"] == 4
        assert doc["min_distance_nominal"] == 4

    def test_minkowski_bad_d_exits_2(self, capsys):
        assert run_cli(["construct", "minkowski3", "--d", "4"]) == 2
        assert "multiple of 6" in capsys.readouterr().err

    def test_missing_param_exits_2(self, capsys):
        assert run_cli(["construct", "gn"]) == 2

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

    def test_missing_file_exits_3(self):
        assert run_cli(["analyze", "/nonexistent/matrix.txt"]) == 3

    def test_inconclusive_exits_4(self, tmp_path, capsys):
        f = tmp_path / "gn4.txt"
        run_cli(["construct", "gn", "--n", "4", "--out", str(f)])
        capsys.readouterr()
        assert run_cli(["analyze", str(f), "--min-dist-cap", "2"]) == 4
        assert "raise the cap" in capsys.readouterr().err

    def test_nonpositive_min_dist_cap_exits_2(self, tmp_path, capsys):
        f = tmp_path / "gn4.txt"
        run_cli(["construct", "gn", "--n", "4", "--out", str(f)])
        capsys.readouterr()
        for cap in ("0", "-1"):
            assert run_cli(["analyze", str(f), "--min-dist-cap", cap]) == 2
            assert "--min-dist-cap" in capsys.readouterr().err

    def test_negative_coset_cap_exits_2(self, tmp_path, capsys):
        f = tmp_path / "gn4.txt"
        run_cli(["construct", "gn", "--n", "4", "--out", str(f)])
        capsys.readouterr()
        assert run_cli(["analyze", str(f), "--coset-cap", "-1"]) == 2
        assert "--coset-cap" in capsys.readouterr().err

    def test_fractional_scale_exits_3(self, tmp_path, capsys):
        f = tmp_path / "half.txt"
        f.write_text("# scale 1/2\n2 2\n1 0\n0 2\n")
        assert run_cli(["analyze", str(f)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "integral" in err
        assert len(err.splitlines()) == 1

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
        import subprocess
        import sys

        cmd = [sys.executable, "-m", "leelat", "density", "--max-n", "8"]
        a = subprocess.run(cmd, capture_output=True, check=True).stdout
        b = subprocess.run(cmd, capture_output=True, check=True).stdout
        assert a == b and a.startswith(b"n,construction")


class TestTransform:
    def test_disc_worked_example(self, capsys, monkeypatch):
        assert run_cli(
            ["transform", "--d", "2", "--mode", "disc"],
            stdin="1 0 0 0\n",
            monkeypatch=monkeypatch,
        ) == 0
        assert capsys.readouterr().out == "0 1 1 1\n"

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

    def test_file_input(self, tmp_path, capsys):
        f = tmp_path / "pts.txt"
        f.write_text("0 1 1 1\n")
        run_cli(["transform", "--d", "2", "--mode", "disc", "--input", str(f)])
        assert capsys.readouterr().out == "1 0 0 0\n"

    def test_invalid_d_exits_2(self):
        assert run_cli(["transform", "--d", "3", "--mode", "disc"]) == 2


class TestParser:
    def test_unknown_family_exits_2(self):
        assert run_cli(["construct", "nosuch"]) == 2

    def test_unknown_command_exits_2(self):
        assert run_cli(["frobnicate"]) == 2
