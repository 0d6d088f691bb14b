from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from cubicpoints import CubicForm, ParameterPath, fermat_cubic, hesse_cubic, sizes
from cubicpoints.cli import main
from cubicpoints.serialize import (
    canonical_dumps,
    cubic_from_obj,
    cubic_to_obj,
    path_to_obj,
    points_from_obj,
)


@pytest.fixture
def fermat_file(tmp_path):
    p = tmp_path / "fermat.json"
    p.write_text(canonical_dumps(cubic_to_obj(fermat_cubic())), encoding="utf-8")
    return str(p)


@pytest.fixture
def singular_file(tmp_path):
    p = tmp_path / "singular.json"
    p.write_text(canonical_dumps(cubic_to_obj(hesse_cubic(-3.0))), encoding="utf-8")
    return str(p)


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestSerializeRoundTrips:
    def test_cubic_json_is_byte_stable(self):
        f = fermat_cubic()
        text = canonical_dumps(cubic_to_obj(f))
        again = canonical_dumps(cubic_to_obj(cubic_from_obj(json.loads(text))))
        assert text == again

    def test_canonical_dumps_is_sorted_and_terminated(self):
        s = canonical_dumps({"b": 1, "a": [2, 3]})
        assert s.index('"a"') < s.index('"b"')
        assert s.endswith("\n")


class TestPointCommands:
    def test_inflections_json(self, capsys, fermat_file):
        rc, out, _ = run_cli(capsys, "inflections", "--curve", fermat_file)
        assert rc == 0
        obj = json.loads(out)
        pts = points_from_obj(obj)
        assert len(pts) == 9
        # output text is already in canonical form
        assert out == canonical_dumps(obj)

    def test_inflections_csv(self, capsys, fermat_file):
        rc, out, _ = run_cli(capsys, "--format", "csv", "inflections", "--curve", fermat_file)
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x_re,x_im,y_re,y_im,z_re,z_im"
        assert len(lines) == 10

    def test_type3k_counts(self, capsys, fermat_file):
        rc, out, _ = run_cli(capsys, "type3k", "--curve", fermat_file, "-k", "2")
        assert rc == 0
        assert len(json.loads(out)["xyz"]) == 27

    def test_torsion_counts(self, capsys, fermat_file):
        rc, out, _ = run_cli(capsys, "torsion", "--curve", fermat_file, "-m", "2")
        assert rc == 0
        assert len(json.loads(out)["xyz"]) == 4

    def test_identity_index_is_validated(self, capsys, fermat_file):
        rc, _, err = run_cli(
            capsys, "type3k", "--curve", fermat_file, "-k", "1", "--identity-index", "99"
        )
        assert rc == 2
        assert "identity index" in err

    @pytest.mark.parametrize(
        "argv", [("torsion", "-m", "1000000"), ("type3k", "-k", "100000")]
    )
    def test_huge_order_exits_at_once(self, capsys, fermat_file, argv):
        rc, out, err = run_cli(capsys, argv[0], "--curve", fermat_file, *argv[1:])
        assert rc == 2
        assert out == ""
        assert "exceeds the limit 12" in err


class TestArithmeticCommands:
    def test_counts(self, capsys):
        rc, out, _ = run_cli(capsys, "counts", "--max-k", "4")
        assert rc == 0
        assert json.loads(out)["counts"] == {"3": 9, "6": 27, "9": 72, "12": 108}

    def test_j2_csv(self, capsys):
        rc, out, _ = run_cli(capsys, "--format", "csv", "j2", "--max-k", "4")
        assert rc == 0
        assert out.splitlines() == ["k,j2", "1,1", "2,3", "3,8", "4,12"]

    def test_sizes(self, capsys):
        rc, out, _ = run_cli(capsys, "sizes", "--bound", "180")
        assert rc == 0
        obj = json.loads(out)
        assert obj["sizes"] == [9, 27, 36, 72, 81, 99, 108, 117, 135, 144, 180]
        assert obj["witnesses"]["36"] == [1, 2]

    def test_sizes_builds_one_table(self, capsys, monkeypatch):
        calls = []
        real = sizes._size_table
        monkeypatch.setattr(sizes, "_size_table", lambda m: calls.append(m) or real(m))
        for fmt in ("json", "csv"):
            rc, _, _ = run_cli(capsys, "--format", fmt, "sizes", "--bound", "2000")
            assert rc == 0
        assert calls == [222, 222]

    def test_verdicts(self, capsys):
        rc, out, _ = run_cli(capsys, "verdict", "18")
        assert rc == 0
        assert json.loads(out)["status"] == "open"
        rc, out, _ = run_cli(capsys, "verdict", "14")
        assert rc == 0
        assert json.loads(out)["status"] == "obstructed"
        rc, out, _ = run_cli(capsys, "verdict", "72")
        assert json.loads(out)["witness"] == [3]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sizes", "--bound", "0"], "the bound must be a positive integer"),
            (["verdict", "0"], "the section size must be a positive integer"),
            (["counts", "--max-k", "0"], "--max-k must be a positive integer"),
            (["j2", "--max-k", "0"], "--max-k must be a positive integer"),
        ],
    )
    def test_zero_is_bad_input(self, capsys, argv, message):
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_verdict_rejects_csv(self, capsys):
        rc, _, err = run_cli(capsys, "--format", "csv", "verdict", "9")
        assert rc == 2
        assert "JSON" in err

    @pytest.mark.parametrize("command", ["verdict", "hesse", "smooth", "track"])
    def test_json_only_subcommands_reject_csv(self, capsys, command):
        # the format is checked before any argument is read or file opened
        argv = {"verdict": ["0"], "track": ["--path", "missing.json"]}.get(command, ["--curve", "missing.json"])
        rc, out, err = run_cli(capsys, "--format", "csv", command, *argv)
        assert rc == 2
        assert out == ""
        assert err == f"error: the {command} subcommand only writes JSON\n"


class TestCurveCommands:
    def test_smooth_on_fermat(self, capsys, fermat_file):
        rc, out, _ = run_cli(capsys, "smooth", "--curve", fermat_file)
        assert rc == 0
        obj = json.loads(out)
        assert obj["smooth"] is True
        assert abs(obj["margin"] - 1.0) < 1e-9
        assert obj["witness"] is None

    def test_smooth_reports_witness(self, capsys, singular_file):
        rc, out, _ = run_cli(capsys, "smooth", "--curve", singular_file)
        assert rc == 0
        obj = json.loads(out)
        assert obj["smooth"] is False
        assert obj["witness"] is not None

    def test_smooth_on_a_cone_reports_its_vertex(self, capsys, tmp_path):
        p = tmp_path / "cone.json"
        cone = CubicForm.from_coeffs({(3, 0, 0): 1.0, (0, 3, 0): 1.0})
        p.write_text(canonical_dumps(cubic_to_obj(cone)), encoding="utf-8")
        rc, out, _ = run_cli(capsys, "smooth", "--curve", str(p))
        assert rc == 0
        obj = json.loads(out)
        assert obj["smooth"] is False and obj["margin"] == 0.0
        assert obj["witness"] == [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]

    def test_hesse_of_fermat(self, capsys, fermat_file):
        rc, out, _ = run_cli(capsys, "hesse", "--curve", fermat_file)
        assert rc == 0
        lam = json.loads(out)["lambda"]
        assert abs(complex(lam[0], lam[1])) < 1e-8

    def test_inflections_of_singular_curve_exit_three(self, capsys, singular_file):
        rc, _, err = run_cli(capsys, "inflections", "--curve", singular_file)
        assert rc == 3
        assert "singular" in err.lower()

    @pytest.mark.parametrize("scale", [1e60, 1e300])
    def test_smooth_on_coefficients_too_large_exits_four(self, capsys, tmp_path, scale):
        p = tmp_path / "huge.json"
        p.write_text(canonical_dumps(cubic_to_obj(CubicForm(hesse_cubic(0.3).coeffs * scale))), encoding="utf-8")
        rc, out, err = run_cli(capsys, "smooth", "--curve", str(p))
        assert rc == 4
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ") and "overflow" in err


class TestTrackCommand:
    def test_constant_loop(self, capsys, tmp_path):
        f = fermat_cubic()
        path = ParameterPath([f, f], steps=4)
        pf = tmp_path / "loop.json"
        pf.write_text(canonical_dumps(path_to_obj(path)), encoding="utf-8")
        rc, out, _ = run_cli(capsys, "track", "--path", str(pf))
        assert rc == 0
        obj = json.loads(out)
        assert obj["closed"] is True
        assert obj["permutation"] == list(range(9))
        assert obj["cycle_type"] == [1] * 9

    @pytest.mark.parametrize("steps", [10**6 + 1, pytest.param(10**400, id="10**400")])
    def test_too_many_steps_exit_two_before_any_step(self, capsys, tmp_path, steps):
        obj = path_to_obj(ParameterPath([fermat_cubic(), fermat_cubic()], steps=4))
        obj["steps"] = steps
        pf = tmp_path / "long.json"
        pf.write_text(json.dumps(obj), encoding="utf-8")
        rc, out, err = run_cli(capsys, "track", "--path", str(pf))
        assert (rc, out) == (2, "")
        assert "step count" in err

    def test_discriminant_crossing_exit_three(self, capsys, tmp_path):
        path = ParameterPath([hesse_cubic(0.0), hesse_cubic(-6.0)], steps=8)
        pf = tmp_path / "bad.json"
        pf.write_text(canonical_dumps(path_to_obj(path)), encoding="utf-8")
        rc, _, err = run_cli(capsys, "track", "--path", str(pf))
        assert rc == 3
        assert "discriminant" in err


class TestInputHandling:
    def test_missing_file(self, capsys):
        rc, _, err = run_cli(capsys, "inflections", "--curve", "/nonexistent.json")
        assert rc == 2
        assert "cannot read" in err

    def test_malformed_json(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json", encoding="utf-8")
        rc, _, err = run_cli(capsys, "inflections", "--curve", str(p))
        assert rc == 2

    def test_huge_integer_coefficient(self, capsys, tmp_path):
        # JSON integers are unbounded; one past the float range is not a finite coefficient
        p = tmp_path / "huge.json"
        p.write_text('{"coeffs": {"300": [1' + "0" * 400 + ', 0], "030": [1, 0]}}', encoding="utf-8")
        rc, out, err = run_cli(capsys, "inflections", "--curve", str(p))
        assert (rc, out) == (2, "")
        assert "must be finite" in err

    def test_wrong_schema(self, capsys, tmp_path):
        p = tmp_path / "odd.json"
        p.write_text('{"weird": 1}', encoding="utf-8")
        rc, _, _ = run_cli(capsys, "inflections", "--curve", str(p))
        assert rc == 2

    def test_unknown_subcommand(self, capsys):
        rc, _, _ = run_cli(capsys, "frobnicate")
        assert rc == 2

    def test_bad_tolerance(self, capsys, fermat_file):
        rc, _, err = run_cli(
            capsys, "--tol-match", "2.0", "inflections", "--curve", fermat_file
        )
        assert rc == 2
        assert "tol-match" in err

    def test_out_writes_identical_bytes(self, capsys, tmp_path, fermat_file):
        rc, out, _ = run_cli(capsys, "verdict", "9")
        assert rc == 0
        dest = tmp_path / "verdict.json"
        rc2, out2, _ = run_cli(capsys, "--out", str(dest), "verdict", "9")
        assert rc2 == 0
        assert out2 == ""
        assert dest.read_text(encoding="utf-8") == out

    def test_unwritable_out(self, capsys):
        rc, _, err = run_cli(capsys, "--out", "/nonexistent-dir/x.json", "verdict", "9")
        assert rc == 2
        assert "cannot write" in err


class TestSelftest:
    def test_battery_passes(self, capsys):
        rc, out, _ = run_cli(capsys, "selftest")
        assert rc == 0
        assert "8/8 checks passed" in out
        assert "FAIL" not in out

    def test_a_planted_defect_fails_under_python_O(self):
        # -O strips assert statements; the checks must survive it
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "import sys\n"
            "from cubicpoints import sizes\n"
            "real = sizes.constructible_sizes\n"
            "sizes.constructible_sizes = lambda bound: real(bound)[:-1]\n"
            "from cubicpoints.cli import main\n"
            "sys.exit(main(['selftest']))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=300, env=env
        )
        assert proc.returncode == 4, proc.stdout + proc.stderr
        assert "FAIL size-arithmetic: frozen size list changed" in proc.stdout
        assert "7/8 checks passed" in proc.stdout

    def test_console_script_is_installed(self):
        exe = shutil.which("cubicpoints")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run(
            [exe, "j2", "--max-k", "3"], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["j2"]["3"] == 8

    def test_module_entry_point_runs_as_a_whole_process(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "cubicpoints", "j2", "--max-k", "3"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["j2"]["3"] == 8


class TestImportCost:
    def test_integer_subcommands_import_no_numpy(self):
        # sizes, verdict, counts and j2 are integer arithmetic: a fresh
        # process that runs only them never imports numpy or the curve layer
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "import sys\n"
            "from cubicpoints.cli import main\n"
            "assert main(['sizes', '--bound', '2000']) == 0\n"
            "assert main(['verdict', '36']) == 0\n"
            "assert main(['counts']) == 0\n"
            "assert main(['j2']) == 0\n"
            "assert main(['verdict', '0']) == 2\n"
            "loaded = [m for m in ('numpy', 'cubicpoints.curve') if m in sys.modules]\n"
            "assert not loaded, f'imported {loaded}'\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
        )
        assert proc.returncode == 0, proc.stderr

    def test_curve_subcommands_import_no_group_law(self, fermat_file):
        # inflections and smooth need the curve layer and the codecs only: a
        # fresh process that runs only them never imports the group law, the
        # symmetries or tracking
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "import sys\n"
            "from cubicpoints.cli import main\n"
            f"assert main(['inflections', '--curve', {fermat_file!r}]) == 0\n"
            f"assert main(['smooth', '--curve', {fermat_file!r}]) == 0\n"
            "mods = ('cubicpoints.elliptic', 'cubicpoints.symmetry', 'cubicpoints.monodromy')\n"
            "loaded = [m for m in mods if m in sys.modules]\n"
            "assert not loaded, f'imported {loaded}'\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
        )
        assert proc.returncode == 0, proc.stderr
