"""End-to-end tests of the command line interface."""

import csv
import hashlib
from pathlib import Path

import numpy as np
import pytest

from hfrac.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, main

STABLE_FILE = """
kind=caputo
nu=0.5
h=1
a=0
x0=0.3
f1=-x1
"""

ZERO_RHS_FILE = """
kind=caputo
nu=0.5
h=1
a=0
x0=0.3,0.1
f1=0
f2=0
"""

ANTISTABLE_FILE = """
kind=caputo
nu=0.5
h=1
a=0
x0=0.1
f1=x1
"""


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestSimulate:
    def test_builtin_first_row_values(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = main(["simulate", "--system", "ex5.1", "--steps", "40",
                     "--out", str(out)])
        assert code == EXIT_OK
        rows = read_rows(out)
        assert len(rows) == 41
        row = next(r for r in rows if float(r["t"]) == 1.0)
        assert float(row["x1"]) == pytest.approx(0.05, abs=1e-12)
        assert float(row["x2"]) == pytest.approx(0.10, abs=1e-12)
        assert (tmp_path / "traj.steps.csv").exists()
        assert "V<=V(0): True" in capsys.readouterr().out

    def test_zero_steps_rejected(self, tmp_path):
        code = main(["simulate", "--system", "ex5.1", "--steps", "0",
                     "--out", str(tmp_path / "t.csv")])
        assert code == EXIT_USAGE

    def test_zero_rhs_file_constant_trajectory(self, tmp_path):
        system_file = tmp_path / "sys.txt"
        system_file.write_text(ZERO_RHS_FILE)
        out = tmp_path / "t.csv"
        code = main(["simulate", "--file", str(system_file), "--steps", "12",
                     "--out", str(out)])
        assert code == EXIT_OK
        rows = read_rows(out)
        assert all(float(r["x1"]) == 0.3 and float(r["x2"]) == 0.1 for r in rows)

    def test_svg_written(self, tmp_path):
        out = tmp_path / "t.csv"
        svg = tmp_path / "t.svg"
        code = main(["simulate", "--system", "ex5.3", "--steps", "10",
                     "--out", str(out), "--svg", str(svg)])
        assert code == EXIT_OK
        text = svg.read_text()
        assert text.startswith("<svg")
        assert "polyline" in text

    def test_output_directory_created(self, tmp_path):
        out = tmp_path / "deep" / "nested" / "t.csv"
        code = main(["simulate", "--system", "ex5.1", "--steps", "2",
                     "--out", str(out)])
        assert code == EXIT_OK
        assert out.exists()

    def test_missing_file_is_usage_error(self, tmp_path):
        code = main(["simulate", "--file", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path / "t.csv")])
        assert code == EXIT_USAGE


class TestProps:
    def test_small_run_passes_and_is_deterministic(self, capsys):
        code = main(["props", "--trials", "3", "--seed", "5"])
        out1 = capsys.readouterr().out
        assert code == EXIT_OK
        code = main(["props", "--trials", "3", "--seed", "5"])
        out2 = capsys.readouterr().out
        assert code == EXIT_OK
        assert out1 == out2
        assert "caputo-square" in out1
        assert "rl-dyadic-power-8" in out1

    def test_zero_trials_rejected(self):
        assert main(["props", "--trials", "0"]) == EXIT_USAGE


class TestCertify:
    def test_builtin_certified(self, tmp_path, capsys):
        out = tmp_path / "cert.txt"
        code = main(["certify", "--system", "ex5.2", "--trials", "400",
                     "--out", str(out)])
        assert code == EXIT_OK
        assert "verdict=stable-certified" in out.read_text()
        assert (tmp_path / "cert.margins.csv").exists()

    def test_antistable_fails(self, tmp_path, capsys):
        system_file = tmp_path / "sys.txt"
        system_file.write_text(ANTISTABLE_FILE)
        code = main(["certify", "--file", str(system_file), "--trials", "200"])
        assert code == EXIT_FAIL
        assert "verdict=inconclusive" in capsys.readouterr().out

    def test_stable_file_with_default_identity_weight(self, tmp_path, capsys):
        system_file = tmp_path / "sys.txt"
        system_file.write_text(STABLE_FILE)
        code = main(["certify", "--file", str(system_file), "--trials", "200"])
        assert code == EXIT_OK


class TestReproduce:
    def test_outputs_and_byte_stability(self, tmp_path, capsys):
        out1 = tmp_path / "run1"
        code = main(["reproduce", "--out", str(out1), "--steps", "40"])
        text = capsys.readouterr().out
        assert code == EXIT_OK
        assert text.count("pass") == 16
        csvs = sorted(p.name for p in out1.glob("*.csv"))
        svgs = sorted(p.name for p in out1.glob("*.svg"))
        assert len(csvs) == 4
        assert len(svgs) == 8

        out2 = tmp_path / "run2"
        assert main(["reproduce", "--out", str(out2), "--steps", "40"]) == EXIT_OK
        capsys.readouterr()
        for name in csvs + svgs:
            h1 = hashlib.sha256((out1 / name).read_bytes()).hexdigest()
            h2 = hashlib.sha256((out2 / name).read_bytes()).hexdigest()
            assert h1 == h2, name

    def test_creates_missing_directory(self, tmp_path):
        target = tmp_path / "does" / "not" / "exist"
        assert main(["reproduce", "--out", str(target), "--steps", "5"]) == EXIT_OK
        assert target.is_dir()


class TestNonFiniteParameters:
    """A non-finite or out-of-range parameter is a usage error, never an answer."""

    @pytest.mark.parametrize("option,value", [
        ("--tol", "nan"), ("--tol", "inf"), ("--tol", "-1"),
        ("--nu", "nan"), ("--h", "inf"), ("--h", "nan"), ("--a", "nan"), ("--a", "-inf"),
    ])
    def test_simulate(self, tmp_path, capsys, option, value):
        out = tmp_path / "t.csv"
        # option=value, so that argparse cannot read "-inf" as an option.
        code = main(["simulate", "--system", "ex5.1", "--steps", "8",
                     "--out", str(out), f"{option}={value}"])
        assert code == EXIT_USAGE
        assert not out.exists()
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("option,value", [
        ("--tol", "nan"), ("--tol", "inf"), ("--tol", "-1"), ("--a", "inf"),
    ])
    def test_certify(self, tmp_path, capsys, option, value):
        # --tol nan once certified this antistable system with exit 0.
        path = tmp_path / "f.txt"
        path.write_text(ANTISTABLE_FILE)
        code = main(["certify", "--file", str(path), "--trials", "50", f"{option}={value}"])
        assert code == EXIT_USAGE
        assert "verdict" not in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_props(self, capsys, value):
        assert main(["props", "--trials", "1", "--tol", value]) == EXIT_USAGE
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("line", ["a=nan", "h=inf", "x0=0.3,nan"])
    def test_definition_file(self, tmp_path, capsys, line):
        # a=nan once wrote an all-NaN t column and exited 0.
        key = line.split("=")[0]
        text = "\n".join(
            line if row.startswith(key + "=") else row
            for row in ZERO_RHS_FILE.strip().splitlines()
        )
        path = tmp_path / "f.txt"
        path.write_text(text + "\n")
        out = tmp_path / "t.csv"
        code = main(["simulate", "--file", str(path), "--steps", "8", "--out", str(out)])
        assert code == EXIT_USAGE
        assert not out.exists()
        assert capsys.readouterr().out == ""


class TestUsage:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_no_arguments(self):
        assert main([]) == EXIT_USAGE

    def test_system_and_file_mutually_exclusive(self, tmp_path):
        code = main(["simulate", "--system", "ex5.1", "--file", "x",
                     "--out", str(tmp_path / "t.csv")])
        assert code == EXIT_USAGE
