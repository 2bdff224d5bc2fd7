"""End-to-end tests of the command line interface."""

import csv
import hashlib
from pathlib import Path

import numpy as np
import pytest

from hfrac.cli import EXIT_FAIL, EXIT_OK, EXIT_SOLVER, EXIT_USAGE, main

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


PROPS_TRIALS_3_SEED_0 = """\
suite                         worst margin
caputo-square                    8.787e-04  ok
rl-square                        7.677e-05  ok
caputo-quadratic-form            6.321e-04  ok
rl-quadratic-form                6.283e-03  ok
caputo-odd-power-3               2.638e-05  ok
caputo-odd-power-5               5.520e-10  ok
caputo-odd-power-7               1.866e-07  ok
caputo-dyadic-power-2            1.080e-04  ok
caputo-dyadic-power-4            2.590e-06  ok
caputo-dyadic-power-8            2.782e-08  ok
rl-odd-power-3                   7.912e-07  ok
rl-odd-power-5                   1.127e-08  ok
rl-odd-power-7                   7.784e-10  ok
rl-dyadic-power-2                1.598e-04  ok
rl-dyadic-power-4                1.423e-09  ok
rl-dyadic-power-8                2.616e-08  ok
"""


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

    def test_output_pinned(self, capsys):
        # The stdout of this call, the benchmark's call shape, as printed
        # before the suites were batched.
        assert main(["props", "--trials", "3", "--seed", "0"]) == EXIT_OK
        assert capsys.readouterr().out == PROPS_TRIALS_3_SEED_0

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


# Time-dependent, with x^T f = -x1^2 (1 + t/8) - x2^2 - x2^4 < 0 off the
# origin, so that the identity weight certifies it and the confirming solve
# runs.
PIN_FILE = """\
kind=rl
nu=0.6
h=0.5
a=0
x0=0.4,-0.2
f1=-x1*(1 + t/8) + 0.5*x2
f2=-0.5*x1 - x2 - x2^3
"""

# SHA-256 of the report text and of the margins CSV that `certify ... --out`
# writes with default options (x86-64 Linux, numpy 2.4).  A change here
# changes a published certificate.
CERTIFY_SHA256 = {
    "ex5.1": ("0f4edbda099e835b0b10a5bbfcc794a24b1354ad03ff3a9163ba4e1dbaa784d7",
              "081b3db523e788fc0ced9d814d871544d44ccab5b44b385370a84b42d86711b5"),
    "ex5.2": ("b6df7c6552baaea9c82a501e616df142467ac8ff42bdfc45c9e86a26cbf59ecb",
              "3d49faeb6384581ac62f938afb6329d85cdb9710fde5ee7dc81e628b6c5a46a3"),
    "ex5.3": ("510e645ff44d9555521a27b16656ba5402e4b570d92b09f264cba7ec54bdd5dc",
              "b34a19a5c466ff97b1f8d965c032078fa962829626ff74d2b9a7c984a66fee35"),
    "ex5.4": ("29bc5af0a042436642e3db521daa090a64e3334daa45533e7381f8af858dbc5e",
              "84ee860066b481fd8b57dae00c6f66a2386a53a4b9e3e6d58a1035baf837e6fc"),
    "file": ("224834ce80fcffad87bfde47e82bd58595df629103e19ada9c4d98523beab161",
             "5796eb71f49edbaaee136b7b75d41bacb82e608871fea8c1c8a9f1dbda0926f4"),
}


class TestCertificatePins:
    @pytest.mark.parametrize("key", sorted(CERTIFY_SHA256))
    def test_outputs_pinned(self, tmp_path, capsys, key):
        if key == "file":
            (tmp_path / "sys.txt").write_text(PIN_FILE)
            source = ["--file", str(tmp_path / "sys.txt")]
        else:
            source = ["--system", key]
        out = tmp_path / "cert.txt"
        assert main(["certify", *source, "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in (out, tmp_path / "cert.margins.csv"))
        assert digests == CERTIFY_SHA256[key]


# SHA-256 of the steps CSV that `simulate --steps 3000` writes for each
# built-in (x86-64 Linux, numpy 2.4).  At 3000 steps the solver history takes
# its FFT squares, and every step's iteration count and residual is pinned.
SIMULATE_STEPS_SHA256 = {
    "ex5.1": "3a0d5e178577fd82075ff3298eeb9ff809bd48c384d1e7772e28c387bda08c51",
    "ex5.2": "38917babef38b76b4cba5e1eaf4d1e22b97ca409d0b44d01edd14434f4398b08",
    "ex5.3": "56880defe0f76e54c793e6546adb8391ed0f949a3acfb220e99934e10c1eef47",
    "ex5.4": "05156fee38da1c7bec8f5fe687a5681e0d1dd37e852f26f0146bad6582e9ed06",
}


class TestStepsPins:
    @pytest.mark.parametrize("key", sorted(SIMULATE_STEPS_SHA256))
    def test_steps_csv_pinned(self, tmp_path, capsys, key):
        out = tmp_path / "traj.csv"
        code = main(["simulate", "--system", key, "--steps", "3000", "--out", str(out)])
        assert code == EXIT_OK
        capsys.readouterr()
        digest = hashlib.sha256((tmp_path / "traj.steps.csv").read_bytes()).hexdigest()
        assert digest == SIMULATE_STEPS_SHA256[key]


class TestNonFiniteCondition:
    def test_nan_condition_is_not_certified(self, tmp_path, capsys):
        # f1 is x1 (unstable), but every nonzero sample evaluates to inf - inf,
        # a NaN, which once compared false with the slack and certified.
        path = tmp_path / "f.txt"
        path.write_text(ANTISTABLE_FILE.replace(
            "f1=x1", "f1=x1 + x1*x1*1e300*1e300 - x1*x1*1e300*1e300"))
        code = main(["certify", "--file", str(path), "--trials", "200"])
        out = capsys.readouterr().out
        assert code == EXIT_FAIL
        assert "verdict=inconclusive" in out
        assert "worst_margin=nan" in out


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

    def test_outputs_pinned(self, tmp_path, capsys):
        # SHA-256 of every `reproduce --steps 40` output, computed before the
        # built-ins were generated from their sources (on x86-64 Linux,
        # numpy 2.4).  A change here changes a published trajectory.
        assert main(["reproduce", "--out", str(tmp_path), "--steps", "40"]) == EXIT_OK
        capsys.readouterr()
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(tmp_path.iterdir())}
        assert digests == REPRODUCE_SHA256

    def test_creates_missing_directory(self, tmp_path):
        target = tmp_path / "does" / "not" / "exist"
        assert main(["reproduce", "--out", str(target), "--steps", "5"]) == EXIT_OK
        assert target.is_dir()


REPRODUCE_SHA256 = {
    "ex5_1.csv": "e940547e3b3fc832714edfdb68e58f7379adb83bef4eb4ad6ebb0340e0edc7a6",
    "ex5_1_x1.svg": "e2ccf50de8633beaa43a76dea092e50f9d3077d2656bcbeb6f42644719969c2c",
    "ex5_1_x2.svg": "75b25668cf0c27612b52fe3521808a2a83a0d17e293f3613d906c1f0404dd51c",
    "ex5_2.csv": "cb8443fa8253168d157ba681b976b0748e832cd32ff54800d8dde79f75a27002",
    "ex5_2_x1.svg": "217b4ddd207800e2ac28b088a6a94e27637eeab68365f404aaee632204bcb7b8",
    "ex5_2_x2.svg": "d266c8d53df7d5bd774847fedc8e0e5b0c4dfe6ca9f15b6d9c361c5d67fb8c4d",
    "ex5_3.csv": "626a09f7baa55798879b0b4a62eeddf17acdf2dd22776670732b1e11c39e5f6d",
    "ex5_3_x1.svg": "7fbf858d65be75387996674e2094f13029f90ce0f5a6cae25ab07b5be0065612",
    "ex5_3_x2.svg": "bd60f437bad81ca5b0b582a078f4d89251564bd5b7dc6cab964ab7d1676691bd",
    "ex5_4.csv": "e0dc7b00c65b81a4e00af8ea18b957c539fbf2586e07227f613cf0ed1e9c7b3d",
    "ex5_4_x1.svg": "a97f9e35d6a1c643e4d378a571faff74ddf1b09904e4541b3fbe1ddb55c4c365",
    "ex5_4_x2.svg": "d94044af0dc90c7bd51702edbe93d6bace247d79aedb74e5ada6048a2a81650b",
}


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

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_props(self, capsys, value):
        # --tol=-1 once ran every suite, printed 16 FAILs and exited 1.
        assert main(["props", "--trials", "1", f"--tol={value}"]) == EXIT_USAGE
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("rhs", ["-x1^1e999", "x1^(2^2000)"])
    @pytest.mark.parametrize("command", ["simulate", "certify"])
    def test_exponent_overflow(self, tmp_path, capsys, command, rhs):
        # Once an OverflowError traceback with exit 1.
        path = tmp_path / "f.txt"
        path.write_text(STABLE_FILE.replace("f1=-x1", f"f1={rhs}"))
        args = ["--out", str(tmp_path / "t.csv")] if command == "simulate" else []
        assert main([command, "--file", str(path), *args]) == EXIT_USAGE
        assert "exponent" in capsys.readouterr().err

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


class TestRhsRaises:
    """An rhs that raises an ArithmeticError mid-solve is a solver failure."""

    @pytest.mark.parametrize("x0,rhs,what", [
        ("1e300", "-x1^3", "Numerical result out of range"),
        ("0.1", "x1/(x1-0.1)", "division by zero"),
    ], ids=["overflow", "division-by-zero"])
    def test_simulate(self, tmp_path, capsys, x0, rhs, what):
        # Both once ended in a traceback with exit 1.
        path = tmp_path / "f.txt"
        path.write_text(STABLE_FILE.replace("x0=0.3", f"x0={x0}").replace("f1=-x1", f"f1={rhs}"))
        out = tmp_path / "t.csv"
        code = main(["simulate", "--file", str(path), "--steps", "8", "--out", str(out)])
        assert code == EXIT_SOLVER
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "step 1 " in err and "t = 0.5" in err and what in err

    def test_certify_sampling(self, tmp_path, capsys):
        # (x1*1e200)^2 overflows at every nonzero sample: once a 25-line
        # OverflowError traceback from the batch form, with exit 1.
        path = tmp_path / "f.txt"
        path.write_text(STABLE_FILE.replace("x0=0.3", "x0=0.1")
                        .replace("f1=-x1", "f1=-x1*(x1*1e200)^2"))
        code = main(["certify", "--file", str(path), "--trials", "200"])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert "verdict" not in captured.out
        err = captured.err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "OverflowError" in err and "sample point [" in err and "t = 0.5" in err


class TestUsage:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_no_arguments(self):
        assert main([]) == EXIT_USAGE

    def test_system_and_file_mutually_exclusive(self, tmp_path):
        code = main(["simulate", "--system", "ex5.1", "--file", "x",
                     "--out", str(tmp_path / "t.csv")])
        assert code == EXIT_USAGE
