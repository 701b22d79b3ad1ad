import argparse
import decimal
import json
import math
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from oriflag import __version__, cli, montecarlo
from oriflag.analytic import FULL_FLAG_MIN_TOL, PARTIAL_FLAG_MIN_TOL
from oriflag.cli import main
from oriflag.flagspec import flag_volume
from oriflag.quatcover import UnitQuaternion, quaternion_to_rotation
from oriflag.spaces import parse_space

FULL_FLAG_REFERENCE = 1.3117250347224445929


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """json.loads that rejects the NaN/Infinity extensions Python accepts."""
    def reject(name):
        raise ValueError(f"{name} is not valid JSON")
    return json.loads(text, parse_constant=reject)


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return strict_json(out)


# -------------------------------------------------------------------- volume

def test_volume_full_flag(capsys):
    report = run_json(capsys, "volume", "--lambda", "1,1,1", "--P", "{1,2,3}")
    assert report["schema"] == 1
    assert report["command"] == "volume"
    assert report["space"] == {"lambda": [1, 1, 1], "P": [[1, 2, 3]]}
    assert report["result"]["symbolic"] == "2*pi^2"
    assert report["result"]["value"] == pytest.approx(2 * math.pi**2, rel=1e-15)


def test_volume_point_and_sphere(capsys):
    report = run_json(capsys, "volume", "--lambda", "3", "--P", "{1}")
    assert report["result"]["symbolic"] == "1"
    assert report["result"]["value"] == 1.0
    report = run_json(capsys, "volume", "--lambda", "1,2", "--P", "{1}{2}")
    assert report["result"]["symbolic"] == "4*pi"
    assert report["result"]["value"] == pytest.approx(4 * math.pi, rel=1e-15)


def test_volume_by_alias_with_numeric_check(capsys):
    report = run_json(capsys, "volume", "--space", "partial-flag-1", "--numeric")
    assert report["result"]["symbolic"] == "4*pi^2"
    assert report["result"]["abs_discrepancy"] <= 1e-5


def test_volume_of_large_rotation_group_is_exact(capsys):
    # the coefficient of Vol SO(200) has more digits than Python's int-to-str
    # limit of 4300; it prints in full and parses back to the exact value
    report = run_json(capsys, "volume", "--space", "so200")
    head, den = report["result"]["symbolic"].split("/")
    num, power = head.split("*pi^")
    assert len(den) > 4300
    coeff = Fraction(int(decimal.Decimal(num)), int(decimal.Decimal(den)))
    assert flag_volume(parse_space("so200")).terms == ((int(power), coeff),)


def test_volume_below_double_range_has_no_float(capsys):
    # Vol SO(200) is far below the smallest double: no float rather than 0.0
    report = run_json(capsys, "volume", "--space", "so200")
    assert report["result"]["value"] is None
    assert flag_volume(parse_space("so200")).terms
    report = run_json(capsys, "volume", "--space", "so3")
    assert report["result"]["value"] == 8 * math.pi**2


def test_volume_numeric_unsupported_exits_3(capsys):
    for argv in (("--lambda", "3", "--P", "{1}"), ("--space", "so4")):
        code, _out, err = run(capsys, "volume", *argv, "--numeric")
        assert code == 3
        assert "unsupported" in err
        assert "FlagSpec(" not in err


def test_volume_parse_failure_exits_2(capsys):
    for argv in (
        ("volume", "--space", "lambda=1,x P={1}"),
        ("volume", "--lambda", "1,1", "--P", "{1}{3}"),
        ("volume", "--space", "so0"),
        # an empty --P fails the grammar of --space; it is not the default one block
        ("volume", "--lambda", "1,2", "--P", ""),
        ("expected", "--lambda", "1,1,1", "--P", "", "--mode", "analytic"),
    ):
        code, out, _err = run(capsys, *argv)
        assert code == 2 and out == "", argv


@pytest.mark.parametrize("lam, blocks, text", [
    ("1,1,1", None, "lambda=1,1,1 P={1,2,3}"),
    ("1,1,1", "{1}{2,3}", "lambda=1,1,1 P={1}{2,3}"),
    ("2,1", "{1,2}", "lambda=2,1 P={1,2}"),
    ("1, 1 ,1", "{1} {2, 3}", "lambda=1, 1 ,1 P={1} {2, 3}"),
], ids=["no-P", "partial-flag", "rp2", "spaces-inside-lists"])
@pytest.mark.parametrize("command", [("volume",), ("expected", "--mode", "analytic")], ids=["volume", "analytic"])
def test_lambda_and_P_name_the_space_of_their_text(capsys, command, lam, blocks, text):
    by_flags = run_json(capsys, *command, "--lambda", lam, *(() if blocks is None else ("--P", blocks)))
    by_text = run_json(capsys, *command, "--space", text)
    assert by_flags["space"] == by_text["space"]
    assert by_flags["result"] == by_text["result"]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_volume_of_son_is_its_complete_flag_of_ones(capsys, n):
    by_name = run_json(capsys, "volume", "--space", f"so{n}")
    by_flag = run_json(capsys, "volume", "--lambda", ",".join(["1"] * n),
                       "--P", "".join(f"{{{i}}}" for i in range(1, n + 1)))
    assert by_name["space"] == by_flag["space"]
    assert by_name["result"] == by_flag["result"]
    if n == 3:
        assert by_name["result"]["symbolic"] == "8*pi^2"


# ------------------------------------------------------------------ expected

def test_expected_analytic_so3(capsys):
    report = run_json(capsys, "expected", "--space", "so3", "--mode", "analytic")
    assert report["result"]["symbolic"] == "2/pi + pi/2"
    assert report["result"]["value"] == pytest.approx(2 / math.pi + math.pi / 2, rel=1e-15)


def test_expected_montecarlo_partial_flag_spec_text(capsys):
    report = run_json(
        capsys,
        "expected", "--space", "lambda=1,1,1 P={1}{2,3}",
        "--mode", "montecarlo", "--n", "40000", "--seed", "7",
    )
    result = report["result"]
    assert result["n"] == 40000 and result["seed"] == 7
    assert abs(result["mean"] - (1 + math.pi / 4)) <= 5 * result["stderr"]


def test_expected_quadrature_full_flag(capsys):
    report = run_json(
        capsys, "expected", "--space", "full-flag", "--mode", "quadrature", "--tol", "1e-12"
    )
    assert abs(report["result"]["value"] - FULL_FLAG_REFERENCE) <= 1e-10
    assert report["result"]["abs_error_bound"] <= 1e-12


def test_quadrature_subcommand_defaults_to_full_flag(capsys):
    report = run_json(capsys, "quadrature", "--tol", "1e-12")
    assert report["command"] == "quadrature"
    assert abs(report["result"]["value"] - FULL_FLAG_REFERENCE) <= 1e-10
    # seventeen significant digits in the emitted JSON
    _code, out, _err = run(capsys, "quadrature", "--tol", "1e-12")
    assert "1.3117250347224445" in out


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1e-9"])
def test_bad_tolerance_is_a_usage_error(capsys, tol):
    for argv in (("quadrature", "--tol", tol),
                 ("expected", "--space", "full-flag", "--mode", "quadrature", "--tol", tol),
                 ("volume", "--space", "full-flag", "--numeric", "--tol", tol)):
        code, out, _err = run(capsys, *argv)
        assert code == 2 and out == "", argv


@pytest.mark.parametrize("argv", [
    ("quadrature", "--tol", "1e-300"),
    ("expected", "--space", "full-flag", "--mode", "quadrature", "--tol", "1e-14"),
])
def test_tolerance_below_full_flag_floor_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"{FULL_FLAG_MIN_TOL:g}" in err


def test_full_flag_floor_tolerance_is_accepted(capsys):
    report = run_json(capsys, "quadrature", "--tol", repr(FULL_FLAG_MIN_TOL))
    assert report["result"]["abs_error_bound"] <= FULL_FLAG_MIN_TOL


@pytest.mark.parametrize("space", ["s2", "rp2", "so3", "partial-flag-1", "full-flag"])
def test_unreachable_numeric_volume_tolerance_is_a_usage_error(capsys, space):
    code, out, err = run(capsys, "volume", "--space", space, "--numeric", "--tol", "1e-13")
    assert code == 2 and out == ""
    assert "subintervals" in err


def test_quadrature_on_partial_flag_uses_double_integral(capsys):
    report = run_json(capsys, "quadrature", "--space", "partial-flag-2", "--tol", "1e-10")
    assert report["result"]["value"] == pytest.approx(1 + math.pi / 4, abs=1e-9)


@pytest.mark.parametrize("argv", [
    ("quadrature", "--space", "partial-flag-1", "--tol", "1e-13"),
    ("expected", "--space", "partial-flag-1", "--mode", "quadrature", "--tol", "1e-13"),
])
def test_tolerance_below_partial_flag_floor_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"{PARTIAL_FLAG_MIN_TOL:g}" in err


def test_partial_flag_floor_tolerance_is_reported_as_given(capsys):
    report = run_json(capsys, "quadrature", "--space", "partial-flag-1",
                      "--tol", repr(PARTIAL_FLAG_MIN_TOL))
    assert report["result"]["tol"] == PARTIAL_FLAG_MIN_TOL


def test_quadrature_mode_rejected_for_closed_form_spaces(capsys):
    code, _out, err = run(capsys, "expected", "--space", "so3", "--mode", "quadrature")
    assert code == 2
    assert "quadrature mode" in err


def test_estimate_alias(capsys):
    report = run_json(capsys, "estimate", "--space", "s2", "--n", "20000", "--seed", "11")
    assert report["command"] == "estimate"
    result = report["result"]
    assert abs(result["mean"] - math.pi / 2) <= 5 * result["stderr"]


def test_analytic_alias(capsys):
    report = run_json(capsys, "analytic", "--space", "rp2")
    assert report["result"]["symbolic"] == "1"
    assert report["result"]["value"] == 1.0


def test_expected_all_table(capsys):
    report = run_json(capsys, "expected", "--all", "--n", "20000", "--seed", "3")
    rows = report["result"]["rows"]
    assert [r["space"] for r in rows] == [
        "so3", "partial-flag-1", "partial-flag-2", "partial-flag-3",
        "full-flag", "s2", "rp2", "trivial-flag",
    ]
    for row in rows:
        slack = 5 * row["stderr"] if row["stderr"] > 0 else 1e-9
        assert row["abs_delta"] <= slack, row["space"]


def test_expected_all_csv(capsys):
    code, out, _err = run(capsys, "expected", "--all", "--n", "5000", "--seed", "3",
                          "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "space,symbolic,analytic,mean,stderr,abs_delta"
    assert len(lines) == 9


def test_expected_all_two_point_draws_both_points(capsys):
    report = run_json(capsys, "expected", "--all", "--n", "2000", "--seed", "3", "--two-point")
    so3 = next(r for r in report["result"]["rows"] if r["space"] == "so3")
    single = run_json(capsys, "estimate", "--space", "so3", "--n", "2000", "--seed", "3",
                      "--two-point")
    assert so3["mean"] == single["result"]["mean"]


@pytest.mark.parametrize("argv, named", [
    (("expected", "--space", "so3", "--format", "csv"), ("--format", "--all")),
    (("expected", "--all", "--space", "so5", "--n", "10"), ("--space", "--all")),
    (("expected", "--space", "so3", "--two-point", "--n", "5", "--seed", "3"),
     ("--two-point", "--n", "--seed")),
    (("expected", "--all", "--mode", "quadrature", "--n", "100", "--format", "csv"), ("--mode",)),
    (("expected", "--space", "full-flag", "--mode", "quadrature", "--workers", "3"), ("--workers",)),
    (("expected", "--space", "so3", "--mode", "montecarlo", "--tol", "1e-3"), ("--tol",)),
    (("expected", "--all", "--mode", "analytic"), ("--mode",)),
    (("expected", "--space", "so3", "--lambda", "1,1,1"), ("--lambda", "--space")),
    (("expected", "--space", "so3", "--P", "{1,2,3}"), ("--P needs --lambda",)),
    (("expected", "--P", "{1,2,3}"), ("--P needs --lambda",)),
    (("volume", "--space", "so3", "--tol", "1e-3"), ("--tol", "--numeric")),
], ids=["csv-without-all", "space-with-all", "montecarlo-flags-in-analytic-mode",
        "mode-with-all", "workers-in-quadrature-mode", "tol-in-montecarlo-mode",
        "analytic-mode-with-all", "space-with-lambda", "P-without-lambda", "P-alone",
        "volume-tol-without-numeric"])
def test_expected_flags_that_would_be_ignored_are_usage_errors(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    for text in named:
        assert text in err


def test_expected_aliases_define_only_flags_their_mode_reads():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name in ("estimate", "analytic", "quadrature"):
        alias = commands.choices[name]
        dests = {a.dest for a in alias._actions if not isinstance(a, argparse._HelpAction)}
        assert dests and dests <= cli._EXPECTED_READS[alias.get_default("mode")], name


def test_expected_requires_space(capsys):
    code, _out, err = run(capsys, "expected", "--mode", "analytic")
    assert code == 2
    assert "space is required" in err


def test_unsupported_estimate_space_exits_3(capsys):
    code, _out, _err = run(capsys, "estimate", "--space", "lambda=2,2 P={1,2}", "--n", "10")
    assert code == 3


def test_so4_estimate_matches_its_flag_text(capsys):
    by_name = run_json(capsys, "estimate", "--space", "so4", "--n", "500", "--seed", "3")
    by_flag = run_json(capsys, "estimate", "--space", "lambda=1,1,1,1 P={1}{2}{3}{4}",
                       "--n", "500", "--seed", "3")
    assert by_name["result"] == by_flag["result"]


@pytest.mark.parametrize("argv, env", [
    (("estimate", "--space", "so3", "--n", "10", "--seed", "-1"), None),
    (("sample", "--space", "so3", "--n", "2", "--seed", "-5"), None),
    (("estimate", "--space", "so3", "--n", "10"), "-3"),
    (("convergence", "--space", "rp2", "--n-list", "10,20", "--seed", "-1"), None),
])
def test_negative_seed_is_a_usage_error(capsys, monkeypatch, argv, env):
    if env is not None:
        monkeypatch.setenv("ORIFLAG_SEED", env)
    code, out, _err = run(capsys, *argv)
    assert code == 2 and out == ""


def test_env_seed_default(capsys, monkeypatch):
    monkeypatch.setenv("ORIFLAG_SEED", "123")
    report = run_json(capsys, "estimate", "--space", "s2", "--n", "100")
    assert report["result"]["seed"] == 123
    monkeypatch.setenv("ORIFLAG_SEED", "not-a-number")
    code, _out, _err = run(capsys, "estimate", "--space", "s2", "--n", "100")
    assert code == 2



@pytest.mark.parametrize("argv", [
    ("analytic", "--space", "so3"),
    ("expected", "--space", "so3", "--mode", "analytic"),
    ("expected", "--space", "full-flag", "--mode", "quadrature"),
    ("quadrature", "--space", "partial-flag-1"),
])
def test_env_seed_is_not_read_where_nothing_is_drawn(capsys, monkeypatch, argv):
    monkeypatch.setenv("ORIFLAG_SEED", "not-a-number")
    report = run_json(capsys, *argv)
    assert report["seed"] is None and report["n"] is None and report["workers"] is None

# -------------------------------------------------------------------- sample

def test_sample_rotations_are_valid_and_deterministic(capsys):
    code1, out1, _ = run(capsys, "sample", "--space", "so3", "--n", "2", "--seed", "1")
    code2, out2, _ = run(capsys, "sample", "--space", "so3", "--n", "2", "--seed", "1")
    assert code1 == code2 == 0
    assert out1 == out2  # byte identical
    rows = [strict_json(line) for line in out1.strip().splitlines()]
    assert len(rows) == 2
    for row in rows:
        q = np.array(row)
        assert np.abs(q.T @ q - np.eye(3)).max() <= 1e-12
        assert abs(np.linalg.det(q) - 1.0) <= 1e-10
    # SO(1) is a point, but still draws its one 1x1 rotation per row
    code, out, _ = run(capsys, "sample", "--space", "so1", "--n", "2", "--seed", "1")
    assert code == 0 and [strict_json(line) for line in out.splitlines()] == [[[1.0]], [[1.0]]]


def test_sample_sphere_unit_norm(capsys):
    _code, out, _ = run(capsys, "sample", "--space", "s2", "--n", "50", "--seed", "4")
    rows = np.array([strict_json(line) for line in out.strip().splitlines()])
    assert rows.shape == (50, 3)
    assert np.abs(np.linalg.norm(rows, axis=1) - 1.0).max() <= 1e-12


def test_sample_csv_and_lift(capsys):
    _code, out, _ = run(capsys, "sample", "--space", "so3", "--n", "3", "--seed", "2",
                        "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "m00,m01,m02,m10,m11,m12,m20,m21,m22"
    assert len(lines) == 4
    _code, out, _ = run(capsys, "sample", "--space", "full-flag", "--n", "3", "--seed", "2",
                        "--lift")
    quats = np.array([strict_json(line) for line in out.strip().splitlines()])
    assert quats.shape == (3, 4)
    assert np.abs(np.linalg.norm(quats, axis=1) - 1.0).max() <= 1e-12
    assert np.all(quats[:, 0] >= 0.0)


def test_sample_lifts_cover_the_sampled_matrices(capsys, monkeypatch):
    monkeypatch.setattr(montecarlo, "_BATCH", 7)  # 20 rows cross two batch boundaries
    argv = ("sample", "--space", "full-flag", "--n", "20", "--seed", "6")
    _code, out, _ = run(capsys, *argv)
    matrices = [np.array(strict_json(line)) for line in out.strip().splitlines()]
    _code, out, _ = run(capsys, *argv, "--lift")
    lifts = [strict_json(line) for line in out.strip().splitlines()]
    assert len(matrices) == len(lifts) == 20
    for m, q in zip(matrices, lifts):
        assert np.abs(quaternion_to_rotation(UnitQuaternion(*q)).matrix - m).max() <= 1e-12


def per_row_writer(header, batches, csv):
    """Reference output: one JSONEncoder(allow_nan=False) or format(x, ".17g") line per row."""
    encode = json.JSONEncoder(allow_nan=False).encode
    lines = [",".join(header)] if csv else []
    for batch in batches:
        for row in batch:
            lines.append(",".join(format(x, ".17g") for x in row.ravel().tolist()) if csv
                         else encode(row.tolist()))
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("space, extra", [
    ("so1", ()), ("so3", ()), ("so5", ("--format", "csv")), ("so16", ()),
    ("s2", ("--format", "csv")), ("rp2", ()), ("full-flag", ("--lift",)),
])
def test_sample_output_is_byte_identical_to_a_per_row_writer(capsys, monkeypatch, space, extra):
    monkeypatch.setattr(montecarlo, "_BATCH", 40)
    monkeypatch.setattr(montecarlo, "_BATCH_BYTES", 1 << 16)  # so16: 5 rows a batch
    monkeypatch.setattr(cli, "_SLICE", 36)
    header, batches = cli._sample_rows(parse_space(space), 100, 9, "--lift" in extra)
    batches = list(batches)
    rows = max(1, cli._SLICE // len(header))
    assert len(batches) >= 3 and len(batches[0]) > rows  # batch and slice boundaries inside N
    code, out, err = run(capsys, "sample", "--space", space, "--n", "100", "--seed", "9", *extra)
    assert code == 0, err
    assert out == per_row_writer(header, batches, "csv" in extra)


def test_sample_refuses_a_non_finite_slice_whole(capsys, monkeypatch):
    def poisoned(*args):
        for i, batch in enumerate(point_batches(*args)):
            if i == 0:
                batch[5, 1, 2] = np.nan  # so3 rows go 4 to a slice: the second slice
            yield batch

    point_batches = cli._point_batches
    monkeypatch.setattr(cli, "_point_batches", poisoned)
    monkeypatch.setattr(cli, "_SLICE", 36)
    code, out, err = run(capsys, "sample", "--space", "so3", "--n", "20", "--seed", "3")
    assert code == 1 and err.startswith("oriflag: error:")
    assert "NaN" not in out and "nan" not in out
    assert len([strict_json(line) for line in out.splitlines()]) == 4


def test_sample_validation(capsys):
    code, _out, _err = run(capsys, "sample", "--space", "so3", "--n", "0")
    assert code == 2
    code, _out, _err = run(capsys, "sample", "--space", "s2", "--n", "1", "--lift")
    assert code == 2
    code, _out, _err = run(capsys, "sample", "--space", "trivial-flag", "--n", "1")
    assert code == 3


def _env_importing_src():
    """The environment for a ``python -m oriflag.cli`` child that imports this checkout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


# Runs each command in a grandchild, so RUSAGE_CHILDREN sees that command alone.
_RUSAGE_SCRIPT = """
import resource, subprocess, sys
code = subprocess.run(sys.argv[1:], capture_output=True, timeout=60).returncode
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
print(code, usage.ru_utime + usage.ru_stime, usage.ru_maxrss)
"""


@pytest.mark.parametrize("command", [
    ("estimate", "--n", "10"), ("analytic",), ("sample", "--n", "10"), ("quadrature",),
], ids=["estimate", "analytic", "sample", "quadrature"])
def test_oversized_isotropy_group_exits_3_before_it_is_built(command):
    # The full flag of SO(30) has 2^29 sign rows, about 129 GB of table.
    space = "lambda=" + ",".join(["1"] * 30) + " P={" + ",".join(map(str, range(1, 31))) + "}"
    env = _env_importing_src()
    argv = [sys.executable, "-m", "oriflag.cli", command[0], "--space", space, *command[1:]]
    proc = subprocess.run([sys.executable, "-c", _RUSAGE_SCRIPT, *argv], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    code, cpu_s, peak_kb = proc.stdout.split()
    assert code == "3"
    assert float(cpu_s) < 1.0
    assert int(peak_kb) < 150 * 1024


@pytest.mark.parametrize("argv, lines", [
    (("sample", "--space", "so3", "--n", "100000"), 1),  # far more than a pipe buffer holds
    (("expected", "--space", "so3"), 0),  # closed before the one small report is written
], ids=["sample", "expected"])
def test_closed_stdout_exits_quietly(argv, lines):
    proc = subprocess.Popen([sys.executable, "-m", "oriflag.cli", *argv], env=_env_importing_src(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    for _ in range(lines):
        assert proc.stdout.readline().startswith("[[")
    proc.stdout.close()
    _out, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert "Traceback" not in err and "Exception ignored" not in err, err


@pytest.mark.parametrize("argv", [
    ("estimate", "--space", "s2", "--n", "10", "--workers", "0"),
    ("estimate", "--space", "s2", "--n", "0"),
    ("estimate", "--space", "s2", "--n", "-5"),
    ("expected", "--space", "s2", "--mode", "montecarlo", "--n", "0"),
    ("convergence", "--space", "s2", "--n-list", "10,100", "--workers", "0"),
    ("sample", "--space", "so3", "--n", "-5"),
])
def test_nonpositive_count_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "positive integer" in err


# --------------------------------------------------------------- convergence

def test_convergence_table_rp2(capsys):
    code, out, _ = run(capsys, "convergence", "--space", "rp2",
                       "--n-list", "1000,10000,100000", "--seed", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,mean,stderr,abs_error"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [1000, 10000, 100000]
    stderrs = [float(r[2]) for r in rows]
    # stderr shrinks roughly like 1/sqrt(N): a factor 10 in N gives ~3.16
    assert stderrs[0] > stderrs[1] > stderrs[2]
    assert stderrs[0] / stderrs[2] == pytest.approx(10.0, rel=0.35)
    final = rows[-1]
    assert abs(float(final[1]) - 1.0) <= 5 * float(final[2])


def test_convergence_so3_stderr_halves_per_quadrupled_n(capsys):
    _code, out, _ = run(capsys, "convergence", "--space", "so3",
                        "--n-list", "1000,4000,16000", "--seed", "9")
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    stderrs = [float(r[2]) for r in rows]
    for bigger, smaller in zip(stderrs, stderrs[1:]):
        assert smaller / bigger == pytest.approx(0.5, rel=0.2)


def test_streams_flag_is_an_alias_for_workers(capsys):
    a = run_json(capsys, "estimate", "--space", "s2", "--n", "4000",
                 "--seed", "2", "--workers", "3")
    b = run_json(capsys, "estimate", "--space", "s2", "--n", "4000",
                 "--seed", "2", "--streams", "3")
    assert a["result"] == b["result"]


def test_convergence_trivial_flag_is_exactly_zero(capsys):
    _code, out, _ = run(capsys, "convergence", "--space", "trivial-flag",
                        "--n-list", "10,100", "--seed", "1")
    for line in out.strip().splitlines()[1:]:
        n, mean, stderr, err = line.split(",")
        assert mean == "0" and stderr == "0" and err == "0"


def test_convergence_unsupported_space_prints_nothing(capsys):
    code, out, err = run(capsys, "convergence", "--space", "lambda=2,2 P={1,2}",
                         "--n-list", "10,20")
    assert code == 3
    assert out == ""
    assert "unsupported" in err


def test_convergence_rejects_bad_lists(capsys):
    code, _out, _err = run(capsys, "convergence", "--space", "so3", "--n-list", "100,50")
    assert code == 2
    code, _out, _err = run(capsys, "convergence", "--space", "so3", "--n-list", "a,b")
    assert code == 2


# ----------------------------------------------------------------- misc

def test_json_floats_roundtrip_losslessly(capsys):
    report = run_json(capsys, "volume", "--space", "so3")
    assert report["result"]["value"] == float(8 * math.pi**2)


def test_manifest_fields_present(capsys):
    report = run_json(capsys, "analytic", "--space", "so3")
    for key in ("schema", "command", "space", "n", "seed", "workers",
                "version", "wall_time_s", "result"):
        assert key in report
    assert report["version"] == __version__


def test_manifest_reproducible_result_payload(capsys):
    a = run_json(capsys, "estimate", "--space", "so3", "--n", "5000",
                 "--seed", "8", "--workers", "2")
    b = run_json(capsys, "estimate", "--space", "so3", "--n", "5000",
                 "--seed", "8", "--workers", "2")
    assert a["result"] == b["result"]
    assert a["wall_time_s"] != 0.0


def test_unknown_command_exits_2(capsys):
    code, _out, _err = run(capsys, "frobnicate")
    assert code == 2


def test_readme_command_lines_parse():
    # Parse (never run) every line of the README's command-line block.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.strip()]
    assert len(lines) >= 9
    parser = cli.build_parser()
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "oriflag", line
        parser.parse_args(argv[1:])
