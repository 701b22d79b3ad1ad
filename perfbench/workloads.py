"""The benchmark's workloads: their ops, the inputs drawn from the seed, checks.

Every workload is a closed loop with one client in this process, on one
thread. A round runs the workload's ops one after another, each starting when
the previous one has ended. All rounds of a run replay the inputs drawn once
from the seed, so every replay must reproduce the first round's output
exactly, and per-round counts are exact.

An op's ``run`` makes one call into oriflag and returns its output; its
``check`` raises ValueError when that output is wrong and otherwise returns a
fingerprint that replays are compared with.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import resource
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle
from tracer import Tracer

FULL_FLAG = 1.3117250347224445929
SO3 = 2.0 / math.pi + 0.5 * math.pi
PARTIAL_FLAG = 1.0 + 0.25 * math.pi
FULL_FLAG_VOLUME = 2.0 * math.pi**2

# A Monte Carlo mean further than this many standard errors from its
# reference fails the op.
Z_MAX = 5.0

MC_SO3_SAMPLES = 1 << 14
MC_SON_SAMPLES = 500
CLI_ROWS = 10000
CLI_TWO_POINT_SAMPLES = 30000
CLI_CONVERGENCE = (1000, 10000, 100000)

# Every workload entry that estimates an expected distance, for the
# per-entry Monte Carlo rates of the traced run.
RATE_ENTRIES = (
    "so3", "partial-flag-1", "full-flag", "s2", "rp2", "so3-2pt", "full-flag-2pt",
    "so4", "so5", "full-flag-4", "partial-flag-4", "so4-2pt",
)


@dataclass
class Op:
    name: str        # entry label, unique within its workload
    samples: int     # Monte Carlo samples or output rows the op produces
    two_point: bool
    args: tuple      # the op's inputs, recorded in the provenance block
    run: Callable
    check: Callable
    rows: bool = False  # cli output made of rows, with no wall-clock field


@dataclass
class Outcome:
    latency_s: float
    fingerprint: object = None
    error: str | None = None


def _seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1, 2**31) for _ in range(count)]


# --------------------------------------------------------------- Monte Carlo


def _near(reference: float, samples: int) -> Callable:
    def check(est):
        if est.n_samples != samples or not est.stderr > 0.0:
            raise ValueError(f"n_samples {est.n_samples}, stderr {est.stderr!r}")
        z = (est.mean - reference) / est.stderr
        if not abs(z) <= Z_MAX:
            raise ValueError(f"mean {est.mean!r} is {z:+.2f} stderr from {reference!r}")
        return est.mean, est.stderr, est.n_samples
    return check


def _within(upper: float, samples: int) -> Callable:
    """For quotients with no reference value: 0 < mean < diameter of SO(n)."""
    def check(est):
        if est.n_samples != samples or not est.stderr > 0.0:
            raise ValueError(f"n_samples {est.n_samples}, stderr {est.stderr!r}")
        if not 0.0 < est.mean < upper:
            raise ValueError(f"mean {est.mean!r} outside (0, {upper!r})")
        return est.mean, est.stderr, est.n_samples
    return check


class Workload:
    """A list of ops run in this process, traced on request."""

    def __init__(self, ops: list[Op]) -> None:
        self.ops = ops
        self.tracer = Tracer()
        self.output_bytes = 0

    def warm_up(self) -> None:
        """One untimed pass, so lazy imports and first-call set-up are done."""
        for op in self.ops:
            try:
                op.run()
            except Exception:  # counted when the timed rounds run it
                pass

    def execute(self, i: int, op_id: int, traced: bool) -> Outcome:
        op = self.ops[i]
        self.tracer.op = op_id
        t0 = time.perf_counter()
        try:
            output = op.run()
        except Exception as exc:  # a failing op is counted, the run goes on
            return Outcome(time.perf_counter() - t0, error=repr(exc))
        latency = time.perf_counter() - t0
        if traced and op.rows:
            self.output_bytes += len(output.encode())
        try:
            return Outcome(latency, op.check(output))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return Outcome(latency, error=f"bad output: {exc!r}")

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def final_checks(self, first: dict) -> list[str]:
        return []


def _estimates(entries, seed: int) -> list[Op]:
    """``estimate_expected_distance`` ops with workers=1, one seed per entry."""
    import oriflag

    ops = []
    for (name, text, two_point, samples, check), s in zip(entries, _seeds(seed, len(entries))):
        space = oriflag.parse_space(text)

        def run(space=space, samples=samples, s=s, two_point=two_point):
            # Looked up at call time, so a traced round goes through the wrapper.
            return oriflag.estimate_expected_distance(space, samples, seed=s, workers=1,
                                                      two_point=two_point)

        ops.append(Op(name, samples, two_point, (text, s), run, check))
    return ops


def mc_so3(seed: int) -> Workload:
    """The paper's SO(3) table: batched 3x3 QR, one and two points."""
    n = MC_SO3_SAMPLES
    return Workload(_estimates([
        ("so3", "so3", False, n, _near(SO3, n)),
        ("partial-flag-1", "partial-flag-1", False, n, _near(PARTIAL_FLAG, n)),
        ("full-flag", "full-flag", False, n, _near(FULL_FLAG, n)),
        ("s2", "s2", False, n, _near(0.5 * math.pi, n)),
        ("rp2", "rp2", False, n, _near(1.0, n)),
        ("so3-2pt", "so3", True, n, _near(SO3, n)),
        ("full-flag-2pt", "full-flag", True, n, _near(FULL_FLAG, n)),
    ], seed))


class SONWorkload(Workload):
    def final_checks(self, first: dict) -> list[str]:
        errors = [f"Weyl reference for SO({n}) not converged" for n in (4, 5) if not oracle.converged(n)]
        # Larger isotropy groups can only shorten the distance to the orbit.
        chain = ("full-flag-4", "partial-flag-4", "so4")
        for small, large in zip(chain, chain[1:]):
            if first.get(small) is None or first.get(large) is None:
                continue
            (m1, s1, _), (m2, s2, _) = first[small], first[large]
            if m1 > m2 + Z_MAX * math.hypot(s1, s2):
                errors.append(f"{small} mean {m1!r} exceeds {large} mean {m2!r}")
        return errors


def mc_son(seed: int) -> Workload:
    """The general-n path: per-sample Schur angles times |SG|."""
    n = MC_SON_SAMPLES
    so4, so5 = oracle.weyl_expected_distance(4), oracle.weyl_expected_distance(5)
    diameter4 = math.pi * math.sqrt(2.0)
    return SONWorkload(_estimates([
        ("so4", "so4", False, n, _near(so4, n)),
        ("so5", "so5", False, n, _near(so5, n)),
        ("full-flag-4", "lambda=1,1,1,1 P={1,2,3,4}", False, n, _within(diameter4, n)),
        ("partial-flag-4", "lambda=1,1,1,1 P={1,2}{3,4}", False, n, _within(diameter4, n)),
        ("so4-2pt", "so4", True, n, _near(so4, n)),
    ], seed))


# ----------------------------------------------------------------------- cli


def _reject_constant(name: str):
    raise ValueError(f"{name} is not valid JSON")


def _strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def _close(value, reference: float, tol: float, what: str) -> None:
    if not abs(value - reference) <= tol:
        raise ValueError(f"{what} {value!r} differs from {reference!r} by more than {tol:g}")


def _report(check: Callable) -> Callable:
    """A JSON report; the fingerprint leaves out the wall time."""
    def run(out: str):
        doc = _strict_json(out)
        check(doc["result"])
        doc.pop("wall_time_s")
        return json.dumps(doc, sort_keys=True)
    return run


def _volume(r) -> None:
    if r["symbolic"] != "2*pi^2":
        raise ValueError(f"symbolic volume {r['symbolic']!r}")
    _close(r["value"], FULL_FLAG_VOLUME, 1e-12, "volume")
    _close(r["numeric_value"], FULL_FLAG_VOLUME, 1e-7, "numeric volume")


def _analytic_so3(r) -> None:
    _close(r["value"], SO3, 1e-12, "SO(3) expectation")


def _quadrature_full(r) -> None:
    _close(r["value"], FULL_FLAG, 1e-10, "full-flag quadrature")


def _quadrature_partial(r) -> None:
    _close(r["value"], PARTIAL_FLAG, 1e-10, "partial-flag quadrature")


def _two_point_full(r) -> None:
    if r["n"] != CLI_TWO_POINT_SAMPLES or not r["stderr"] > 0.0:
        raise ValueError(f"n {r['n']}, stderr {r['stderr']!r}")
    _close(r["mean"], FULL_FLAG, Z_MAX * r["stderr"], "two-point full-flag mean")


def _digest(out: str) -> str:
    return hashlib.sha256(out.encode()).hexdigest()


def _convergence(out: str):
    lines = out.splitlines()
    if lines[0] != "n,mean,stderr,abs_error" or len(lines) != 1 + len(CLI_CONVERGENCE):
        raise ValueError(f"unexpected convergence table {lines[:2]!r}")
    for line, n in zip(lines[1:], CLI_CONVERGENCE):
        fields = line.split(",")
        if int(fields[0]) != n:
            raise ValueError(f"row {line!r}, expected n={n}")
        _close(float(fields[1]), 1.0, Z_MAX * float(fields[2]), f"rp2 mean at n={n}")
    return _digest(out)


def _rows(out: str) -> np.ndarray:
    rows = np.array([_strict_json(line) for line in out.splitlines()], dtype=float)
    if len(rows) != CLI_ROWS:
        raise ValueError(f"{len(rows)} rows, expected {CLI_ROWS}")
    return rows


def _rotations(out: str):
    m = _rows(out)
    if m.shape[1:] != (3, 3):
        raise ValueError(f"rows of shape {m.shape[1:]}, expected 3x3")
    defect = np.abs(m @ m.transpose(0, 2, 1) - np.eye(3)).max()
    det = np.abs(np.linalg.det(m) - 1.0).max()
    if not (defect <= 1e-12 and det <= 1e-12):
        raise ValueError(f"max |M M^T - I| = {defect:.3g}, max |det - 1| = {det:.3g}")
    return _digest(out)


def _quaternions(out: str):
    q = _rows(out)
    if q.shape[1:] != (4,):
        raise ValueError(f"rows of shape {q.shape[1:]}, expected 4")
    defect = np.abs(np.linalg.norm(q, axis=1) - 1.0).max()
    if not defect <= 1e-12:
        raise ValueError(f"max |norm - 1| = {defect:.3g}")
    return _digest(out)


def _command(argv: tuple) -> Callable:
    """``oriflag.cli.main(argv)`` with stdout captured; raises on a non-zero exit."""
    import oriflag.cli

    def run() -> str:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = oriflag.cli.main(list(argv))
        if code != 0:
            raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
        return out.getvalue()

    return run


def cli(seed: int) -> Workload:
    """The README commands through the CLI entry point, stdout captured."""
    s_conv, s_rot, s_lift, s_two = (str(s) for s in _seeds(seed, 4))
    n_list = ",".join(str(n) for n in CLI_CONVERGENCE)
    rows = str(CLI_ROWS)
    commands = [
        ("volume", 0, False, ("volume", "--lambda", "1,1,1", "--P", "{1,2,3}", "--numeric"),
         _report(_volume)),
        ("analytic-so3", 0, False, ("expected", "--space", "so3", "--mode", "analytic"),
         _report(_analytic_so3)),
        ("quadrature", 0, False, ("quadrature", "--tol", "1e-12"), _report(_quadrature_full)),
        ("quadrature-partial-flag-1", 0, False,
         ("expected", "--space", "partial-flag-1", "--mode", "quadrature"), _report(_quadrature_partial)),
        ("rp2", sum(CLI_CONVERGENCE), False,
         ("convergence", "--space", "rp2", "--n-list", n_list, "--seed", s_conv), _convergence),
        ("sample-so3", CLI_ROWS, False, ("sample", "--space", "so3", "--n", rows, "--seed", s_rot),
         _rotations),
        ("sample-full-flag-lift", CLI_ROWS, False,
         ("sample", "--space", "full-flag", "--n", rows, "--lift", "--seed", s_lift), _quaternions),
        ("full-flag-2pt", CLI_TWO_POINT_SAMPLES, True,
         ("estimate", "--space", "full-flag", "--n", str(CLI_TWO_POINT_SAMPLES), "--two-point",
          "--seed", s_two), _report(_two_point_full)),
    ]
    return Workload([
        Op(name, samples, two_point, argv, _command(argv), check,
           rows=check in (_convergence, _rotations, _quaternions))
        for name, samples, two_point, argv, check in commands
    ])
