"""Command-line interface: volumes, expected distances, samples, convergence.

Data goes to stdout, diagnostics to stderr. JSON reports carry a schema number
and the run manifest (command, space, N, seed, workers, version, wall time).
JSON floats are printed in Python's shortest round-trip form and CSV floats
with 17 significant digits, so output parses back without loss; a non-finite
value is refused rather than printed as invalid JSON. Exit codes: 0 success,
2 parse or usage failure (including a negative seed and a quadrature --tol that
cannot be reached), 3 space unsupported for the requested computation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from . import __version__
from .analytic import (
    FULL_FLAG_MIN_TOL,
    PARTIAL_FLAG_MIN_TOL,
    QuadratureError,
    analytic_expected_distance,
    expected_distance_full_flag,
    expected_distance_partial_flag_integral,
    numeric_volume,
)
from .flagspec import (
    FlagSpec,
    FlagSpecParseError,
    OrderedPartition,
    SetPartition,
    flag_volume,
    parse_blocks,
)
from .montecarlo import estimate_expected_distance
from .orthogonal import RngStream, _unit_vectors, sample_rotation_matrices
from .quatcover import _lifts
from .spaces import (
    SPACE_ALIASES,
    UnsupportedSpaceError,
    classify,
    parse_space,
    space_label,
)

_SAMPLE_BATCH = 1 << 15


class UsageError(ValueError):
    """Invalid flag combination or unparseable argument (exit code 2)."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _default_seed(value) -> int:
    if value is not None:
        return value
    env = os.environ.get("ORIFLAG_SEED")
    if env is None:
        return 0
    try:
        return _seed(env)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise UsageError(f"ORIFLAG_SEED must be a nonnegative integer, got {env!r}") from exc


def _report(command: str, space, result: dict, *, n=None, seed=None, workers=None, t0: float) -> int:
    manifest = {
        "schema": 1,
        "command": command,
        "space": space.to_json_dict() if space is not None else None,
        "n": n,
        "seed": seed,
        "workers": workers,
        "version": __version__,
        "wall_time_s": time.perf_counter() - t0,
        "result": result,
    }
    print(json.dumps(manifest, indent=2, allow_nan=False))
    return 0


def _parse_space_arg(args) -> FlagSpec:
    if getattr(args, "space", None):
        return parse_space(args.space)
    if getattr(args, "lam", None):
        try:
            parts = tuple(int(s) for s in args.lam.split(","))
            blocks = parse_blocks(args.blocks) if args.blocks else SetPartition.trivial(len(parts))
            return FlagSpec(OrderedPartition(parts), blocks)
        except (ValueError, FlagSpecParseError) as exc:
            raise FlagSpecParseError(str(exc)) from exc
    raise UsageError("a space is required: --space <alias|spec> or --lambda/--P")


def cmd_volume(args) -> int:
    t0 = time.perf_counter()
    space = _parse_space_arg(args)
    vol = flag_volume(space)
    value = float(vol)
    # A nonzero volume below the double range has no float; 0.0 would read as exact.
    result = {"symbolic": str(vol), "value": value if value or not vol.terms else None}
    if args.numeric:
        numeric = numeric_volume(space, args.tol)
        result["numeric_value"] = numeric
        result["abs_discrepancy"] = abs(numeric - float(vol))
    return _report("volume", space, result, t0=t0)


def _expected_one(space: FlagSpec, mode: str, args, seed) -> dict:
    if mode == "analytic":
        cf = analytic_expected_distance(space)
        return {"mode": "analytic", "symbolic": cf.tag, "value": cf.value}
    if mode == "quadrature":
        family = classify(space).family
        min_tol = {"full-flag": FULL_FLAG_MIN_TOL, "partial-flag": PARTIAL_FLAG_MIN_TOL}.get(family)
        if min_tol is None:
            raise UsageError(
                f"quadrature mode applies to the full or partial flags, not {space_label(space)}"
            )
        if args.tol < min_tol:
            raise UsageError(
                f"--tol must be >= {min_tol:g} for the {family} quadrature, got {args.tol:g}"
            )
        if family == "partial-flag":
            return {
                "mode": "quadrature",
                "value": expected_distance_partial_flag_integral(args.tol),
                "tol": args.tol,
            }
        quad = expected_distance_full_flag(args.tol)
        return {
            "mode": "quadrature",
            "value": quad.value,
            "abs_error_bound": quad.abs_error_bound,
            "evaluations": quad.evaluations,
            "tol": args.tol,
        }
    est = estimate_expected_distance(
        space, args.n, seed=seed, workers=args.workers, two_point=args.two_point
    )
    return {
        "mode": "montecarlo",
        "mean": est.mean,
        "stderr": est.stderr,
        "n": est.n_samples,
        "seed": est.seed,
    }


def cmd_expected(args) -> int:
    t0 = time.perf_counter()
    seed = _default_seed(args.seed)
    if args.all:
        rows = []
        for name, space in SPACE_ALIASES.items():
            cf = analytic_expected_distance(space)
            est = estimate_expected_distance(
                space, args.n, seed=seed, workers=args.workers, two_point=args.two_point
            )
            rows.append(
                {
                    "space": name,
                    "symbolic": cf.tag,
                    "analytic": cf.value,
                    "mean": est.mean,
                    "stderr": est.stderr,
                    "abs_delta": abs(est.mean - cf.value),
                }
            )
        if args.format == "csv":
            print("space,symbolic,analytic,mean,stderr,abs_delta")
            for r in rows:
                print(
                    f"{r['space']},{r['symbolic']},{_fmt(r['analytic'])},"
                    f"{_fmt(r['mean'])},{_fmt(r['stderr'])},{_fmt(r['abs_delta'])}"
                )
            return 0
        return _report(
            args.command, None, {"mode": "all", "rows": rows},
            n=args.n, seed=seed, workers=args.workers, t0=t0,
        )
    space = _parse_space_arg(args)
    mc = args.mode == "montecarlo"
    result = _expected_one(space, args.mode, args, seed)
    return _report(
        args.command, space, result,
        n=args.n if mc else None,
        seed=seed if mc else None,
        workers=args.workers if mc else None,
        t0=t0,
    )


def cmd_estimate(args) -> int:
    args.mode = "montecarlo"
    return cmd_expected(args)


def cmd_analytic(args) -> int:
    args.mode = "analytic"
    return cmd_expected(args)


def cmd_quadrature(args) -> int:
    t0 = time.perf_counter()
    space = parse_space(args.space)
    result = _expected_one(space, "quadrature", args, seed=None)
    return _report(args.command, space, result, t0=t0)


def _sample_rows(space: FlagSpec, n: int, seed: int, lift: bool):
    kern = classify(space)
    if kern.signs is None:
        raise UnsupportedSpaceError(f"nothing to sample for {space_label(space)}")
    sphere = kern.family in ("s2", "rp2")
    d = 3 if sphere else kern.signs.shape[1]
    if lift and (sphere or d != 3):
        raise UsageError("--lift requires a 3x3 rotation space")
    if lift:
        header = ["x", "y", "z", "w"]
    elif sphere:
        header = ["x", "y", "z"]
    else:
        header = [f"m{i}{j}" for i in range(d) for j in range(d)]
    gen = RngStream(seed, 0).generator()

    def batches():
        done = 0
        while done < n:
            m = min(_SAMPLE_BATCH, n - done)
            batch = _unit_vectors(gen, m, 3) if sphere else sample_rotation_matrices(d, m, gen)
            yield _lifts(batch) if lift else batch
            done += m

    return header, batches()


def cmd_sample(args) -> int:
    space = parse_space(args.space)
    seed = _default_seed(args.seed)
    header, batches = _sample_rows(space, args.n, seed, args.lift)
    out = sys.stdout
    if args.format == "csv":
        out.write(",".join(header) + "\n")
        for batch in batches:
            for row in batch.reshape(len(batch), -1):
                out.write(",".join(_fmt(x) for x in row.tolist()) + "\n")
    else:
        encode = json.JSONEncoder(allow_nan=False).encode
        for batch in batches:
            for row in batch:
                out.write(encode(row.tolist()) + "\n")
    return 0


def cmd_convergence(args) -> int:
    try:
        n_list = [int(s) for s in args.n_list.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad --n-list {args.n_list!r}") from exc
    if any(n < 1 for n in n_list) or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise UsageError("--n-list must be strictly increasing positive integers")
    space = parse_space(args.space)
    classify(space)  # an unsupported space exits 3 before the header is printed
    seed = _default_seed(args.seed)
    try:
        reference = analytic_expected_distance(space).value
    except UnsupportedSpaceError:
        reference = None
    print("n,mean,stderr,abs_error")
    for n in n_list:
        est = estimate_expected_distance(space, n, seed=seed, workers=args.workers)
        err = "" if reference is None else _fmt(abs(est.mean - reference))
        print(f"{n},{_fmt(est.mean)},{_fmt(est.stderr)},{err}")
    return 0


def _tolerance(text: str) -> float:
    tol = float(text)
    if not (math.isfinite(tol) and tol > 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text!r}")
    return tol


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _seed(text: str) -> int:
    value = int(text, 0)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return value


def _add_seed_workers(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=_seed, default=None,
                   help="random seed (default: ORIFLAG_SEED env var, else 0)")
    p.add_argument("--workers", "--streams", type=_positive_int, default=1,
                   help="parallel sampling streams")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oriflag",
        description="Volumes and expected distances on partially oriented flag manifolds.",
    )
    parser.add_argument("--version", action="version", version=f"oriflag {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("volume", help="exact (and optionally numeric) volume of a flag manifold")
    p.add_argument("--space", help="space alias or 'lambda=... P=...' text")
    p.add_argument("--lambda", dest="lam", help="comma-separated parts, e.g. 1,1,1")
    p.add_argument("--P", dest="blocks",
                   help="set partition blocks, e.g. {1}{2,3} (default: one block)")
    p.add_argument("--numeric", action="store_true", help="also evaluate the defining integral numerically")
    p.add_argument("--tol", type=_tolerance, default=1e-7, help="numeric integration tolerance")
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("expected", help="expected distance between two random points")
    p.add_argument("--space", help="space alias or 'lambda=... P=...' text")
    p.add_argument("--lambda", dest="lam", help="comma-separated parts")
    p.add_argument("--P", dest="blocks", help="set partition blocks")
    p.add_argument("--mode", choices=["analytic", "quadrature", "montecarlo"], default="analytic")
    p.add_argument("--n", type=_positive_int, default=1_000_000, help="Monte Carlo sample count")
    p.add_argument("--tol", type=_tolerance, default=1e-12, help="quadrature tolerance")
    p.add_argument("--two-point", action="store_true", help="draw both points instead of using the base point")
    p.add_argument("--all", action="store_true", help="comparison table over every SO(3)-derived space")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    _add_seed_workers(p)
    p.set_defaults(func=cmd_expected)

    p = sub.add_parser("estimate", help="Monte Carlo expected distance (expected --mode montecarlo)")
    p.add_argument("--space", required=True)
    p.add_argument("--n", type=_positive_int, default=1_000_000)
    p.add_argument("--two-point", action="store_true")
    _add_seed_workers(p)
    p.set_defaults(func=cmd_estimate, lam=None, blocks=None, tol=1e-12, all=False, format="json")

    p = sub.add_parser("analytic", help="closed-form expected distance")
    p.add_argument("--space", required=True)
    p.set_defaults(
        func=cmd_analytic, lam=None, blocks=None, seed=None, workers=1,
        tol=1e-12, n=None, two_point=False, all=False, format="json",
    )

    p = sub.add_parser("quadrature", help="expected distance by adaptive quadrature")
    p.add_argument("--space", default="full-flag")
    p.add_argument("--tol", type=_tolerance, default=1e-12)
    p.set_defaults(func=cmd_quadrature)

    p = sub.add_parser("sample", help="emit random samples as JSON lines or CSV")
    p.add_argument("--space", required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
    p.add_argument("--lift", action="store_true", help="emit quaternion lifts instead of matrices")
    p.add_argument("--seed", type=_seed, default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("convergence", help="CSV of (N, mean, stderr, |error|) over increasing N")
    p.add_argument("--space", required=True)
    p.add_argument("--n-list", required=True, help="comma-separated increasing sample counts")
    _add_seed_workers(p)
    p.set_defaults(func=cmd_convergence)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (FlagSpecParseError, UsageError, QuadratureError) as exc:
        # In the CLI a quadrature only fails when the user's --tol cannot be reached.
        print(f"oriflag: error: {exc}", file=sys.stderr)
        return 2
    except UnsupportedSpaceError as exc:
        print(f"oriflag: unsupported space: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"oriflag: error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
