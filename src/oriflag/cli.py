"""Command-line interface: volumes, expected distances, samples, convergence.

Data goes to stdout, diagnostics to stderr. JSON reports carry a schema number
and the run manifest (command, space, N, seed, workers, version, wall time).
JSON floats are printed in Python's shortest round-trip form and CSV floats
with 17 significant digits, so output parses back without loss; a non-finite
value is refused rather than printed as invalid JSON. ``sample`` writes its
rows in slices of at most 2**15 values, one string per slice through a row
template, with the same bytes as a per-row writer; a JSON slice holding a
non-finite value is refused whole (exit 1), so every line written is valid.
Exit codes: 0 success, 2 parse or usage failure (including a negative seed,
quadrature mode on a space that has no quadrature, a quadrature --tol that
cannot be reached, and a flag the chosen form does not read), 3 space
unsupported for the requested computation, 141 stdout closed before the output
ended (a reader such as ``head`` exited), with no traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .analytic import QuadratureError, _quadrature, analytic_expected_distance, numeric_volume
from .flagspec import FlagSpec, FlagSpecParseError, SetPartition, flag_volume
from .montecarlo import _point_batches, estimate_expected_distance
from .orthogonal import RngStream
from .quatcover import _lifts
from .spaces import (
    SPACE_ALIASES,
    UnsupportedSpaceError,
    classify,
    parse_space,
    space_label,
)


# Values formatted per write of ``oriflag sample``: one string per slice of rows.
_SLICE = 1 << 15


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
    """``--space``, or ``--lambda X --P Y`` read as ``lambda=X P=Y`` (``--P`` defaults to one block)."""
    if args.blocks is not None and args.lam is None:
        raise UsageError("--P needs --lambda")
    if args.space:
        return parse_space(args.space)
    if args.lam is not None:
        blocks = SetPartition.trivial(len(args.lam.split(","))) if args.blocks is None else args.blocks
        return parse_space(f"lambda={args.lam} P={blocks}")
    raise UsageError("a space is required: --space <alias|spec> or --lambda/--P")


def cmd_volume(args) -> int:
    t0 = time.perf_counter()
    if args.tol is not None and not args.numeric:
        raise UsageError("--tol applies only with --numeric")
    space = _parse_space_arg(args)
    vol = flag_volume(space)
    value = float(vol)
    # A nonzero volume below the double range has no float; 0.0 would read as exact.
    result = {"symbolic": str(vol), "value": value if value or not vol.terms else None}
    if args.numeric:
        numeric = numeric_volume(space, 1e-7 if args.tol is None else args.tol)
        result["numeric_value"] = numeric.value
        result["abs_error_bound"] = numeric.abs_error_bound
        result["evaluations"] = numeric.evaluations
        result["abs_discrepancy"] = abs(numeric.value - value)
    return _report("volume", space, result, t0=t0)


def _expected_one(space: FlagSpec, args) -> dict:
    if args.mode == "analytic":
        cf = analytic_expected_distance(space)
        return {"mode": "analytic", "symbolic": cf.tag, "value": cf.value}
    if args.mode == "quadrature":
        classify(space)  # an unsupported space exits 3, not 2 for want of a quadrature
        try:
            quad = _quadrature(space, args.tol)
        except ValueError as exc:  # no quadrature for this family, or --tol below its floor
            raise UsageError(f"quadrature mode: {exc}") from exc
        return {
            "mode": "quadrature",
            "value": quad.value,
            "abs_error_bound": quad.abs_error_bound,
            "evaluations": quad.evaluations,
            "tol": args.tol,
        }
    est = estimate_expected_distance(
        space, args.n, seed=args.seed, workers=args.workers, two_point=args.two_point
    )
    return {
        "mode": "montecarlo",
        "mean": est.mean,
        "stderr": est.stderr,
        "n": est.n_samples,
        "seed": est.seed,
    }


# The argparse dests each form of ``expected`` reads; giving any other is a usage error.
_EXPECTED_READS = {
    "analytic": {"space", "lam", "blocks", "mode"},
    "quadrature": {"space", "lam", "blocks", "mode", "tol"},
    "montecarlo": {"space", "lam", "blocks", "mode", "n", "two_point", "seed", "workers"},
    "all": {"all", "n", "two_point", "format", "seed", "workers"},
}
_EXPECTED_DEFAULTS = dict(space=None, lam=None, blocks=None, mode="analytic", n=1_000_000, tol=1e-12,
                          two_point=False, all=False, format="json", seed=None, workers=1)


def cmd_expected(args) -> int:
    t0 = time.perf_counter()
    given = vars(args).keys() - {"command", "func"}
    args = argparse.Namespace(**{**_EXPECTED_DEFAULTS, **vars(args)})
    form = "all" if args.all else args.mode
    reads = _EXPECTED_READS[form]
    if given - reads:  # name each flag given that this form does not read, and the forms that do
        label = {f: "--all" if f == "all" else f"--mode {f}" for f in _EXPECTED_READS}
        flag = {"lam": "--lambda", "blocks": "--P"}
        raise UsageError(f"expected {label[form]} does not read " + ", ".join(
            f"{flag.get(d, '--' + d.replace('_', '-'))} (read with "
            f"{' or '.join(label[f] for f, r in _EXPECTED_READS.items() if d in r)})"
            for d in sorted(given - reads)))
    if "seed" in reads:  # only a form that draws reads ORIFLAG_SEED
        args.seed = _default_seed(args.seed)
    run = {dest: getattr(args, dest) for dest in ("n", "seed", "workers") if dest in reads}
    if args.all:
        rows = []
        for name, space in SPACE_ALIASES.items():
            cf = analytic_expected_distance(space)
            est = estimate_expected_distance(
                space, args.n, seed=args.seed, workers=args.workers, two_point=args.two_point
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
            print(",".join(rows[0]))
            for r in rows:
                print(",".join(v if isinstance(v, str) else _fmt(v) for v in r.values()))
            return 0
        return _report(args.command, None, {"mode": "all", "rows": rows}, **run, t0=t0)
    space = _parse_space_arg(args)
    return _report(args.command, space, _expected_one(space, args), **run, t0=t0)


def _sample_rows(space: FlagSpec, n: int, seed: int, lift: bool):
    kern = classify(space)
    if not kern.shape:
        raise UnsupportedSpaceError(f"nothing to sample for {space_label(space)}")
    if lift and kern.shape != (3, 3):
        raise UsageError("--lift requires a 3x3 rotation space")
    if lift:
        header = ["x", "y", "z", "w"]
    elif len(kern.shape) == 1:
        header = ["x", "y", "z"]
    else:
        header = [f"m{i}{j}" for i in range(kern.shape[0]) for j in range(kern.shape[1])]
    batches = _point_batches(kern, RngStream(seed, 0).generator(), n)
    return header, map(_lifts, batches) if lift else batches


def cmd_sample(args) -> int:
    space = parse_space(args.space)
    seed = _default_seed(args.seed)
    header, batches = _sample_rows(space, args.n, seed, args.lift)
    csv = args.format == "csv"
    out = sys.stdout
    if csv:
        out.write(",".join(header) + "\n")
    rows = max(1, _SLICE // len(header))
    for batch in batches:
        # One row template: %.17g is format(x, ".17g"); %r is float.__repr__, and with
        # json.dumps' ", " separators that is JSONEncoder's output byte for byte.
        line = (",".join(["%.17g"] * len(header)) if csv else
                json.dumps(np.zeros(batch.shape[1:]).tolist()).replace("0.0", "%r")) + "\n"
        for start in range(0, len(batch), rows):
            part = batch[start:start + rows]
            if not csv and not np.isfinite(part).all():
                raise ValueError("a sample is not finite; JSON has no value for it")
            out.write((line * len(part)) % tuple(part.ravel().tolist()))
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
    p.add_argument("--seed", type=_seed, help="random seed (default: ORIFLAG_SEED env var, else 0)")
    p.add_argument(
        "--workers", "--streams", type=_positive_int, help="sampling threads; the estimate does not depend on them"
    )


def _add_space_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument("--space", help="space alias or 'lambda=... P=...' text")
    group.add_argument("--lambda", dest="lam", help="comma-separated parts, e.g. 1,1,1")
    p.add_argument("--P", dest="blocks", help="set partition blocks, e.g. {1}{2,3} (default: one block)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oriflag",
        description="Volumes and expected distances on partially oriented flag manifolds.",
    )
    parser.add_argument("--version", action="version", version=f"oriflag {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("volume", help="exact (and optionally numeric) volume of a flag manifold")
    _add_space_flags(p)
    p.add_argument("--numeric", action="store_true", help="also evaluate the defining integral numerically")
    p.add_argument("--tol", type=_tolerance, help="numeric integration tolerance (default: 1e-7)")
    p.set_defaults(func=cmd_volume)

    # These four leave a flag not given unset, so _add_seed_workers sets no default=;
    # cmd_expected checks what was given, then fills in _EXPECTED_DEFAULTS.
    unset = dict(argument_default=argparse.SUPPRESS)
    p = sub.add_parser("expected", help="expected distance between two random points", **unset)
    _add_space_flags(p)
    p.add_argument("--mode", choices=["analytic", "quadrature", "montecarlo"])
    p.add_argument("--n", type=_positive_int, help="Monte Carlo sample count")
    p.add_argument("--tol", type=_tolerance, help="quadrature tolerance")
    p.add_argument("--two-point", action="store_true", help="draw both points instead of using the base point")
    p.add_argument("--all", action="store_true", help="comparison table over every SO(3)-derived space")
    p.add_argument("--format", choices=["json", "csv"], help="format of the --all table")
    _add_seed_workers(p)
    p.set_defaults(func=cmd_expected)

    p = sub.add_parser("estimate", help="Monte Carlo expected distance (expected --mode montecarlo)", **unset)
    p.add_argument("--space", required=True)
    p.add_argument("--n", type=_positive_int)
    p.add_argument("--two-point", action="store_true")
    _add_seed_workers(p)
    p.set_defaults(func=cmd_expected, mode="montecarlo")

    p = sub.add_parser("analytic", help="closed-form expected distance", **unset)
    p.add_argument("--space", required=True)
    p.set_defaults(func=cmd_expected, mode="analytic")

    p = sub.add_parser("quadrature", help="expected distance by adaptive quadrature", **unset)
    p.add_argument("--space", default="full-flag")
    p.add_argument("--tol", type=_tolerance)
    p.set_defaults(func=cmd_expected, mode="quadrature")

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
    p.set_defaults(func=cmd_convergence, workers=1)

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
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except BrokenPipeError:
        # The reader has gone (e.g. `| head`). Flushes at exit go to devnull, so
        # no second error is printed; the exit code is a shell's for SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    entry_point()
