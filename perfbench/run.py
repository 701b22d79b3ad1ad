"""Benchmark of oriflag: one workload, one seed, one line of JSON metrics.

Run from the root of an oriflag checkout:

    python3 perfbench/run.py --workload mc-so3 --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md): ``mc-so3`` and ``mc-son`` call
``estimate_expected_distance`` with workers=1; ``cli`` calls
``oriflag.cli.main`` with stdout captured. Each is a closed loop with one
client in this process that runs whole rounds until ``--seconds`` have
passed, checking every output. The program is imported from ``src/`` of the
checkout; fresh interpreters importing it give ``setup_s``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates plain
and traced rounds and prints the per-layer metrics. The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the machine and provenance block. Both also go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

from tracer import layer_metrics

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9
IMPORTTIME_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "throughput_samples_per_s": "1/s",
    "two_point_samples_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units(rate_entries) -> dict:
    units = {
        "cli.import_s": "s",
        "cli.import_scipy_s": "s",
        "cli.self_s": "s/round",
        "cli.output_bytes": "bytes/round",
        "orthogonal.sample_rotation_matrices.s": "s/round",
        "orthogonal.sample_rotation_matrices.calls": "calls/round",
        "orthogonal.haar_per_s.n3": "1/s",
        "orthogonal.haar_per_s.n4": "1/s",
        "orthogonal.rotation_angles.calls": "calls/round",
        "orthogonal.rotation_angles.s": "s/round",
        "montecarlo.self_s": "s/round",
        "spaces.classify.s": "s/round",
        "spaces.classify.calls": "calls/round",
        "quatcover.rotation_to_quaternion.calls": "calls/round",
        "quatcover.rotation_to_quaternion.s": "s/round",
        "quadrature.adaptive_gauss_kronrod.calls": "calls/round",
        "quadrature.evaluations": "evals/round",
        "quadrature.s": "s/round",
        "analytic.s": "s/round",
        "trace.overhead_s": "s/round",
        "error_rate": "failed/attempted",
    }
    units.update({f"montecarlo.samples_per_s.{e}": "1/s" for e in rate_entries})
    return units


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ORIFLAG_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.update({v: "1" for v in THREAD_VARS})
    return env


def _python(args: list[str], env: dict) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"{args} exited {proc.returncode}: {proc.stderr.decode()[-500:]}")
    return proc


def time_import(env: dict) -> float:
    """Wall time from a fresh interpreter to ``import oriflag`` done."""
    t0 = time.perf_counter()
    _python(["-c", "import oriflag"], env)
    return time.perf_counter() - t0


def import_times(env: dict) -> tuple[float, float]:
    """Median cumulative import time of oriflag and of scipy.linalg (0 if absent)."""
    pkg, scipy_linalg = [], []
    for _ in range(IMPORTTIME_REPEATS):
        found = {}
        err = _python(["-X", "importtime", "-c", "import oriflag"], env).stderr.decode()
        for line in err.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() in ("oriflag", "scipy.linalg"):
                found[fields[2].strip()] = int(fields[1]) * 1e-6
        pkg.append(found["oriflag"])
        scipy_linalg.append(found.get("scipy.linalg", 0.0))
    return statistics.median(pkg), statistics.median(scipy_linalg)


def _command_output(argv: list[str]) -> str | None:
    try:
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.decode().strip() or None


def machine() -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "l2_bytes": _command_output(["getconf", "LEVEL2_CACHE_SIZE"]),
        "l3_bytes": _command_output(["getconf", "LEVEL3_CACHE_SIZE"]),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": (_command_output(["git", "rev-parse", "HEAD"])
                       if os.path.exists(os.path.join(ROOT, ".git")) else None),
    }


def run_rounds(work, seconds: float, trace: bool, sample_setup=None) -> tuple[list, list]:
    """Whole rounds until ``seconds`` have passed; with tracing, odd rounds are traced.

    ``sample_setup``, if given, is called between rounds about every
    ``seconds / SETUP_REPEATS``, so that set-up samples spread over the run.
    Returns the rounds as (traced, wall seconds, outcomes) and, per op, the
    fingerprint of its first correct output.
    """
    n_ops = len(work.ops)
    first = [None] * n_ops
    rounds = []
    next_sample = time.perf_counter()
    deadline = next_sample + seconds
    while True:
        if sample_setup is not None and time.perf_counter() >= next_sample:
            sample_setup()
            next_sample += seconds / SETUP_REPEATS
        traced = trace and len(rounds) % 2 == 1
        if traced:
            work.tracer.install()
        outcomes = []
        t0 = time.perf_counter()
        for i in range(n_ops):
            out = work.execute(i, len(rounds) * n_ops + i, traced)
            if out.error is None:
                if first[i] is None:
                    first[i] = out.fingerprint
                elif out.fingerprint != first[i]:
                    out.error = "output differs from the first round's for the same input"
            outcomes.append(out)
        wall = time.perf_counter() - t0
        work.tracer.uninstall()
        rounds.append((traced, wall, outcomes))
        if time.perf_counter() >= deadline and (not trace or len(rounds) >= 2):
            return rounds, first


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten values beyond it, and that percentile."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def best_latencies(rounds) -> list[float]:
    """Each op's best latency over the run's rounds.

    Other tenants of a shared machine slow whole stretches of a run, by up
    to 2x on a shared 2-core Xeon VM; as with ``timeit``, the slower repeats
    measure that load, not the program.
    """
    return [min(o.latency_s for o in per_op) for per_op in zip(*(outs for _, _, outs in rounds))]


def rate(ops, latencies, two_point: bool) -> float:
    pairs = [(op.samples, t) for op, t in zip(ops, latencies) if op.two_point == two_point]
    return sum(s for s, _ in pairs) / sum(t for _, t in pairs)


def end_to_end(work, rounds, setup: list[float]) -> tuple[dict, dict]:
    best = best_latencies(rounds)
    # Every op execution of the run, each at its op's best latency.
    executions = best * len(rounds)
    tail_value, tail_pct = tail(executions)
    metrics = {
        "setup_s": statistics.median(setup),
        "throughput_samples_per_s": rate(work.ops, best, False),
        "two_point_samples_per_s": rate(work.ops, best, True),
        "latency_p50_s": statistics.median(executions),
        "latency_tail_s": tail_value,
        "peak_rss_mb": work.peak_rss_mb(),
    }
    return metrics, {"latency_samples": len(executions), "latency_tail_percentile": tail_pct,
                     "setup_samples": len(setup)}


def per_layer(work, rounds, env, rate_entries, error_rate: float) -> dict:
    traced = [r for r in rounds if r[0]]
    n_ops = len(work.ops)
    entry_of_op = {r * n_ops + i: op.name for r in range(len(rounds)) for i, op in enumerate(work.ops)}
    metrics, rates = layer_metrics(work.tracer.spans, len(traced), entry_of_op)
    import_s, import_scipy_s = import_times(env)
    metrics.update({
        "cli.import_s": import_s,
        "cli.import_scipy_s": import_scipy_s,
        "cli.output_bytes": work.output_bytes // len(traced),
        # Best traced round against best plain round, as for the end-to-end figures.
        "trace.overhead_s": min(w for t, w, _ in traced) - min(w for t, w, _ in rounds if not t),
        "error_rate": error_rate,
    })
    metrics.update({f"montecarlo.samples_per_s.{e}": rates.get(e, 0.0) for e in rate_entries})
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["mc-so3", "mc-son", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "oriflag", "__init__.py")):
        print(f"perfbench: no src/oriflag under {ROOT}; run from the root of an oriflag checkout",
              file=sys.stderr)
        return 2
    # One thread for the in-process numpy work; set before numpy loads.
    os.environ.update({v: "1" for v in THREAD_VARS})
    sys.path.insert(0, SRC)
    import oriflag

    if not os.path.abspath(oriflag.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported oriflag from {oriflag.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    os.makedirs(RESULTS, exist_ok=True)
    env = child_env()
    work = {"mc-so3": workloads.mc_so3, "mc-son": workloads.mc_son, "cli": workloads.cli}[args.workload](args.seed)

    setup = []

    def sample_setup():
        setup.append(time_import(env))

    if args.trace:
        sample_setup = None
    else:
        time_import(env)  # writes the bytecode caches, untimed
    work.warm_up()
    t0 = time.perf_counter()
    rounds, first = run_rounds(work, args.seconds, bool(args.trace), sample_setup)
    while sample_setup is not None and len(setup) < SETUP_REPEATS:
        sample_setup()
    run_wall = time.perf_counter() - t0

    errors = [f"{op.name}: {o.error}" for _, _, outs in rounds for op, o in zip(work.ops, outs) if o.error]
    final_errors = work.final_checks({op.name: fp for op, fp in zip(work.ops, first)})
    attempted = sum(len(outs) for _, _, outs in rounds)
    if args.trace:
        metrics = per_layer(work, rounds, env, workloads.RATE_ENTRIES, len(errors) / attempted)
        units = per_layer_units(workloads.RATE_ENTRIES)
        stats = {}
    else:
        metrics, stats = end_to_end(work, rounds, setup)
        units = END_TO_END
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "ops": [{"name": op.name, "samples": op.samples, "two_point": op.two_point,
                 "args": list(op.args)} for op in work.ops],
        "rounds": len(rounds),
        "traced_rounds": sum(t for t, _, _ in rounds),
        "run_wall_s": run_wall,
        **stats,
        "errors": errors[:20] + final_errors,
    }
    result = {
        "correct": not errors and not final_errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    with open(os.path.join(RESULTS, f"{args.workload}-trace{args.trace}.json"), "w") as f:
        json.dump({"provenance": provenance, "result": result,
                   "latencies_s": [[o.latency_s for o in outs] for _, _, outs in rounds]}, f, indent=1)
    if args.trace:
        with open(os.path.join(RESULTS, f"{args.workload}.spans.json"), "w") as f:
            json.dump(work.tracer.spans, f)
    for line in provenance["errors"]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
