"""In-memory spans around oriflag's public functions, installed from outside.

A traced function is replaced, in every loaded ``oriflag`` module that holds
it (the defining module and each module that imported the name), by a wrapper
that records one span: name, start, end, parent span, op id and an optional
detail taken from the result. Spans stay in memory until the benchmark writes
them out; :func:`layer_metrics` turns them into per-layer figures.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# The public functions the workloads reach, as (defining module, attribute,
# span name). The span name is "<layer>.<what>"; its first component is the
# layer that self times are charged to. rotation_angles_matrix is the Schur
# path behind rotation_angles and geodesic_distance, and the one the Monte
# Carlo kernel calls.
TARGETS = [
    ("oriflag.cli", "main", "cli.main"),
    ("oriflag.spaces", "parse_space", "spaces.parse_space"),
    ("oriflag.spaces", "classify", "spaces.classify"),
    ("oriflag.flagspec", "isotropy_group", "flagspec.isotropy_group"),
    ("oriflag.orthogonal", "sample_rotation_matrices", "orthogonal.sample_rotation_matrices"),
    ("oriflag.orthogonal", "rotation_angles_matrix", "orthogonal.rotation_angles"),
    ("oriflag.montecarlo", "estimate_expected_distance", "montecarlo.estimate_expected_distance"),
    ("oriflag.quatcover", "rotation_to_quaternion", "quatcover.rotation_to_quaternion"),
    ("oriflag.quadrature", "adaptive_gauss_kronrod", "quadrature.adaptive_gauss_kronrod"),
    ("oriflag.quadrature", "nested_double_integral", "quadrature.nested_double_integral"),
    ("oriflag.quadrature", "nested_triple_integral", "quadrature.nested_triple_integral"),
    ("oriflag.analytic", "analytic_expected_distance", "analytic.analytic_expected_distance"),
    ("oriflag.analytic", "expected_distance_full_flag", "analytic.expected_distance_full_flag"),
    ("oriflag.analytic", "expected_distance_partial_flag_integral",
     "analytic.expected_distance_partial_flag_integral"),
    ("oriflag.analytic", "numeric_volume", "analytic.numeric_volume"),
]

# Span detail read from a traced call's result.
DETAILS = {
    # (n, count) of the (count, n, n) stack.
    "orthogonal.sample_rotation_matrices": lambda r: [int(r.shape[-1]), int(r.shape[0])],
    "quadrature.adaptive_gauss_kronrod": lambda r: int(r.evaluations),
    "montecarlo.estimate_expected_distance": lambda r: int(r.n_samples),
}

# Span fields: [name, start, end, parent index or -1, op id, detail].
NAME, START, END, PARENT, OP, DETAIL = range(6)


class Tracer:
    """Collects spans from the wrapped functions while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, detail = self.spans, self._stack, DETAILS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if detail is not None:
                span[DETAIL] = detail(result)
            return result

        return traced

    def install(self) -> None:
        """Patch every loaded oriflag module; names not present are skipped."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "oriflag" or k.startswith("oriflag."))]
        for modname, attr, name in TARGETS:
            fn = getattr(sys.modules.get(modname), attr, None)
            if fn is None:
                continue
            wrapped = self._wrap(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)
                        self._patched.append((mod, key, fn))

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._patched):
            setattr(mod, key, fn)
        self._patched.clear()


def layer_metrics(spans: list[list], rounds: int, entry_of_op: dict) -> tuple[dict, dict]:
    """Per-layer figures per traced round, and Monte Carlo samples/s per entry.

    A layer's self time is the time in its spans not covered by their direct
    children. ``<name>.s`` is the time in the outermost spans of that name,
    ``<name>.calls`` counts every span of it. ``entry_of_op`` maps op ids to
    the workload entry names that the samples/s are keyed by.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    calls = defaultdict(int)
    haar = defaultdict(lambda: [0, 0.0])
    entry_rate = defaultdict(lambda: [0, 0.0])
    evaluations = 0
    for i, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        self_s[name.split(".")[0]] += dur - child_time[i]
        calls[name] += 1
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != name:
            p = spans[p][PARENT]
        if p < 0:
            incl_s[name] += dur
        if name == "orthogonal.sample_rotation_matrices":
            n, count = s[DETAIL]
            haar[n][0] += count
            haar[n][1] += dur
        elif name == "quadrature.adaptive_gauss_kronrod":
            evaluations += s[DETAIL]
        elif name == "montecarlo.estimate_expected_distance" and p < 0:
            rate = entry_rate[entry_of_op[s[OP]]]
            rate[0] += s[DETAIL]
            rate[1] += dur

    def per_round(x):
        # Every round runs the same ops, so counts divide exactly.
        return x // rounds if isinstance(x, int) and x % rounds == 0 else x / rounds

    def rate(pair):
        return pair[0] / pair[1] if pair[1] > 0 else 0.0

    out = {
        "cli.self_s": per_round(self_s["cli"]),
        "orthogonal.sample_rotation_matrices.s": per_round(incl_s["orthogonal.sample_rotation_matrices"]),
        "orthogonal.sample_rotation_matrices.calls": per_round(calls["orthogonal.sample_rotation_matrices"]),
        "orthogonal.haar_per_s.n3": rate(haar[3]),
        "orthogonal.haar_per_s.n4": rate(haar[4]),
        "orthogonal.rotation_angles.calls": per_round(calls["orthogonal.rotation_angles"]),
        "orthogonal.rotation_angles.s": per_round(incl_s["orthogonal.rotation_angles"]),
        "montecarlo.self_s": per_round(self_s["montecarlo"]),
        "spaces.classify.s": per_round(incl_s["spaces.classify"]),
        "spaces.classify.calls": per_round(calls["spaces.classify"]),
        "quatcover.rotation_to_quaternion.calls": per_round(calls["quatcover.rotation_to_quaternion"]),
        "quatcover.rotation_to_quaternion.s": per_round(incl_s["quatcover.rotation_to_quaternion"]),
        "quadrature.adaptive_gauss_kronrod.calls": per_round(calls["quadrature.adaptive_gauss_kronrod"]),
        "quadrature.evaluations": per_round(evaluations),
        "quadrature.s": per_round(self_s["quadrature"]),
        "analytic.s": per_round(self_s["analytic"]),
    }
    return out, {entry: rate(pair) for entry, pair in entry_rate.items()}
