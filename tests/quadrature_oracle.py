"""The adaptive Gauss-Kronrod rule as it stood before one-panel integrals returned early, a test oracle.

Every call builds a heap, sums its bounds with ``math.fsum`` and returns a
:class:`QuadratureResult`, and a tolerance below the roundoff floor runs until
the subinterval budget is spent. The package's rule must give the same values
and evaluation counts wherever this one reaches its tolerance, and bounds within
a few ulp (it takes its two absolute sums in one product). The node and weight
tables are the package's own; ``test_rule_is_exact_through_degree_22`` pins them.

:func:`nested_integral` integrates one outer node at a time, over this rule or
over the package's; over the package's it is the package's nested integral
before a level ran its integrals side by side, whose bits the package must give.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from oriflag.quadrature import (
    _EPS,
    _GAUSS_IDX,
    _GAUSS_WEIGHTS,
    _NODES,
    _WEIGHTS,
    QuadratureError,
    QuadratureResult,
)


def _gk15(f, a: float, b: float) -> tuple[float, float]:
    """One Gauss-Kronrod 15 panel: (integral, error bound) over [a, b]."""
    half = 0.5 * (b - a)
    center = 0.5 * (a + b)
    y = np.asarray(f(center + half * _NODES), dtype=float)
    resk = float(_WEIGHTS @ y)
    resg = float(_GAUSS_WEIGHTS @ y[_GAUSS_IDX])
    resabs = float(_WEIGHTS @ np.abs(y))
    mean = 0.5 * resk
    resasc = float(_WEIGHTS @ np.abs(y - mean))
    value = resk * half
    err = abs((resk - resg) * half)
    scale = resasc * abs(half)
    if scale != 0.0 and err != 0.0:
        err = scale * min(1.0, (200.0 * err / scale) ** 1.5)
    err = max(err, 50.0 * _EPS * resabs * abs(half))
    return value, err


def adaptive_gauss_kronrod(f, a: float, b: float, tol: float, *, max_intervals: int = 1024) -> QuadratureResult:
    """Integrate ``f`` over [a, b] to absolute tolerance ``tol``, worst interval bisected first."""
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    if a == b:
        return QuadratureResult(0.0, 0.0, 0)
    evaluations = 15
    value, err = _gk15(f, a, b)
    heap = [(-err, a, b, value, err)]
    while True:
        total_err = math.fsum(item[4] for item in heap)
        if total_err <= tol:
            break
        if len(heap) >= max_intervals:
            raise QuadratureError(
                f"needed more than {max_intervals} subintervals to reach tol={tol:g} "
                f"(current bound {total_err:g})"
            )
        _, lo, hi, _, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            raise QuadratureError(f"interval [{lo}, {hi}] cannot be bisected further")
        v1, e1 = _gk15(f, lo, mid)
        v2, e2 = _gk15(f, mid, hi)
        evaluations += 30
        heapq.heappush(heap, (-e1, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, hi, v2, e2))
    return QuadratureResult(math.fsum(item[3] for item in heap), total_err, evaluations)


def nested_integral(f, ranges, tol: float, rule=adaptive_gauss_kronrod) -> QuadratureResult:
    """Iterated integral of ``f`` with ``rule`` at every level, each at tol / 10, one outer node at a time.

    ``f`` takes the outer values as scalars. With the package's
    ``adaptive_gauss_kronrod`` as ``rule`` this is the package's nested
    integral as it stood before a level ran its integrals side by side.
    """
    level_tol = tol / 10.0
    innermost = len(ranges) - 1

    def integrate(outer: tuple) -> QuadratureResult:
        level = len(outer)
        lo, hi = ranges[level](*outer) if level else ranges[0]
        if level == innermost:
            return rule(lambda xs: f(*outer, xs), lo, hi, level_tol)
        met = []

        def integrand(xs: np.ndarray) -> np.ndarray:
            inner = [integrate((*outer, x)) for x in xs]
            met.extend(inner)
            return np.array([r.value for r in inner])

        res = rule(integrand, lo, hi, level_tol)
        worst = max((r.abs_error_bound for r in met), default=0.0)
        evaluations = sum(r.evaluations for r in met)
        return QuadratureResult(res.value, res.abs_error_bound + abs(hi - lo) * worst, evaluations)

    return integrate(())
