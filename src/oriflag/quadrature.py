"""Adaptive one-dimensional quadrature built on the 15-point Gauss-Kronrod rule.

Intervals are bisected greedily (worst estimated error first) until the summed
error bound meets the requested absolute tolerance. Integrands receive a numpy
array of abscissae and must return the corresponding array of values; wrap a
scalar-only function with ``numpy.vectorize`` if needed.

A nested integral runs the rule at every level. Its bound is the outer bound
plus the outer interval's length times the largest inner bound met at the
outer nodes: the Kronrod weights are positive and sum to that length, so the
inner errors move the outer sum by at most that much. Like every bound here it
is an estimate built from the GK15 panel estimates, not a rigorous enclosure.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

# 15-point Kronrod abscissae on [0, 1] side of [-1, 1] (symmetric), with the
# embedded 7-point Gauss rule on the odd-indexed nodes.
_XGK = np.array([
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
])
_WGK = np.array([
    0.02293532201052922,
    0.06309209262997855,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
    0.2094821410847278,
])
_WG = np.array([
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
    0.4179591836734694,
])

# All 15 nodes left to right, and their Kronrod weights.
_NODES = np.concatenate([-_XGK[:7], _XGK[::-1][:1], _XGK[6::-1]])
_WEIGHTS = np.concatenate([_WGK[:7], _WGK[7:8], _WGK[6::-1]])
_GAUSS_IDX = np.arange(1, 15, 2)
_GAUSS_WEIGHTS = np.concatenate([_WG[:3], _WG[3:4], _WG[2::-1]])

_EPS = np.finfo(float).eps


class QuadratureError(RuntimeError):
    """Raised when the tolerance cannot be met within the evaluation budget."""


@dataclass(frozen=True)
class QuadratureResult:
    """Value of an integral with its estimated absolute error bound."""

    value: float
    abs_error_bound: float
    evaluations: int

    def __float__(self) -> float:
        return self.value


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


def adaptive_gauss_kronrod(
    f,
    a: float,
    b: float,
    tol: float,
    *,
    max_intervals: int = 1024,
) -> QuadratureResult:
    """Integrate ``f`` over [a, b] to absolute tolerance ``tol``.

    Bisects the interval with the largest error estimate until the total
    estimated error is below ``tol``. Raises :class:`QuadratureError` if that
    takes more than ``max_intervals`` subintervals.
    """
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


def nested_integral(f, ranges, tol: float) -> QuadratureResult:
    """Iterated integral of ``f`` with an adaptive rule at each level.

    ``ranges[0]`` is the outer (lo, hi); each later entry maps the outer
    variables to its own (lo, hi). ``f(x1, ..., xs)`` takes the outer values as
    scalars and the innermost as an array, and returns an array. Every level
    runs at tol / 10. ``evaluations`` counts the points at which ``f`` is
    evaluated; the bound is described in the module docstring.
    """
    level_tol = tol / 10.0
    innermost = len(ranges) - 1

    def integrate(outer: tuple) -> QuadratureResult:
        level = len(outer)
        lo, hi = ranges[level](*outer) if level else ranges[0]
        if level == innermost:
            return adaptive_gauss_kronrod(lambda xs: f(*outer, xs), lo, hi, level_tol)
        met = []

        def integrand(xs: np.ndarray) -> np.ndarray:
            inner = [integrate((*outer, x)) for x in xs]
            met.extend(inner)
            return np.array([r.value for r in inner])

        res = adaptive_gauss_kronrod(integrand, lo, hi, level_tol)
        worst = max((r.abs_error_bound for r in met), default=0.0)
        evaluations = sum(r.evaluations for r in met)
        return QuadratureResult(res.value, res.abs_error_bound + abs(hi - lo) * worst, evaluations)

    return integrate(())
