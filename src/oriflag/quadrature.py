"""Adaptive one-dimensional quadrature built on the 15-point Gauss-Kronrod rule.

A call settles on its first panel when it can: the panel is the answer if it
meets the requested absolute tolerance, and the call fails at once if the
panel's roundoff floor is already above it. Otherwise intervals are bisected
greedily (worst estimated error first) until the summed error bound meets the
tolerance. Integrands receive a numpy
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

_EPS = float(np.finfo(float).eps)


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


def _gk15(f, a: float, b: float) -> tuple[float, float, float]:
    """One Gauss-Kronrod 15 panel over [a, b]: (integral, error bound, roundoff floor).

    The floor, 50 eps times the panel's estimate of the integral of |f|, is the
    least the bound can be.
    """
    half = 0.5 * (b - a)
    center = 0.5 * (a + b)
    y = np.asarray(f(center + half * _NODES), dtype=float)
    resk = float(_WEIGHTS @ y)
    resg = float(_GAUSS_WEIGHTS @ y[_GAUSS_IDX])
    resabs, resasc = np.abs((y, y - 0.5 * resk)).dot(_WEIGHTS).tolist()
    value = resk * half
    err = abs((resk - resg) * half)
    scale = resasc * abs(half)
    if scale != 0.0 and err != 0.0:
        err = scale * min(1.0, (200.0 * err / scale) ** 1.5)
    floor = 50.0 * _EPS * resabs * abs(half)
    return value, max(err, floor), floor


def _adaptive(f, a: float, b: float, tol: float, max_intervals: int = 1024) -> tuple[float, float, int]:
    """:func:`adaptive_gauss_kronrod` as a plain (value, bound, evaluations) tuple."""
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    if a == b:
        return 0.0, 0.0, 0
    value, err, floor = _gk15(f, a, b)
    if err <= tol:
        return value, err, 15
    if floor > tol:
        raise QuadratureError(
            f"tol={tol:g} is below the roundoff floor {floor:g} of [{a:g}, {b:g}], "
            "which no split into subintervals can get under"
        )
    evaluations = 15
    total_err = err
    heap = [(-err, a, b, value, err)]
    while True:
        if len(heap) >= max_intervals:
            raise QuadratureError(
                f"needed more than {max_intervals} subintervals to reach tol={tol:g} "
                f"(current bound {total_err:g})"
            )
        _, lo, hi, _, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            raise QuadratureError(f"interval [{lo}, {hi}] cannot be bisected further")
        v1, e1, _ = _gk15(f, lo, mid)
        v2, e2, _ = _gk15(f, mid, hi)
        evaluations += 30
        heapq.heappush(heap, (-e1, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, hi, v2, e2))
        total_err = math.fsum(item[4] for item in heap)
        if total_err <= tol:
            return math.fsum(item[3] for item in heap), total_err, evaluations


def adaptive_gauss_kronrod(
    f,
    a: float,
    b: float,
    tol: float,
    *,
    max_intervals: int = 1024,
) -> QuadratureResult:
    """Integrate ``f`` over [a, b] to absolute tolerance ``tol``.

    One 15-point panel over [a, b] comes first. If its bound meets ``tol``,
    that panel is the answer. If its roundoff floor, 50 eps times its estimate
    of the integral of |f|, already exceeds ``tol``, :class:`QuadratureError`
    is raised at once: the floors of any split into subintervals add up to about
    the same amount, so no bisection can reach ``tol``. Otherwise the interval
    with the largest error estimate is bisected until the total estimated error
    is below ``tol``, and :class:`QuadratureError` is raised if that takes more
    than ``max_intervals`` subintervals.
    """
    return QuadratureResult(*_adaptive(f, a, b, tol, max_intervals))


def nested_integral(f, ranges, tol: float) -> QuadratureResult:
    """Iterated integral of ``f`` with an adaptive rule at each level.

    ``ranges[0]`` is the outer (lo, hi); each later entry maps the outer
    variables to its own (lo, hi). ``f(x1, ..., xs)`` takes the outer values as
    scalars and the innermost as an array, and returns an array. Every level
    runs :func:`adaptive_gauss_kronrod`'s rule at tol / 10, so an inner
    integral that meets its tolerance on one panel costs 15 points, and a level
    whose roundoff floor is above tol / 10 fails at once. Levels hand plain
    (value, bound, evaluations) tuples up; one :class:`QuadratureResult` is
    built at the top. ``evaluations`` counts the points at which ``f`` is
    evaluated; the bound is described in the module docstring.
    """
    level_tol = tol / 10.0
    innermost = len(ranges) - 1

    def integrate(outer: tuple) -> tuple[float, float, int]:
        level = len(outer)
        lo, hi = ranges[level](*outer) if level else ranges[0]
        if level == innermost:
            return _adaptive(lambda xs: f(*outer, xs), lo, hi, level_tol)
        met = []

        def integrand(xs: np.ndarray) -> np.ndarray:
            inner = [integrate((*outer, x)) for x in xs]
            met.extend(inner)
            return np.array([value for value, _, _ in inner])

        value, bound, _ = _adaptive(integrand, lo, hi, level_tol)
        worst = max((inner_bound for _, inner_bound, _ in met), default=0.0)
        evaluations = sum(count for _, _, count in met)
        return value, bound + abs(hi - lo) * worst, evaluations

    return QuadratureResult(*integrate(()))
