"""Adaptive one-dimensional quadrature built on the 15-point Gauss-Kronrod rule.

A call settles on its first panel when it can: the panel is the answer if it
meets the requested absolute tolerance, and the call fails at once if the
panel's roundoff floor is already above it. Otherwise intervals are bisected
greedily (worst estimated error first) until the summed error bound meets the
tolerance. Integrands receive a numpy
array of abscissae and must return the corresponding array of values; wrap a
scalar-only function with ``numpy.vectorize`` if needed.

A nested integral runs the rule at every level, a level's integrals side by
side with one integrand call per round, each giving the bits it gives alone.
Its integrand takes the outer values as (m, 1) arrays that broadcast against
the (m, 15) innermost block; its ranges take floats. Its bound is the outer bound
plus the outer interval's length times the largest inner bound met at the
outer nodes: the Kronrod weights are positive and sum to that length, so the
inner errors move the outer sum by at most that much. Like every bound here it
is an estimate built from the GK15 panel estimates, not a rigorous enclosure.
"""

from __future__ import annotations

import functools
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


def _figures(half: list, sums) -> list:
    """(integral, error bound, roundoff floor) of panels from their half-widths and four sums; the floor,
    50 eps times the panel's estimate of the integral of |f|, is the least the bound can be."""
    figures = []
    for h, (resk, resg, resabs, resasc) in zip(half, sums):
        err = abs((resk - resg) * h)
        scale = resasc * abs(h)
        if scale != 0.0 and err != 0.0:
            err = scale * min(1.0, (200.0 * err / scale) ** 1.5)
        floor = 50.0 * _EPS * resabs * abs(h)
        figures.append((resk * h, max(err, floor), floor))
    return figures


def _gk15(f, a: float, b: float) -> tuple[float, float, float]:
    """The :func:`_figures` of one Gauss-Kronrod 15 panel over [a, b], ``f`` called on its 15 abscissae."""
    half = 0.5 * (b - a)
    y = np.asarray(f(0.5 * (a + b) + half * _NODES), dtype=float)
    resk = float(_WEIGHTS @ y)
    sums = (resk, float(_GAUSS_WEIGHTS @ y[_GAUSS_IDX]), *np.abs((y, y - 0.5 * resk)).dot(_WEIGHTS).tolist())
    return _figures([half], [sums])[0]


def _gk15_rows(f, a: list, b: list, rows: list) -> tuple[list, tuple | None]:
    """:func:`_gk15` over [a[j], b[j]] with one call ``f(xs, rows)`` on the (k, 15) block, and its failure.

    Each row takes a lone panel's dot products (stacked 1 x 15 ones; one gemv sums in another order).
    """
    half = 0.5 * (np.array(b) - a)
    y, failure = f((0.5 * (np.array(a) + b))[:, None] + half[:, None] * _NODES, rows)
    y = np.asarray(y, dtype=float)[:, None, :]
    resk = y @ _WEIGHTS
    resg = np.ascontiguousarray(y[..., _GAUSS_IDX]) @ _GAUSS_WEIGHTS
    dev = np.abs(np.concatenate((y, y - 0.5 * resk[..., None]), axis=1)) @ _WEIGHTS
    return _figures(half.tolist(), np.concatenate((resk, resg, dev), axis=1).tolist()), failure


def _integrate(panels, lo, hi, tol: float, max_intervals: int = 1024) -> tuple[list, Exception | None]:
    """The integrals over [lo[i], hi[i]] side by side, each bisected as if alone.

    A round makes one call ``panels(a, b, rows)``: the :func:`_figures` of panels [a[j], b[j]] of
    integrals ``rows[j]`` and None, or those before some integral's panels and (that integral, its
    exception). Returns the (value, bound, evaluations) of the integrals before the first to fail, and
    its exception or None: later ones are dropped and earlier ones run on, as one after another would.
    """
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    results, heaps = [(0.0, 0.0, 0)] * len(lo), {}
    rows = [i for i in range(len(lo)) if lo[i] != hi[i]]
    a, b = [lo[i] for i in rows], [hi[i] for i in rows]
    figures, failure = panels(a, b, rows) if rows else ([], None)
    cut, error = failure or (len(lo), None)
    for i, x0, x1, (value, err, floor) in zip(rows, a, b, figures):
        if i >= cut:
            break
        if err <= tol:
            results[i] = (value, err, 15)
        elif floor > tol:
            cut, error = i, QuadratureError(f"tol={tol:g} is below the roundoff floor {floor:g} of [{x0:g}, {x1:g}], "
                                            "which no split into subintervals can get under")
            break
        else:
            heaps[i] = [(-err, x0, x1, value, err)]
    while heaps:
        rows, a, b = [], [], []
        for i, heap in heaps.items():
            if len(heap) >= max_intervals:
                cut, error = i, QuadratureError(f"needed more than {max_intervals} subintervals to reach tol={tol:g} "
                                                f"(current bound {math.fsum(item[4] for item in heap):g})")
                break
            _, x0, x1, _, _ = heapq.heappop(heap)
            mid = 0.5 * (x0 + x1)
            if mid <= x0 or mid >= x1:
                cut, error = i, QuadratureError(f"interval [{x0}, {x1}] cannot be bisected further")
                break
            rows += (i, i)
            a += (x0, mid)
            b += (mid, x1)
        figures, failure = panels(a, b, rows) if rows else ([], None)
        if failure:
            cut, error = failure
        for i, x0, x1, (value, err, _) in zip(rows, a, b, figures):
            if i < cut:
                heapq.heappush(heaps[i], (-err, x0, x1, value, err))
        for i in rows[::2]:
            if i < cut and (total_err := math.fsum(item[4] for item in heaps[i])) <= tol:
                heap = heaps.pop(i)
                results[i] = (math.fsum(item[3] for item in heap), total_err, 30 * len(heap) - 15)
        if error is not None:
            heaps = {i: heap for i, heap in heaps.items() if i < cut}
    return results[:cut], error


def adaptive_gauss_kronrod(f, a: float, b: float, tol: float, *, max_intervals: int = 1024) -> QuadratureResult:
    """Integrate ``f`` over [a, b] to absolute tolerance ``tol``.

    One 15-point panel over [a, b] comes first. If its bound meets ``tol``,
    that panel is the answer. If its roundoff floor, 50 eps times its estimate
    of the integral of |f|, already exceeds ``tol``, :class:`QuadratureError`
    is raised at once: the floors of any split into subintervals add up to about
    the same amount, so no bisection can reach ``tol``. Otherwise the interval
    with the largest error estimate is bisected until the total estimated error
    is below ``tol``, and :class:`QuadratureError` is raised if that takes more
    than ``max_intervals`` subintervals. ``f`` takes each panel's 15 abscissae.
    """
    done, error = _integrate(lambda a, b, _: ([_gk15(f, x0, x1) for x0, x1 in zip(a, b)], None), [a], [b], tol, max_intervals)
    if error is not None:
        raise error
    return QuadratureResult(*done[0])


def nested_integral(f, ranges, tol: float) -> QuadratureResult:
    """Iterated integral of ``f`` with an adaptive rule at each level.

    ``ranges[0]`` is the outer (lo, hi); each later entry maps the outer
    variables, as floats, to its own (lo, hi). A level runs all its integrals
    side by side, so ``f(x1, ..., xs)`` takes the outer values as (m, 1)
    arrays and the innermost as an (m, 15) block they broadcast against, and
    returns the block's values. Every level runs
    :func:`adaptive_gauss_kronrod`'s rule at tol / 10, each integral bisected
    as if alone: an inner integral that meets its tolerance on one panel costs
    15 points, a level whose roundoff floor is above tol / 10 fails at once,
    and a failing level raises the error that integrating node by node meets first.
    ``evaluations`` counts the points at which ``f`` is evaluated; the bound
    is described in the module docstring.
    """
    level_tol = tol / 10.0
    innermost = len(ranges) - 1

    def integrate(outer: list) -> tuple[list, Exception | None]:
        # the level's integrals at the points given by the (m, 1) columns of outer
        level = len(outer)
        lo, hi = zip(*map(ranges[level], *(col[:, 0].tolist() for col in outer))) if level else zip(ranges[0])
        if level == innermost:
            return _integrate(functools.partial(_gk15_rows, lambda xs, rows: (f(*(col[rows] for col in outer), xs), None)),
                              lo, hi, level_tol)
        met = [[] for _ in lo]

        def integrand(xs: np.ndarray, rows: list) -> tuple:
            done, error = integrate([col[np.repeat(rows, 15)] for col in outer] + [xs.reshape(-1, 1)])
            for i, j in zip(rows, range(0, len(done), 15)):
                met[i] += done[j:j + 15]
            values = [value for value, _, _ in done] + [0.0] * (xs.size - len(done))
            return np.reshape(values, xs.shape), error and (rows[len(done) // 15], error)

        done, error = _integrate(functools.partial(_gk15_rows, integrand), lo, hi, level_tol)
        return [(value, bound + abs(b - a) * max((r[1] for r in met[i]), default=0.0), sum(r[2] for r in met[i]))
                for i, ((value, bound, _), a, b) in enumerate(zip(done, lo, hi))], error

    done, error = integrate([])
    if error is not None:
        raise error
    return QuadratureResult(*done[0])
