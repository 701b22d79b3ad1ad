"""Closed-form expected distances and high-precision numeric cross-checks.

Six spaces have exact expectations: 2/pi + pi/2 on SO(3), pi/2 on the sphere,
1 on the projective plane, 1 + pi/4 on each singly-oriented flag quotient of
SO(3), and 0 on the trivial quotient. The full flag manifold has no known
closed form; its expectation reduces to a one-dimensional integral evaluated
here by adaptive quadrature (1.3117250347224445929 to twenty digits). The
defining volume integrals in hyperspherical coordinates are also evaluated
numerically as an independent check on the exact volume formula. Every
numeric value is a :class:`QuadratureResult`, carrying its error bound. Each
route is a table keyed by ``classify`` family, chosen in one place, :func:`_route`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .quadrature import QuadratureError, QuadratureResult, adaptive_gauss_kronrod, nested_integral
from .flagspec import FlagSpec
from .spaces import UnsupportedSpaceError, classify, space_label
from .symbolic import PiExpression

FULL_FLAG_TAG = "full-flag-quadrature"
# Smallest tolerances the full- and partial-flag quadratures accept: below
# them double precision cannot meet the bound.
FULL_FLAG_MIN_TOL = 1e-13
PARTIAL_FLAG_MIN_TOL = 1e-12

# Closed-form expected distance by kernel family; the full flag (None) has none.
_EXPECTATIONS = {
    "point": PiExpression.zero(),
    "so3": PiExpression(((-1, Fraction(2)), (1, Fraction(1, 2)))),
    "partial-flag": PiExpression(((0, Fraction(1)), (1, Fraction(1, 4)))),
    "s2": PiExpression(((1, Fraction(1, 2)),)),
    "rp2": PiExpression.rational(1),
    "full-flag": None,
}

_DOMAIN_SLACK = 1e-12


@dataclass(frozen=True)
class ClosedForm:
    """An expected distance with a symbolic tag and its decimal value.

    ``exact`` is the underlying pi-expression for the solved cases and None
    for the quadrature-backed full-flag value; equality of solved cases should
    be tested through ``exact``, which is exact rational data.
    """

    tag: str
    value: float
    exact: PiExpression | None = None


def _route(table: dict, space: FlagSpec, missing: str):
    """The entry of ``table`` for the ``classify`` family of ``space``.

    A family the table lacks raises UnsupportedSpaceError, whose message is
    ``missing`` formatted with the space's name.
    """
    family = classify(space).family
    if family not in table:
        raise UnsupportedSpaceError(missing.format(space_label(space)))
    return table[family]


def analytic_expected_distance(space: FlagSpec) -> ClosedForm:
    """Exact expected distance between two random points of ``space``.

    Supported: SO(3) and every flag quotient derived from it, the sphere, and
    the projective plane. The full flag case is delegated to
    :func:`expected_distance_full_flag` at tolerance 1e-12.
    """
    expr = _route(_EXPECTATIONS, space, "no closed form known for {}")
    if expr is None:
        return ClosedForm(tag=FULL_FLAG_TAG, value=expected_distance_full_flag(1e-12).value)
    return ClosedForm(tag=str(expr), value=float(expr), exact=expr)


def full_flag_integrand(phi3):
    """Integrand of the one-dimensional full-flag expectation integral.

    Defined for phi3 in [0, pi/4]; smooth and bounded there. Accepts a scalar
    or an array.
    """
    arr = np.asarray(phi3, dtype=float)
    if (arr < -_DOMAIN_SLACK).any() or (arr > 0.25 * math.pi + _DOMAIN_SLACK).any():
        raise ValueError(f"phi3 must lie in [0, pi/4], got {phi3!r}")
    sec = 1.0 / np.cos(arr)
    first = np.arctan(np.tan(0.5 * np.arctan(sec)) ** 2)
    root = np.sqrt(1.0 + sec * sec)
    second = np.arctan(root) ** 2 / root
    out = first - second
    return out if out.ndim else float(out)


def _scaled(raw: QuadratureResult, factor: float, offset: float = 0.0) -> QuadratureResult:
    """``offset + factor * raw``, with the bound scaled alike."""
    return QuadratureResult(offset + factor * raw.value, factor * raw.abs_error_bound, raw.evaluations)


def expected_distance_full_flag(tol: float) -> QuadratureResult:
    """Expected distance between two random full flags, by adaptive quadrature.

    Evaluates 3 pi/2 + (96 / pi^2) times the integral of
    :func:`full_flag_integrand` over [0, pi/4], with the returned error bound
    at most ``tol``. Tolerances below 1e-13 are not attainable in double
    precision and are rejected.
    """
    if not tol >= FULL_FLAG_MIN_TOL:
        raise ValueError(f"tolerance must be >= {FULL_FLAG_MIN_TOL:g}, got {tol:g}")
    scale = 96.0 / math.pi**2
    raw = adaptive_gauss_kronrod(full_flag_integrand, 0.0, 0.25 * math.pi, tol / scale)
    return _scaled(raw, scale, 1.5 * math.pi)


def _join_integrand(theta1: float, alphas: np.ndarray) -> np.ndarray:
    cos_a = np.cos(alphas)
    return np.arccos(np.clip(cos_a * math.cos(theta1), -1.0, 1.0)) * cos_a * np.sin(alphas)


def expected_distance_partial_flag_integral(tol: float) -> QuadratureResult:
    """The join-coordinate double integral for the partial flag expectation.

    (16/pi) times the integral of arccos(cos a cos t1) cos a sin a over
    a in [0, pi/2], t1 in [0, pi/4]; equals 1 + pi/4.
    """
    if not tol >= PARTIAL_FLAG_MIN_TOL:
        raise ValueError(f"tolerance must be >= {PARTIAL_FLAG_MIN_TOL:g}, got {tol:g}")
    ranges = ((0.0, 0.25 * math.pi), lambda _theta1: (0.0, 0.5 * math.pi))
    return _scaled(nested_integral(_join_integrand, ranges, tol * math.pi / 16.0), 16.0 / math.pi)


# family -> the quadrature of its expected distance; each routine checks its own tol floor.
_QUADRATURES = {
    "full-flag": expected_distance_full_flag,
    "partial-flag": expected_distance_partial_flag_integral,
}


def _quadrature(space: FlagSpec, tol: float) -> QuadratureResult:
    """Expected distance on ``space`` by its family's quadrature at ``tol``."""
    return _route(_QUADRATURES, space, "no quadrature for {}")(tol)


def _polar_area(_theta: float, phis: np.ndarray) -> np.ndarray:
    return np.sin(phis)


def _so3_measure(_phi3: float, phi2: float, phi1: np.ndarray) -> np.ndarray:
    return 8.0 * np.sin(phi1) ** 2 * math.sin(phi2)


def _arctan_sec(phi: float) -> float:
    # arctan(sec phi), stable through phi = pi/2.
    return math.atan2(1.0, math.cos(phi))


# family -> (multiple, integrand, ranges) of its volume integral.
_VOLUME_INTEGRALS = {
    "s2": (1.0, _polar_area, ((0.0, 2.0 * math.pi), lambda _theta: (0.0, math.pi))),
    "rp2": (1.0, _polar_area, ((0.0, 2.0 * math.pi), lambda _theta: (0.0, 0.5 * math.pi))),
    "so3": (1.0, _so3_measure, (
        (0.0, 2.0 * math.pi),
        lambda _phi3: (0.0, math.pi),
        lambda _phi3, _phi2: (0.0, 0.5 * math.pi),
    )),
    "partial-flag": (2.0, _so3_measure, (
        (0.0, 2.0 * math.pi),
        lambda _phi3: (0.0, 0.5 * math.pi),
        lambda _phi3, phi2: (0.0, _arctan_sec(phi2)),
    )),
    "full-flag": (48.0, _so3_measure, (
        (0.0, 0.25 * math.pi),
        lambda phi3: (0.0, _arctan_sec(phi3)),
        lambda _phi3, phi2: (0.0, _arctan_sec(phi2)),
    )),
}


def numeric_volume(space: FlagSpec, tol: float = 1e-7) -> QuadratureResult:
    """Volume by direct numeric integration in (hyper)spherical coordinates.

    SO(3) integrates the density 8 sin^2(phi1) sin(phi2) over the positive
    hemisphere; the partial flag restricts phi1 to the region x >= |y| (bound
    arctan(sec phi2), doubled by symmetry); the full flag integrates over one
    of 48 congruent spherical simplices; the sphere and projective plane use
    the polar-angle area element. Cross-checks the exact volume formula.
    """
    multiple, integrand, ranges = _route(
        _VOLUME_INTEGRALS, space,
        "no volume integral implemented for {}; supported: so3, the partial and full flags, s2, rp2",
    )
    return _scaled(nested_integral(integrand, ranges, tol), multiple)


__all__ = [
    "ClosedForm",
    "FULL_FLAG_MIN_TOL",
    "FULL_FLAG_TAG",
    "PARTIAL_FLAG_MIN_TOL",
    "QuadratureError",
    "QuadratureResult",
    "analytic_expected_distance",
    "expected_distance_full_flag",
    "expected_distance_partial_flag_integral",
    "full_flag_integrand",
    "numeric_volume",
]
