import math
from fractions import Fraction

import numpy as np
import pytest

from oriflag.analytic import (
    FULL_FLAG_TAG,
    analytic_expected_distance,
    expected_distance_full_flag,
    expected_distance_partial_flag_integral,
    full_flag_integrand,
    numeric_volume,
)
from oriflag.flagspec import flag_volume
from oriflag.montecarlo import estimate_expected_distance
from oriflag.quadrature import nested_integral
from oriflag.spaces import SPACE_ALIASES, UnsupportedSpaceError, parse_space
from oriflag.symbolic import PiExpression

FULL_FLAG_REFERENCE = 1.3117250347224445929


# --------------------------------------------------------------- closed forms

def test_closed_forms_are_symbolically_exact():
    cases = {
        "so3": PiExpression(((-1, Fraction(2)), (1, Fraction(1, 2)))),
        "s2": PiExpression(((1, Fraction(1, 2)),)),
        "rp2": PiExpression.rational(1),
        "partial-flag-1": PiExpression(((0, Fraction(1)), (1, Fraction(1, 4)))),
        "partial-flag-2": PiExpression(((0, Fraction(1)), (1, Fraction(1, 4)))),
        "partial-flag-3": PiExpression(((0, Fraction(1)), (1, Fraction(1, 4)))),
        "trivial-flag": PiExpression.zero(),
    }
    for name, expected in cases.items():
        cf = analytic_expected_distance(SPACE_ALIASES[name])
        assert cf.exact == expected, name
        assert cf.value == float(expected)
        assert cf.tag == str(expected)


def test_closed_form_tags_read_naturally():
    assert analytic_expected_distance(SPACE_ALIASES["so3"]).tag == "2/pi + pi/2"
    assert analytic_expected_distance(SPACE_ALIASES["s2"]).tag == "pi/2"
    assert analytic_expected_distance(SPACE_ALIASES["rp2"]).tag == "1"
    assert analytic_expected_distance(SPACE_ALIASES["partial-flag-1"]).tag == "1 + pi/4"
    assert analytic_expected_distance(SPACE_ALIASES["trivial-flag"]).tag == "0"


def test_full_flag_dispatches_to_quadrature():
    cf = analytic_expected_distance(SPACE_ALIASES["full-flag"])
    assert cf.tag == FULL_FLAG_TAG
    assert cf.exact is None
    assert abs(cf.value - FULL_FLAG_REFERENCE) <= 1e-10


def test_unsupported_spaces_rejected():
    with pytest.raises(UnsupportedSpaceError):
        analytic_expected_distance(parse_space("so4"))


# ------------------------------------------------------------------ integrand

def test_integrand_at_zero_against_simplified_constants():
    # at zero: arctan(sec 0)/2 = pi/8, tan(pi/8) = sqrt(2) - 1,
    # so the value is arctan(3 - 2 sqrt(2)) - arctan(sqrt(2))^2 / sqrt(2)
    expected = math.atan(3.0 - 2.0 * math.sqrt(2.0)) - math.atan(math.sqrt(2.0)) ** 2 / math.sqrt(2.0)
    assert expected == pytest.approx(-0.4754082944616738, abs=1e-13)
    assert full_flag_integrand(0.0) == pytest.approx(expected, abs=1e-14)


def test_integrand_at_quarter_pi_against_simplified_constants():
    # sec(pi/4) = sqrt(2): arctan(tan^2(arctan(sqrt 2)/2)) - arctan(sqrt 3)^2/sqrt 3
    expected = (
        math.atan(math.tan(math.atan(math.sqrt(2.0)) / 2.0) ** 2)
        - math.atan(math.sqrt(3.0)) ** 2 / math.sqrt(3.0)
    )
    assert full_flag_integrand(math.pi / 4) == pytest.approx(expected, abs=1e-14)


def test_integrand_smooth_and_bounded_on_domain():
    xs = np.linspace(0.0, math.pi / 4, 4001)
    ys = full_flag_integrand(xs)
    assert np.all(np.isfinite(ys))
    assert np.all(ys < 0.0)
    assert np.abs(np.diff(ys)).max() < 1e-3  # no jumps at this resolution


def test_integrand_domain_errors():
    with pytest.raises(ValueError):
        full_flag_integrand(-0.1)
    with pytest.raises(ValueError):
        full_flag_integrand(math.pi / 4 + 0.1)


# ----------------------------------------------------------------- quadrature

def test_full_flag_expectation_to_twenty_digit_reference():
    res = expected_distance_full_flag(1e-12)
    assert abs(res.value - FULL_FLAG_REFERENCE) <= 1e-10
    assert res.abs_error_bound <= 1e-12
    assert res.evaluations >= 15


def test_full_flag_tolerance_validation():
    with pytest.raises(ValueError):
        expected_distance_full_flag(1e-14)


def test_full_flag_quadrature_convergence():
    tol = 1e-6
    prev = expected_distance_full_flag(tol).value
    while tol > 2e-13:
        tol /= 2
        cur = expected_distance_full_flag(tol).value
        assert abs(cur - prev) <= 2 * tol
        prev = cur


def _mpmath_full_flag(mp):
    """3 pi/2 + (96 / pi^2) times the integral of the full-flag integrand, in mpmath."""
    def integrand(phi3):
        sec = mp.sec(phi3)
        root = mp.sqrt(1 + sec * sec)
        return mp.atan(mp.tan(mp.atan(sec) / 2) ** 2) - mp.atan(root) ** 2 / root
    return 3 * mp.pi / 2 + 96 / mp.pi**2 * mp.quad(integrand, [0, mp.pi / 4])


def test_full_flag_against_mpmath_integral():
    # independent of the GK15 rule and its error heuristic: tanh-sinh at 30 digits
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    with mpmath.workdps(30):
        exact = _mpmath_full_flag(mp)
        assert abs(exact - mp.mpf("1.3117250347224445929")) <= mp.mpf("1e-19")
        for k in range(6, 14):
            res = expected_distance_full_flag(10.0**-k)
            assert abs(mp.mpf(res.value) - exact) <= res.abs_error_bound, k


def test_full_flag_agrees_with_monte_carlo():
    est = estimate_expected_distance(SPACE_ALIASES["full-flag"], 200_000, seed=2024)
    assert abs(est.mean - FULL_FLAG_REFERENCE) <= 5 * est.stderr


def test_partial_flag_integral_equals_one_plus_quarter_pi():
    val = expected_distance_partial_flag_integral(1e-10).value
    assert abs(val - (1.0 + math.pi / 4.0)) <= 1e-9
    with pytest.raises(ValueError):
        expected_distance_partial_flag_integral(1e-13)


def test_partial_flag_integrand_vanishes_at_corners():
    # the integrand arccos(cos a cos t) cos a sin a is 0 at (a, t) = (0, 0)
    # and (pi/2, 0)
    f = lambda a, t: math.acos(math.cos(a) * math.cos(t)) * math.cos(a) * math.sin(a)
    assert f(0.0, 0.0) == 0.0
    assert f(math.pi / 2, 0.0) == pytest.approx(0.0, abs=1e-16)


def test_full_flag_matches_join_coordinate_triple_integral():
    # the same expectation as a triple integral in join coordinates, with the
    # variable upper bound arctan(cos t1 / cos t2)
    def integrand(_t2, t1, alphas):
        ca = np.cos(alphas)
        return np.arccos(np.clip(ca * math.cos(t1), -1.0, 1.0)) * ca * np.sin(alphas)

    triple = nested_integral(
        integrand,
        (
            (-math.pi / 4, math.pi / 4),
            lambda _t2: (-math.pi / 4, math.pi / 4),
            lambda t2, t1: (0.0, math.atan(math.cos(t1) / math.cos(t2))),
        ),
        1e-9,
    )
    via_join = 32.0 / math.pi**2 * triple.value
    via_line = expected_distance_full_flag(1e-12).value
    assert abs(via_join - via_line) <= 1e-8


# -------------------------------------------------------------------- volumes

def test_numeric_volumes_match_exact_formula():
    for name in ("so3", "partial-flag-1", "full-flag"):
        space = SPACE_ALIASES[name]
        exact = float(flag_volume(space))
        numeric = numeric_volume(space, 1e-7).value
        assert abs(numeric - exact) / exact <= 1e-6, name


def test_numeric_volumes_sphere_and_projective():
    assert numeric_volume(SPACE_ALIASES["s2"], 1e-9).value == pytest.approx(4 * math.pi, abs=1e-8)
    assert numeric_volume(SPACE_ALIASES["rp2"], 1e-9).value == pytest.approx(2 * math.pi, abs=1e-8)


def test_numeric_volume_unsupported():
    with pytest.raises(UnsupportedSpaceError):
        numeric_volume(SPACE_ALIASES["trivial-flag"])


def test_partial_flags_share_their_volume_integral():
    vols = {numeric_volume(SPACE_ALIASES[f"partial-flag-{i}"], 1e-7) for i in (1, 2, 3)}
    assert len(vols) == 1  # identical integral for the three single-block orientations


def test_quadrature_bounds_hold_against_exact_values():
    tols = [10.0**-k for k in range(4, 11)]
    for name in ("s2", "rp2", "so3", "partial-flag-1", "full-flag"):
        space = SPACE_ALIASES[name]
        exact = float(flag_volume(space))
        for tol in tols:
            res = numeric_volume(space, tol)
            assert abs(res.value - exact) <= res.abs_error_bound, (name, tol)
    for tol in tols + [1e-11, 1e-12]:
        res = expected_distance_partial_flag_integral(tol)
        assert abs(res.value - (1.0 + math.pi / 4.0)) <= res.abs_error_bound, tol


# ------------------------------------------------------------- cross checks

def test_monte_carlo_agrees_with_every_closed_form():
    for name in ("so3", "s2", "rp2", "partial-flag-1", "trivial-flag"):
        space = SPACE_ALIASES[name]
        ref = analytic_expected_distance(space).value
        est = estimate_expected_distance(space, 100_000, seed=314)
        tol = 5 * est.stderr if est.stderr > 0 else 1e-12
        assert abs(est.mean - ref) <= tol, name
