import math

import numpy as np
import pytest

from oriflag import quadrature
from oriflag.analytic import expected_distance_full_flag, expected_distance_partial_flag_integral, numeric_volume
from oriflag.quadrature import QuadratureError, adaptive_gauss_kronrod, nested_integral
from oriflag.spaces import parse_space


def test_polynomial_is_exact():
    res = adaptive_gauss_kronrod(lambda x: x**2, 0.0, 1.0, 1e-12)
    assert abs(res.value - 1.0 / 3.0) <= 1e-15
    assert res.evaluations == 15


def test_rule_is_exact_through_degree_22():
    # pins the hardcoded node/weight table: a 15-point Kronrod rule
    # integrates polynomials up to degree 22 exactly
    for k in (20, 21, 22):
        res = adaptive_gauss_kronrod(lambda x: x**k, 0.0, 1.0, 1e-9)
        assert abs(res.value - 1.0 / (k + 1)) <= 5e-15, k


def test_sine_integral():
    res = adaptive_gauss_kronrod(np.sin, 0.0, math.pi, 1e-13)
    assert abs(res.value - 2.0) <= 1e-13
    assert res.abs_error_bound <= 1e-13


def test_oscillatory_integral():
    res = adaptive_gauss_kronrod(np.sin, 0.0, 10.0, 1e-12)
    truth = 1.0 - math.cos(10.0)
    assert abs(res.value - truth) <= max(res.abs_error_bound, 1e-13)


def test_error_bound_is_honest():
    for tol in (1e-6, 1e-9, 1e-12):
        res = adaptive_gauss_kronrod(lambda x: np.exp(-x * x), 0.0, 3.0, tol)
        truth = math.sqrt(math.pi) / 2 * math.erf(3.0)
        assert res.abs_error_bound <= tol
        assert abs(res.value - truth) <= max(res.abs_error_bound, 5e-15)


def test_halving_tolerance_is_stable():
    f = lambda x: np.exp(-x * x) * np.cos(3 * x)
    tol = 1e-6
    prev = adaptive_gauss_kronrod(f, 0.0, 2.0, tol).value
    for _ in range(18):
        tol /= 2
        cur = adaptive_gauss_kronrod(f, 0.0, 2.0, max(tol, 1e-14)).value
        assert abs(cur - prev) <= 2 * tol
        prev = cur


def test_empty_interval():
    res = adaptive_gauss_kronrod(np.sin, 1.0, 1.0, 1e-12)
    assert res.value == 0.0 and res.evaluations == 0


def test_budget_exhaustion_raises():
    with pytest.raises(QuadratureError):
        adaptive_gauss_kronrod(
            lambda x: 1.0 / np.sqrt(np.abs(x)), 0.0, 1.0, 1e-14, max_intervals=8
        )


def test_invalid_tolerance():
    with pytest.raises(ValueError):
        adaptive_gauss_kronrod(np.sin, 0.0, 1.0, 0.0)


@pytest.mark.parametrize("integrate", [
    lambda tol: adaptive_gauss_kronrod(np.sin, 0.0, 1.0, tol),
    expected_distance_full_flag,
    expected_distance_partial_flag_integral,
    lambda tol: numeric_volume(parse_space("so3"), tol),
], ids=["adaptive", "full-flag", "partial-flag", "numeric-volume"])
def test_nan_tolerance_is_refused_before_any_evaluation(integrate, monkeypatch):
    # every integrand is evaluated through the rule, so counting the calls of
    # each integrand it is handed counts them all
    calls = []
    rule = quadrature._gk15

    def counting_rule(f, a, b):
        return rule(lambda x: calls.append(x) or f(x), a, b)

    monkeypatch.setattr(quadrature, "_gk15", counting_rule)
    assert integrate(1e-6).value > 0.0 and calls
    calls.clear()
    with pytest.raises(ValueError):
        integrate(float("nan"))
    assert calls == []


def test_nested_double_integral_rectangle():
    # integral of x*y over [0,1]x[0,2] = 1
    res = nested_integral(lambda x, ys: x * ys, ((0.0, 1.0), lambda _x: (0.0, 2.0)), 1e-10)
    assert abs(res.value - 1.0) <= 1e-10


def test_nested_double_integral_variable_bound():
    # area under y < x over the unit square = 1/2
    res = nested_integral(lambda x, ys: np.ones_like(ys), ((0.0, 1.0), lambda x: (0.0, x)), 1e-10)
    assert abs(res.value - 0.5) <= 1e-10


def test_nested_triple_integral_simplex_volume():
    # volume of x+y+z <= 1, x,y,z >= 0 is 1/6
    res = nested_integral(
        lambda x, y, zs: np.ones_like(zs),
        ((0.0, 1.0), lambda x: (0.0, 1.0 - x), lambda x, y: (0.0, 1.0 - x - y)),
        1e-9,
    )
    assert abs(res.value - 1.0 / 6.0) <= 1e-8


def test_nested_evaluations_count_the_integrand_points():
    # a polynomial of low degree takes one 15-point panel at every level
    integrands = [
        lambda xs: xs**2,
        lambda x, ys: x**2 * ys**2,
        lambda x, y, zs: x**2 * y**2 * zs**2,
    ]
    for levels, f in enumerate(integrands, start=1):
        ranges = ((0.0, 1.0),) + (lambda *_outer: (0.0, 1.0),) * (levels - 1)
        res = nested_integral(f, ranges, 1e-10)
        assert res.evaluations == 15**levels
        assert abs(res.value - 3.0**-levels) <= res.abs_error_bound


def test_nested_bound_is_the_outer_bound_plus_length_times_the_largest_inner_bound():
    f = lambda x, ys: x * ys**2
    inner_bounds = []

    def outer_integrand(xs):
        inner = [adaptive_gauss_kronrod(lambda ys: f(x, ys), 0.0, x, 1e-11) for x in xs]
        inner_bounds.extend(r.abs_error_bound for r in inner)
        return np.array([r.value for r in inner])

    outer = adaptive_gauss_kronrod(outer_integrand, 0.0, 2.0, 1e-11)
    res = nested_integral(f, ((0.0, 2.0), lambda x: (0.0, x)), 1e-10)
    assert res.value == outer.value
    assert res.abs_error_bound == outer.abs_error_bound + 2.0 * max(inner_bounds)
    assert abs(res.value - 32.0 / 15.0) <= res.abs_error_bound
