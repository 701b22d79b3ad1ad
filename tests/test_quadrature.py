import functools
import math

import numpy as np
import pytest

import quadrature_oracle
from oriflag import analytic, quadrature
from oriflag.analytic import expected_distance_full_flag, expected_distance_partial_flag_integral, numeric_volume
from oriflag.flagspec import flag_volume
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
    # every integrand is evaluated through the rule, a panel or a block of panels at a time,
    # so counting the calls of each integrand it is handed counts them all
    calls = []
    rule, rows_rule = quadrature._gk15, quadrature._gk15_rows

    def counting_rule(f, a, b):
        return rule(lambda x: calls.append(x) or f(x), a, b)

    def counting_rows_rule(f, a, b, rows):
        return rows_rule(lambda xs, rows: calls.append(xs) or f(xs, rows), a, b, rows)

    monkeypatch.setattr(quadrature, "_gk15", counting_rule)
    monkeypatch.setattr(quadrature, "_gk15_rows", counting_rows_rule)
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


def test_tolerance_below_the_first_panels_roundoff_floor_fails_at_once():
    # 50 eps times the integral of |sin| over [0, pi] is 2.2e-14: no split reaches 1e-14
    calls = []
    with pytest.raises(QuadratureError, match="roundoff floor"):
        adaptive_gauss_kronrod(lambda x: calls.append(x) or np.sin(x), 0.0, math.pi, 1e-14)
    assert len(calls) == 1


def test_bisection_reuses_the_first_panel():
    # the same budget failure as before, one panel and then two per bisection
    calls = []
    with pytest.raises(QuadratureError, match="more than 8 subintervals"):
        adaptive_gauss_kronrod(
            lambda x: calls.append(x) or 1.0 / np.sqrt(np.abs(x)), 0.0, 1.0, 1e-10, max_intervals=8
        )
    assert len(calls) == 1 + 2 * 7


# The five volume integrals and the two expectation integrals, by name.
_INTEGRALS = {
    **{space: (lambda tol, space=space: numeric_volume(parse_space(space), tol))
       for space in ("s2", "rp2", "so3", "partial-flag-1", "full-flag")},
    "partial-flag integral": expected_distance_partial_flag_integral,
    "full-flag integral": expected_distance_full_flag,
}


def _reference_rule(monkeypatch, name, tol):
    """``name`` at ``tol`` through the rule of ``quadrature_oracle``."""
    with monkeypatch.context() as m:
        m.setattr(analytic, "adaptive_gauss_kronrod", quadrature_oracle.adaptive_gauss_kronrod)
        m.setattr(analytic, "nested_integral", quadrature_oracle.nested_integral)
        return _INTEGRALS[name](tol)


# Refusals where the reference rule bisects the outermost level to its budget before it
# fails too (6.9 million points for so3, 34.5 million for partial-flag-1): each runs
# that level at tol / 10 below 50 eps times its integral, the volume over its multiple.
_SLOW_REFERENCE_FAILURES = {
    ("so3", 3e-12): 1.0,
    ("so3", 2e-12): 1.0,
    ("partial-flag-1", 2e-12): 2.0,
    ("partial-flag-1", 1e-12): 2.0,
}


@pytest.mark.parametrize("tol", [1e-7, 1e-8, 1e-10, 3e-12, 2e-12, 1e-12, 1e-13])
@pytest.mark.parametrize("name", list(_INTEGRALS))
def test_the_reference_rule_gives_the_same_result_and_reaches_nothing_refused(monkeypatch, name, tol):
    try:
        res = _INTEGRALS[name](tol)
    except QuadratureError:
        if (name, tol) in _SLOW_REFERENCE_FAILURES:
            # every panel's bound is at least 50 eps times its estimate of the integral of
            # the (positive) outer integrand, and over any split those add up to its integral
            outer_integral = float(flag_volume(parse_space(name))) / _SLOW_REFERENCE_FAILURES[name, tol]
            assert tol / 10.0 < 0.99 * 50.0 * quadrature._EPS * outer_integral
        else:
            with pytest.raises(QuadratureError, match="subintervals"):
                _reference_rule(monkeypatch, name, tol)
    else:
        # the same values and evaluation counts; the bound takes its absolute sums in
        # one product, so it may move in the last bits
        ref = _reference_rule(monkeypatch, name, tol)
        assert res.value.hex() == ref.value.hex()
        assert res.evaluations == ref.evaluations
        assert abs(res.abs_error_bound - ref.abs_error_bound) <= 4 * math.ulp(ref.abs_error_bound)


# The two expectation integrals: (the integrand's name in analytic, the exact value, the
# smallest tolerance it must reach, 1.25 times or more its measured roundoff floor).
_EXPECTATION_INTEGRALS = {
    "full-flag integral": ("full_flag_integrand", 1.3117250347224445929, 5e-14),
    "partial-flag integral": ("_join_integrand", 1.0 + math.pi / 4.0, 5e-13),
}


@pytest.mark.parametrize("tol", np.geomspace(1e-15, 1.2e-12, 40).tolist(), ids="{:.3g}".format)
@pytest.mark.parametrize("name", list(_EXPECTATION_INTEGRALS))
def test_expectations_reach_a_tolerance_near_their_roundoff_floor_or_refuse_it_within_5000_points(
        monkeypatch, name, tol):
    # bisecting toward the 1024-subinterval budget takes tens of thousands of points; reaching a
    # tolerance or refusing it takes at most 2 235
    integrand_name, exact, reached_from = _EXPECTATION_INTEGRALS[name]
    integrand, points = getattr(analytic, integrand_name), []

    def counted(*args):
        points.append(np.size(args[-1]))
        assert sum(points) < 5_000
        return integrand(*args)

    monkeypatch.setattr(analytic, integrand_name, counted)
    try:
        res = _INTEGRALS[name](tol)
    except QuadratureError:
        assert tol < reached_from
    else:
        assert res.abs_error_bound <= tol
        assert abs(res.value - exact) <= res.abs_error_bound
        assert res.evaluations == sum(points)


def _outcome(integrate, *args, **kwargs):
    """float.hex of the value and bound, and the evaluations, of ``integrate(...)``; or the type and
    message of the exception it raises."""
    try:
        res = integrate(*args, **kwargs)
    except (ValueError, QuadratureError) as exc:
        return type(exc), str(exc)
    return res.value.hex(), res.abs_error_bound.hex(), res.evaluations


# (integrand, a, b) at tol 1e-10 with at most 32 subintervals: empty; settled on its first panel;
# bisected 2, 20 and 17 times; refused at its roundoff floor 2.2e-10; out of subintervals
_MIX = [
    (np.sin, 1.0, 1.0),
    (lambda x: x**2, 0.0, 1.0),
    (lambda x: np.exp(-x * x) * np.cos(3 * x), 0.0, 2.0),
    (np.sqrt, 0.0, 1.0),
    (lambda x: np.abs(x - 0.3), 0.0, 1.0),
    (lambda x: 1e4 * np.sin(x), 0.0, math.pi),
    (lambda x: 1.0 / np.sqrt(np.abs(x)), 0.0, 1.0),
]
_ORDERS = [list(range(5))] + [
    order for k in range(len(_MIX)) for order in (
        [(i + k) % len(_MIX) for i in range(len(_MIX))],
        [(k - i) % len(_MIX) for i in range(len(_MIX))],
    )
]


@pytest.mark.parametrize("order", _ORDERS, ids=lambda order: "".join(map(str, order)))
def test_integrals_run_side_by_side_give_what_each_gives_alone(order):
    mix = [_MIX[i] for i in order]
    lone = [_outcome(adaptive_gauss_kronrod, g, a, b, 1e-10, max_intervals=32) for g, a, b in mix]

    def rows_of_their_integrands(xs, rows):
        return np.array([mix[i][0](x) for i, x in zip(rows, xs)]), None

    done, error = quadrature._integrate(functools.partial(quadrature._gk15_rows, rows_of_their_integrands),
                                        [a for _, a, _ in mix], [b for _, _, b in mix], 1e-10, 32)
    failed = [k for k, outcome in enumerate(lone) if isinstance(outcome[0], type)]
    # the integrals before the first to fail in this order, then the exception that one raises alone
    # (the floor refusal comes in the first round, the subinterval budget in the 31st)
    assert [(v.hex(), bound.hex(), n) for v, bound, n in done] == lone[:failed[0] if failed else None]
    if failed:
        assert (type(error), str(error)) == lone[failed[0]]
    else:
        assert error is None


# The package's nested integral run one outer node at a time, over its own rule.
_node_by_node = functools.partial(quadrature_oracle.nested_integral, rule=adaptive_gauss_kronrod)


@pytest.mark.parametrize("tol", [1e-7, 1e-8, 1e-10, 1e-11, 3e-12, 2.2e-12, 2e-12, 1e-12, 1e-13])
@pytest.mark.parametrize("name", list(_INTEGRALS))
def test_levels_side_by_side_give_the_bits_of_node_by_node_recursion(monkeypatch, name, tol):
    outcome = _outcome(_INTEGRALS[name], tol)
    monkeypatch.setattr(analytic, "nested_integral", _node_by_node)
    assert outcome == _outcome(_INTEGRALS[name], tol)


# Integrals whose inner integrals bisect to depths that vary with the outer variables.
_VARYING_DEPTHS = {
    # a kink at y = x
    "kink": (lambda x, ys: np.abs(ys - x), ((0.0, 1.0), lambda _x: (0.0, 1.0))),
    # past x = 0.5 or so the inner roundoff floor is above tol / 10: the first such node's refusal
    "kink-refused": (lambda x, ys: np.abs(ys - x) * np.exp(30.0 * x), ((0.0, 1.0), lambda _x: (0.0, 1.0))),
    "kink-3-levels": (lambda x, y, zs: np.abs(zs - x) * np.exp(y),
                      ((0.0, 1.0), lambda x: (0.0, x), lambda _x, _y: (0.0, 1.0))),
    "kink-3-levels-refused": (lambda x, y, zs: np.abs(zs - y) * np.exp(20.0 * x * y),
                              ((0.0, 1.0), lambda x: (0.0, x), lambda _x, _y: (0.0, 1.0))),
}


@pytest.mark.parametrize("name, tol", [
    ("kink", 1e-5), ("kink", 1e-7), ("kink-refused", 1e-6), ("kink-3-levels", 1e-5), ("kink-3-levels-refused", 1e-5),
])
def test_levels_side_by_side_give_the_bits_of_node_by_node_recursion_at_varying_depths(name, tol):
    f, ranges = _VARYING_DEPTHS[name]
    outcome = _outcome(nested_integral, f, ranges, tol)
    assert (outcome[0] is QuadratureError) == name.endswith("refused")
    assert outcome == _outcome(_node_by_node, f, ranges, tol)
