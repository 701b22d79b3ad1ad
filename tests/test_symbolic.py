import math
from fractions import Fraction

import pytest

from oriflag.symbolic import PiExpression


def test_rational_and_pi_power_values():
    assert float(PiExpression.rational(2)) == 2.0
    assert float(PiExpression.pi_power(2, 8)) == pytest.approx(8 * math.pi**2, rel=1e-15)
    assert float(PiExpression.zero()) == 0.0


def test_structural_equality_and_hash():
    a = PiExpression(((1, Fraction(1, 2)), (-1, Fraction(2))))
    b = PiExpression(((-1, Fraction(2)), (1, Fraction(1, 2))))
    assert a == b
    assert hash(a) == hash(b)
    assert a != PiExpression.pi_power(1, Fraction(1, 2))


def test_zero_coefficients_are_dropped():
    assert PiExpression(((2, Fraction(0)),)) == PiExpression.zero()
    a = PiExpression.pi_power(1) - PiExpression.pi_power(1)
    assert a == PiExpression.zero()
    assert str(a) == "0"


def test_arithmetic():
    pi = PiExpression.pi_power(1)
    expr = pi * pi * Fraction(2) + 1
    assert expr == PiExpression(((0, Fraction(1)), (2, Fraction(2))))
    assert float(expr) == pytest.approx(1 + 2 * math.pi**2, rel=1e-15)
    assert (pi**0) == PiExpression.rational(1)
    assert pi**3 == PiExpression.pi_power(3)


def test_negative_powers_of_monomials():
    v = PiExpression.pi_power(1, 4)  # 4*pi
    assert v**-1 == PiExpression.pi_power(-1, Fraction(1, 4))
    assert float(v**-2) == pytest.approx(1 / (16 * math.pi**2), rel=1e-15)
    with pytest.raises(ValueError):
        (v + 1) ** -1


def test_rendering():
    assert str(PiExpression.pi_power(2, 8)) == "8*pi^2"
    assert str(PiExpression.pi_power(1, Fraction(1, 2))) == "pi/2"
    assert str(PiExpression.rational(1)) == "1"
    assert str(PiExpression(((0, Fraction(1)), (1, Fraction(1, 4))))) == "1 + pi/4"
    assert str(PiExpression(((-1, Fraction(2)), (1, Fraction(1, 2))))) == "2/pi + pi/2"
    assert str(PiExpression.pi_power(-2, Fraction(1, 3)))== "1/(3*pi^2)"
    assert str(PiExpression.pi_power(1, -3)) == "-3*pi"


@pytest.mark.parametrize("n", [46, 50, 60])
def test_volume_of_large_rotation_group_is_not_lost_to_a_factor(n):
    # Vol SO(n) = pi^s q with q below the double range (n=46) or pi^s above it (n=50, 60).
    from oriflag.flagspec import flag_volume, parse_flagspec

    blocks = "".join(f"{{{i}}}" for i in range(1, n + 1))
    spec = parse_flagspec("lambda=" + ",".join(["1"] * n) + " P=" + blocks)
    log_ref = sum(
        math.log(2) + i / 2 * math.log(math.pi) - math.lgamma(i / 2) for i in range(2, n + 1)
    )
    assert math.log(float(flag_volume(spec))) == pytest.approx(log_ref, rel=1e-12)
    # terms of ordinary size keep the plain float(q) * pi**s rounding
    assert float(PiExpression.pi_power(6, Fraction(1, 60))) == float(Fraction(1, 60)) * math.pi**6
