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


def test_deep_underflow_is_a_signed_zero_without_the_exact_power(monkeypatch):
    # Vol SO(600) = q pi^90000 lies far below the double range; its float is
    # the 0.0 that exact rounding gives, found from bit lengths alone
    from oriflag import symbolic
    from oriflag.flagspec import flag_volume
    from oriflag.spaces import parse_space

    volume = flag_volume(parse_space("so600"))
    (s, q), = volume.terms
    monkeypatch.setattr(symbolic, "Fraction", None)
    assert float(volume) == 0.0
    for signed in (q, -q):
        assert math.copysign(1.0, symbolic._term_value(s, signed)) == math.copysign(1.0, float(signed))


def test_negative_underflow_is_negative_zero():
    # exact rounding of -Vol SO(600) is -0.0; a sum of underflowed terms keeps
    # their sign when all share it, and the zero expression is +0.0
    from oriflag.flagspec import flag_volume
    from oriflag.spaces import parse_space

    volume = flag_volume(parse_space("so600"))
    assert math.copysign(1.0, float(-volume)) == -1.0
    assert math.copysign(1.0, float(volume)) == 1.0
    tiny = PiExpression.pi_power(-2000, -1) + PiExpression.pi_power(-2001, -1)
    assert math.copysign(1.0, float(tiny)) == -1.0
    assert math.copysign(1.0, float(tiny - 2 * tiny)) == 1.0
    assert math.copysign(1.0, float(PiExpression.zero())) == 1.0


def exact_rounding(s, q):
    return float(q * Fraction(math.pi) ** s)


def test_volumes_near_the_underflow_edge_keep_their_rounding():
    # so40 to so62 lie in range, so63 on round to zero; a volume whose q or
    # pi^s is out of range (so44 on) is rounded once, exactly, and the rest
    # keep the plain float(q) * pi**s
    from oriflag.flagspec import flag_volume
    from oriflag.spaces import parse_space

    exact = 0
    for n in range(40, 71):
        (s, q), = flag_volume(parse_space(f"so{n}")).terms
        try:
            factors = (float(q), math.pi**s)
        except OverflowError:
            factors = (math.inf,)
        if all(2.0**-1022 <= x < math.inf for x in (*factors, math.prod(factors))):
            assert float(PiExpression.pi_power(s, q)) == math.prod(factors), n
        else:
            assert float(PiExpression.pi_power(s, q)) == exact_rounding(s, q), n
            exact += 1
    assert exact == 27


def test_terms_at_the_underflow_edge_round_exactly():
    # q pi^s with log2 from -1085 to -1070, both signs, for powers of pi that
    # are normal, below the double range and above it
    from oriflag.symbolic import _term_value

    for s in (-700, -1, 0, 1, 40, 700, 2000):
        for target in (-1085 + k / 4 for k in range(61)):
            shift = round(target - s * math.log2(math.pi))
            for odd in (1, 3, 7, 2**60 + 1):
                q = odd * Fraction(2) ** (shift - odd.bit_length() + 1)
                for signed in (q, -q):
                    got, want = _term_value(s, signed), exact_rounding(s, signed)
                    assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), (s, target, odd)
