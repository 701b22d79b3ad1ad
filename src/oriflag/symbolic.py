"""Exact numbers of the form sum_s q_s * pi**s with rational q_s and integer s.

Every volume and closed-form expectation handled by this package is such a
combination, so storing them exactly lets callers test equality without
floating-point tolerances. Use :meth:`PiExpression.value` (or ``float(...)``)
for a decimal rendering.
"""

from __future__ import annotations

import decimal
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational


def _canonical(terms: dict[int, Fraction]) -> tuple[tuple[int, Fraction], ...]:
    return tuple(sorted((s, q) for s, q in terms.items() if q != 0))


def _term_value(s: int, q: Fraction) -> float:
    """q * pi**s as a double: float(q) * pi**s while both factors and the product are normal."""
    try:
        fq, power = float(q), math.pi**s
    except OverflowError:
        fq = power = math.inf
    value = fq * power
    if all(sys.float_info.min <= abs(x) < math.inf for x in (fq, power, value)):
        return value
    # A factor leaves the double range although the term may not: the volume of
    # SO(46) is pi^529 times a rational near 1e-364. Round the exact product
    # once, unless the bit lengths of q and s log2 pi put it below 2^-1076, which
    # rounds to a signed zero; the exact power's numerator alone has 50 s bits,
    # 4.5 million for SO(600).
    if q.numerator.bit_length() - q.denominator.bit_length() + 1 + s * math.log2(math.pi) < -1076:
        return -0.0 if q < 0 else 0.0
    return float(q * Fraction(math.pi) ** s)


@dataclass(frozen=True)
class PiExpression:
    """A finite sum of rational multiples of integer powers of pi.

    ``terms`` maps each power of pi to its rational coefficient; it is kept
    sorted by power with zero coefficients dropped, so equality and hashing
    are structural. The zero expression has no terms.
    """

    terms: tuple[tuple[int, Fraction], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", _canonical(dict(self.terms)))

    @classmethod
    def rational(cls, q) -> "PiExpression":
        return cls(((0, Fraction(q)),))

    @classmethod
    def pi_power(cls, s: int, coefficient=1) -> "PiExpression":
        return cls(((int(s), Fraction(coefficient)),))

    @classmethod
    def zero(cls) -> "PiExpression":
        return cls()

    @property
    def is_monomial(self) -> bool:
        return len(self.terms) <= 1

    @property
    def value(self) -> float:
        return float(self)

    def __float__(self) -> float:
        values = [_term_value(s, q) for s, q in self.terms]
        # fsum gives +0.0 for -0.0 terms; a negative sum too small for a double
        # rounds to -0.0.
        if values and all(v == 0.0 and math.copysign(1.0, v) < 0.0 for v in values):
            return -0.0
        return math.fsum(values)

    def __add__(self, other) -> "PiExpression":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc = dict(self.terms)
        for s, q in other.terms:
            acc[s] = acc.get(s, Fraction(0)) + q
        return PiExpression(_canonical(acc))

    __radd__ = __add__

    def __neg__(self) -> "PiExpression":
        return PiExpression(tuple((s, -q) for s, q in self.terms))

    def __sub__(self, other) -> "PiExpression":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "PiExpression":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc: dict[int, Fraction] = {}
        for s1, q1 in self.terms:
            for s2, q2 in other.terms:
                s = s1 + s2
                acc[s] = acc.get(s, Fraction(0)) + q1 * q2
        return PiExpression(_canonical(acc))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "PiExpression":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent == 0:
            return PiExpression.rational(1)
        if exponent < 0:
            if not self.is_monomial or not self.terms:
                raise ValueError("negative powers require a nonzero monomial")
            s, q = self.terms[0]
            return PiExpression(((s * exponent, q**exponent),))
        out = self
        for _ in range(exponent - 1):
            out = out * self
        return out

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for idx, (s, q) in enumerate(self.terms):
            rendered = _term_str(s, abs(q))
            if idx == 0:
                parts.append(("-" if q < 0 else "") + rendered)
            else:
                parts.append((" - " if q < 0 else " + ") + rendered)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"PiExpression({self})"


def _coerce(other) -> "PiExpression":
    if isinstance(other, PiExpression):
        return other
    if isinstance(other, Rational):
        return PiExpression.rational(other)
    return NotImplemented


def _digits(n: int) -> str:
    """Decimal digits of ``n``; unlike ``str(int)``, not capped at 4300 digits."""
    return str(decimal.Decimal(n))


def _term_str(s: int, q: Fraction) -> str:
    num_factors = []
    den_factors = []
    if q.numerator != 1 or s == 0:
        num_factors.append(_digits(q.numerator))
    if s > 0:
        num_factors.append("pi" if s == 1 else f"pi^{s}")
    if q.denominator != 1:
        den_factors.append(_digits(q.denominator))
    if s < 0:
        den_factors.append("pi" if s == -1 else f"pi^{-s}")
    num = "*".join(num_factors) if num_factors else "1"
    if not den_factors:
        return num
    den = "*".join(den_factors)
    if len(den_factors) > 1:
        den = f"({den})"
    return f"{num}/{den}"

