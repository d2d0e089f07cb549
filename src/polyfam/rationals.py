"""Exact scalar arithmetic: rationals, factorials, binomial coefficients.

The scalar type used everywhere in this package is ``fractions.Fraction``,
which already guarantees the invariants we rely on (lowest terms, positive
denominator, exact arithmetic on arbitrary-precision integers).  This module
adds the combinatorial helpers and the canonical string form used by the CLI
and the report files.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

Rational = Fraction

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


class DomainError(ValueError):
    """A value lies outside the mathematical domain of an operation."""


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or ``"p"`` into an exact rational.

    Decimal notation is rejected on purpose: every numeral in this package is
    exact, and ``0.1`` does not mean what the user thinks it means.
    """
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise DomainError(f"not an exact rational (use p/q or integer form): {text!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise DomainError(f"zero denominator: {text!r}") from None


def rational_str(value: Fraction | int) -> str:
    """Canonical form: ``"p/q"``, or ``"p"`` when the denominator is 1."""
    if type(value) is int or type(value) is Fraction:  # exact: a bool prints as 1
        return str(value)
    return str(Fraction(value))


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator) of a rational argument in lowest terms; an
    int or a Fraction is read as it is, anything else through Fraction()."""
    return (x if isinstance(x, (int, Fraction)) else Fraction(x)).as_integer_ratio()


def sum_over_lcm(terms) -> Fraction:
    """The sum of num/den over (num, den) integer pairs as one integer over the
    lcm of the dens, made a Fraction once: a single gcd for the whole sum
    (Henrici's rule; Knuth, TAOCP Vol. 2, 4.5.1)."""
    terms = [(num, den) for num, den in terms if num]
    den = math.lcm(*(d for _, d in terms))
    return Fraction(sum(num * (den // d) for num, d in terms), den)


def factorial(n: int) -> int:
    if n < 0:
        raise DomainError(f"factorial requires n >= 0, got {n}")
    return math.factorial(n)


def binomial(n: int, k: int) -> int:
    """C(n, k) for n >= 0, with the convention 0 for k < 0 or k > n."""
    if n < 0:
        raise DomainError(f"binomial requires n >= 0, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def gen_binomial(r: Fraction | int, k: int) -> Fraction:
    """Generalized binomial coefficient C(r, k) = r(r-1)...(r-k+1)/k!.

    For r = p/q the falling product p(p-q)...(p-(k-1)q) is built in integers and
    divided once by q^k k!, so any rational upper argument is valid (negative too).
    """
    if k < 0:
        raise DomainError(f"gen_binomial requires k >= 0, got {k}")
    p, q = Fraction(r).as_integer_ratio()
    return Fraction(math.prod(p - i * q for i in range(k)), q**k * math.factorial(k))
