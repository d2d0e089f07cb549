"""Cross-checks against sympy, an oracle outside this package (test-only;
skipped where sympy is not installed)."""

from fractions import Fraction as F
from math import factorial

import pytest

sympy = pytest.importorskip("sympy")
from sympy.functions.combinatorial.numbers import stirling as sympy_stirling  # noqa: E402

from polyfam import families as fam  # noqa: E402
from polyfam.stirling import stirling1_unsigned, stirling2  # noqa: E402

ORDER = 8
t = sympy.Symbol("t")


def _fraction(value) -> F:
    value = sympy.sympify(value)
    assert value.is_Rational, value
    return F(int(value.p), int(value.q))


def _egf_values(expr, order: int) -> list[F]:
    """n! [t^n] expr for n <= order."""
    poly = sympy.series(expr, t, 0, order + 1).removeO()
    return [factorial(n) * _fraction(poly.coeff(t, n)) for n in range(order + 1)]


def test_bell_numbers_and_stirling_triangles():
    for n in range(16):
        assert fam.bell(n) == int(sympy.bell(n))
        for k in range(n + 1):
            assert stirling2(n, k) == int(sympy_stirling(n, k, kind=2))
            assert stirling1_unsigned(n, k) == int(sympy_stirling(n, k, kind=1))


def test_bernoulli_and_euler_values_at_zero():
    # sympy's bernoulli(n) has B_1 = +1/2 and euler(n) are the secant numbers;
    # the polynomial values at 0 match this package's conventions
    for n in range(16):
        assert fam.bernoulli_classical(n) == _fraction(sympy.bernoulli(n, 0))
        assert fam.euler_classical(n) == _fraction(sympy.euler(n, 0))


@pytest.mark.parametrize("l", [1, 2, 3])
def test_higher_order_bernoulli_from_sympy_series(l):
    want = _egf_values((t / (sympy.exp(t) - 1)) ** l, ORDER)
    assert [fam.bernoulli_higher(n, l) for n in range(ORDER + 1)] == want


@pytest.mark.parametrize("alpha", [1, 2])
@pytest.mark.parametrize("lam", [F(2), F(1, 3), F(-3), F(0)])
def test_integer_order_apostol_euler_from_sympy_series(alpha, lam):
    lam_sym = sympy.Rational(lam.numerator, lam.denominator)
    want = _egf_values((2 / (lam_sym * sympy.exp(t) + 1)) ** alpha, ORDER)
    assert [fam.apostol_euler_higher(n, alpha, lam) for n in range(ORDER + 1)] == want


@pytest.mark.parametrize("l", [1, 2, 3])
@pytest.mark.parametrize("lam", [F(2), F(1, 3), F(-3), F(0)])
def test_apostol_bernoulli_from_sympy_series(l, lam):
    lam_sym = sympy.Rational(lam.numerator, lam.denominator)
    want = _egf_values((t / (lam_sym * sympy.exp(t) - 1)) ** l, ORDER)
    assert [fam.gf_apostol_bernoulli(l, lam, ORDER).egf_coeff(n) for n in range(ORDER + 1)] == want
    assert [fam.apostol_bernoulli_higher(n, l, lam) for n in range(ORDER + 1)] == want
