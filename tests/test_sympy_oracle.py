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


# (1 - x(e^t - 1))^(-alpha) = sum_k alpha^(k rising) x^k (e^t - 1)^k / k!, whose EGF
# numbers are sum_k S(n,k) alpha^(k rising) x^k; e^{x(e^t - 1)} is the same sum without
# the rising factorial.  Summed from sympy's Stirling numbers, not its series expansion.
SERIES_ORDER = 24


@pytest.fixture(scope="module")
def stirling_rows():
    return [[sympy_stirling(n, k, kind=2) for k in range(n + 1)] for n in range(SERIES_ORDER + 1)]


def _stirling_sums(rows, weight) -> list[F]:
    weights = [weight(k) for k in range(SERIES_ORDER + 1)]
    return [_fraction(sum(s * w for s, w in zip(row, weights))) for row in rows]


@pytest.mark.parametrize("x", [F(1), F(-1, 2), F(2, 3), F(-2, 3), F(5, 4), F(0)])
def test_exp_bell_and_general_geometric_series_from_stirling_sums(stirling_rows, x):
    x_sym = sympy.Rational(x.numerator, x.denominator)
    got = fam.gf_exp_bell(x, SERIES_ORDER)
    assert [got.egf_coeff(n) for n in range(SERIES_ORDER + 1)] == _stirling_sums(stirling_rows, lambda k: x_sym**k)
    for alpha in (F(1), F(5, 2), F(-3), F(1, 2), F(0), F(7, 3)):
        a_sym = sympy.Rational(alpha.numerator, alpha.denominator)
        want = _stirling_sums(stirling_rows, lambda k: sympy.rf(a_sym, k) * x_sym**k)
        got = fam.gf_general_geometric(x, alpha, SERIES_ORDER)
        assert [got.egf_coeff(n) for n in range(SERIES_ORDER + 1)] == want, alpha
