from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyfam.rationals import DomainError, binomial, gen_binomial
from polyfam.series import Series, binomial_power, expm1_over_t

from .oracles import bell_by_enumeration, log1p_series, truncate

coeff = st.fractions(min_value=-100, max_value=100, max_denominator=20)


def series_st(order=8, unit=False, zero_constant=False):
    def build(cs):
        cs = list(cs)
        if unit:
            cs = [F(1)] + cs
        if zero_constant:
            cs = [F(0)] + cs
        return Series(cs, order)

    return st.lists(coeff, max_size=order).map(build)


def test_basic_arithmetic_and_truncation_rule():
    a = Series([1, 2, 3], 5)
    b = Series([1, 1], 3)
    assert (a + b).order == 3
    assert (a * b).order == 3
    assert a * Series.one(5) == a
    geo = Series([1, -1, 1, -1], 3)
    assert (Series([1, 1], 3) * geo) == Series.one(3)


def test_coeff_bounds_are_enforced():
    s = Series([1, 2], 4)
    with pytest.raises(IndexError):
        s.coeff(5)
    assert truncate(s, 1).coeffs == (F(1), F(2))
    with pytest.raises(ValueError):
        truncate(s, 9)


def test_inverse_examples():
    inv = Series([1, -1], 4).inverse()
    assert inv == Series([1, 1, 1, 1, 1], 4)
    e = Series.exp_t(1, 8)
    assert e.inverse() == Series.exp_t(-1, 8)
    with pytest.raises(DomainError):
        Series([0, 1], 3).inverse()


@given(series_st(order=8, unit=True))
def test_inverse_is_involutive(a):
    assert a.inverse().inverse() == a
    assert a * a.inverse() == Series.one(8)


def test_exp_examples():
    t = Series.t(3)
    assert t.exp() == Series([1, 1, F(1, 2), F(1, 6)], 3)
    assert Series.zero(5).exp() == Series.one(5)
    with pytest.raises(DomainError):
        Series([1, 1], 3).exp()
    sq = Series.exp_t(1, 8) ** 2
    assert sq == Series.exp_t(2, 8)


def test_exp_of_expm1_gives_bell_numbers():
    u = Series.exp_t(1, 6) - 1
    bell_egf = u.exp()
    got = [bell_egf.egf_coeff(n) for n in range(7)]
    assert got == [bell_by_enumeration(n) for n in range(7)]


@given(series_st(order=7, zero_constant=True))
def test_exp_derivative_identity(u):
    e = u.exp()
    assert e.derivative() == truncate(u.derivative() * e, 6)


@given(series_st(order=6, zero_constant=True), series_st(order=6, zero_constant=True))
def test_exp_is_a_homomorphism(u, v):
    assert (u + v).exp() == u.exp() * v.exp()


def test_binomial_power_examples():
    assert binomial_power(Series([1, 5, -2], 6), F(0)) == Series.one(6)
    half = binomial_power(Series([1, 1], 4), F(1, 2))
    assert half.coeff(2) == F(-1, 8)
    cube = binomial_power(Series([1, -1], 6), F(-3))
    assert [cube.coeff(n) for n in range(7)] == [binomial(n + 2, 2) for n in range(7)]
    inv_pow = Series([1, -1], 6).inverse() ** 3
    assert cube == inv_pow
    with pytest.raises(DomainError):
        binomial_power(Series([2, 1], 4), F(1, 2))


@given(series_st(order=6, unit=True), coeff, coeff)
def test_binomial_power_exponent_addition(a, r, s):
    assert binomial_power(a, r) * binomial_power(a, s) == binomial_power(a, r + s)


@given(series_st(order=6, unit=True), st.integers(min_value=0, max_value=6))
def test_binomial_power_matches_integer_powers(a, n):
    assert binomial_power(a, F(n)) == a**n


def test_negative_integer_pow_requires_unit():
    with pytest.raises(DomainError):
        Series([0, 1], 4) ** -1
    assert Series([1, 1], 4) ** -2 == binomial_power(Series([1, 1], 4), F(-2))


def test_log1p_and_inverse_function_relation():
    assert log1p_series(1) == Series([0, 1], 1)
    assert log1p_series(3) == Series([0, 1, F(-1, 2), F(1, 3)], 3)
    n = 8
    assert log1p_series(n).exp() == Series([1, 1], n)
    with pytest.raises(ValueError):
        log1p_series(0)


def test_expm1_over_t():
    s = expm1_over_t(5)
    assert s.coeffs == tuple(F(1, factorial(k + 1)) for k in range(6))


@settings(max_examples=120)
@given(series_st(order=12), series_st(order=12), series_st(order=12))
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_egf_and_strings():
    s = Series([1, 1, F(1, 2)], 2)
    assert s.egf_coeff(2) == 1
    assert s.coeff_strings() == ["1", "1", "1/2"]
    assert str(Series([0, 1, -2], 2)) == "0 + 1 t + -2 t^2"
