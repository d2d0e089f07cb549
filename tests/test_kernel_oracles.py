"""The integer closed sums and the O(n^2) series recurrences against naive
Fraction references (term-by-term sums, power sums, the plain inverse
recurrence and the per-step recurrences in ordinary coefficients, in
oracles.py)."""

from fractions import Fraction as F
from itertools import product
from math import comb, factorial

from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyfam import families as fam
from polyfam.identities import GridConfig
from polyfam.rationals import gen_binomial
from polyfam.series import Series, binomial_power, expm1_over_t

from .oracles import (
    apostol_bernoulli_higher_naive,
    apostol_euler_mantissa_naive,
    binomial_power_by_steps,
    binomial_power_by_sum,
    exp_by_steps,
    exp_by_sum,
    gen_binomial_by_product,
    general_geometric_coeffs_naive,
    inverse_by_recurrence,
)

# lambda = p/q with the grid's special values drawn on purpose
lambdas = st.one_of(
    st.sampled_from([F(0), F(-3), F(2), F(1, 3), F(-1, 2), F(5)]),
    st.fractions(min_value=-12, max_value=12, max_denominator=9),
)
alphas = st.fractions(min_value=-8, max_value=8, max_denominator=7)
positive_alphas = alphas.filter(lambda a: a > 0)
indices = st.integers(min_value=0, max_value=30)
coeff = st.fractions(min_value=-20, max_value=20, max_denominator=12)
nonzero = coeff.filter(lambda c: c != 0)


@given(st.fractions(min_value=-40, max_value=40, max_denominator=15), indices)
@example(F(-5, 3), 7)
@example(F(0), 4)
def test_gen_binomial_matches_falling_product(r, k):
    assert gen_binomial(r, k) == gen_binomial_by_product(r, k)


@given(indices, alphas, lambdas.filter(lambda lam: lam != -1))
@example(12, F(1, 2), F(0))
@example(12, F(-7, 3), F(-3))
def test_apostol_euler_mantissa_matches_term_sum(n, alpha, lam):
    assert fam.apostol_euler_mantissa(n, alpha, lam) == apostol_euler_mantissa_naive(n, alpha, lam)


@given(indices, st.integers(min_value=1, max_value=6), lambdas.filter(lambda lam: lam != 1))
@example(20, 3, F(0))
@example(20, 2, F(-3))
def test_apostol_bernoulli_higher_matches_term_sum(n, l, lam):
    assert fam.apostol_bernoulli_higher(n, l, lam) == apostol_bernoulli_higher_naive(n, l, lam)


@given(indices, positive_alphas)
def test_general_geometric_matches_term_sum(n, alpha):
    assert list(fam.general_geometric(n, alpha).coeffs) == general_geometric_coeffs_naive(n, alpha)


# The two integer kernels of families on arguments no family passes them:
# a/b > 0 of either sign pair, x0 = u/v of any sign, and arbitrary integer rows.
@given(indices, st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=9), st.booleans(),
       st.integers(min_value=-40, max_value=40), st.integers(min_value=-40, max_value=40).filter(bool))
@example(9, 7, 3, True, 5, -4)
def test_geometric_num_is_scaled_general_geometric(n, a, b, negate, u, v):
    if negate:
        a, b = -a, -b
    assert fam._geometric_num(n, a, b, u, v) == (b * v) ** n * fam.general_geometric(n, F(a, b))(F(u, v))


@given(st.lists(st.integers(min_value=-10**6, max_value=10**6), min_size=1, max_size=25),
       st.integers(min_value=-50, max_value=50), st.integers(min_value=-50, max_value=50))
@example([3, -1, 4], 0, 0)
def test_appell_num_matches_binomial_sum(row, w, v):
    n = len(row) - 1
    naive = sum(comb(n, k) * row[k] * v**k * w ** (n - k) for k in range(n + 1))
    assert fam._appell_num(n, row.__getitem__, w, v) == naive


@settings(max_examples=40, deadline=None)
@given(st.lists(coeff, max_size=20), st.fractions(min_value=-6, max_value=6, max_denominator=8))
@example([F(1), F(-2, 3), F(5)], F(-7, 2))
@example([F(3), F(1, 2)], F(-1, 3))
def test_binomial_power_matches_power_sum(tail, r):
    a = [F(1)] + tail
    assert list(binomial_power(Series(a), r).coeffs) == binomial_power_by_sum(a, r)


@settings(max_examples=40, deadline=None)
@given(st.lists(coeff, max_size=20))
def test_exp_matches_power_sum(tail):
    u = [F(0)] + tail
    assert list(Series(u).exp().coeffs) == exp_by_sum(u)


@settings(max_examples=40, deadline=None)
@given(st.builds(lambda c0, tail, order: Series([c0] + tail, order),
                 nonzero, st.lists(coeff, max_size=20), st.integers(0, 20)))
@example(Series([F(-3, 2), 0, F(5, 7)], 6))
@example(Series([F(7, 3)], 0))
def test_inverse_matches_recurrence(s):
    assert list(s.inverse().coeffs) == inverse_by_recurrence(list(s.coeffs))


@settings(max_examples=40, deadline=None)
@given(nonzero, st.lists(st.tuples(st.integers(1, 6), coeff), max_size=6), st.integers(0, 24))
def test_inverse_matches_recurrence_on_sparse_series(c0, runs, order):
    coeffs = [c0]
    for gap, c in runs:  # gap - 1 zeros, then c
        coeffs += [F(0)] * (gap - 1) + [c]
    s = Series(coeffs[: order + 1], order)
    assert list(s.inverse().coeffs) == inverse_by_recurrence(list(s.coeffs))


# The bases the families hand the two EGF-number kernels, at the depth the
# `series` op reaches and at orders 2 and 3: 1 - x(e^t - 1) and x(e^t - 1) at
# every grid x, at x = -lam/(lam +- 1) for every default lam, and at x = 0 and
# x = -1 (the bases 1 and e^t), with the grid's orders as exponents.
_GRID = GridConfig()
_XS = sorted(set(_GRID.xs) | {-lam / (lam + s) for lam in _GRID.lambdas for s in (1, -1) if lam + s} | {F(0), F(-1)})
_ORDERS = (2, 3, 64)
_EXPONENTS = sorted({sign * r for r in _GRID.alphas() + tuple(map(F, _GRID.ls)) for sign in (1, -1)})


def test_binomial_power_matches_steps_on_the_geometric_bases():
    for x, order in product(_XS, _ORDERS):
        base = Series.one(order) - (Series.exp_t(1, order) - 1) * x
        for r in _EXPONENTS:
            assert list(binomial_power(base, r).coeffs) == binomial_power_by_steps(base, r), (x, order, r)


def test_general_geometric_at_minus_one_is_exp_kt():
    # 1 - (-1)(e^t - 1) = e^t, so the general geometric series of order -k at x = -1 is e^{kt}
    for k, order in product(range(9), range(25)):
        want = tuple(F(k**n, factorial(n)) for n in range(order + 1))
        assert fam.gf_general_geometric(-1, -k, order).coeffs == want, (k, order)


def test_exp_matches_steps_on_the_bell_bases():
    for x, order in product(_XS, _ORDERS):
        u = (Series.exp_t(1, order) - 1) * x
        assert list(u.exp().coeffs) == exp_by_steps(u), (x, order)


def test_kernels_match_steps_at_orders_0_and_1():
    for order in (0, 1):
        base = Series([1, F(-7, 3)], order)
        for r in (F(0), F(1), F(-1), F(-5, 2)):
            assert list(binomial_power(base, r).coeffs) == binomial_power_by_steps(base, r)
        u = Series([0, F(4, 9)], order)
        assert list(u.exp().coeffs) == exp_by_steps(u)


def test_kernels_match_steps_on_expm1_over_t():
    base = expm1_over_t(64)
    for r in (F(0), F(1), F(-1), F(-3), F(3, 2), F(-5, 7)):
        assert list(binomial_power(base, r).coeffs) == binomial_power_by_steps(base, r), r
    u = base - 1
    assert list(u.exp().coeffs) == exp_by_steps(u)


def test_kernels_match_steps_one_number_off_the_geometric_bases():
    # EGF numbers -x for every k >= 1 but k = 5: the per-step loop, not the difference table
    for x in (F(1), F(-2, 3)):
        base = Series([1] + [F(-x, factorial(k)) + (k == 5) for k in range(1, 25)], 24)
        for r in (F(-3), F(5, 2), F(-1, 2)):
            assert list(binomial_power(base, r).coeffs) == binomial_power_by_steps(base, r), (x, r)
        u = Series([0] + list(base.coeffs[1:]), 24)
        assert list(u.exp().coeffs) == exp_by_steps(u), x
