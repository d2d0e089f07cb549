"""The family kernels with integer cache keys and integer rows, and the checker
sums over them, against their old Fraction bodies (in oracles.py); Spivey's
row against the Stirling triangle; the public family signatures with int and
Fraction arguments."""

import re
from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from polyfam import families as fam
from polyfam.identities import REGISTRY, GridConfig, SkipDomain, _spivey_row
from polyfam.rationals import DomainError

from .oracles import (
    OLD_ROW_CHECKERS,
    apostol_bernoulli_poly_naive,
    apostol_euler_poly_mantissa_naive,
    bernoulli_higher_poly_naive,
    stirling2_by_recurrence,
    stirling2_row_by_enumeration,
)

# the grid's special values (poles, lambda = 0 and 1, lambda < -1) drawn on purpose
lambdas = st.one_of(
    st.sampled_from([F(0), F(-3), F(-1, 2), F(1, 3), F(1), F(-1), F(2)]),
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
)
# fractional orders of both signs, and positive integer orders
alphas = st.one_of(
    st.fractions(min_value=-6, max_value=6, max_denominator=7).filter(lambda a: a.denominator != 1),
    st.sampled_from([F(1), F(2), F(3)]),
)
xs = st.one_of(
    st.sampled_from([F(0), F(1), F(-1, 2), F(2, 3), F(-3)]),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)
indices = st.integers(min_value=0, max_value=16)


@given(indices, alphas, xs, lambdas.filter(lambda lam: lam != -1))
@example(12, F(-7, 3), F(2, 3), F(-3))
@example(9, F(1, 2), F(-1, 2), F(0))
@example(9, F(5, 2), F(-3), F(-1, 2))
def test_apostol_euler_poly_mantissa_matches_term_sum(n, alpha, x0, lam):
    assert fam.apostol_euler_poly_mantissa(n, alpha, x0, lam) == apostol_euler_poly_mantissa_naive(n, alpha, x0, lam)


@given(indices, st.integers(min_value=1, max_value=5), xs, lambdas.filter(lambda lam: lam != 1))
@example(12, 3, F(2, 3), F(-3))
@example(9, 1, F(-1, 2), F(0))
@example(9, 2, F(-3), F(-1, 2))
def test_apostol_bernoulli_poly_matches_term_sum(n, l, x0, lam):
    assert fam.apostol_bernoulli_poly(n, l, x0, lam) == apostol_bernoulli_poly_naive(n, l, x0, lam)


@given(indices, st.integers(min_value=1, max_value=5), xs)
@example(12, 3, F(2, 3))
@example(9, 1, F(-1, 2))
def test_bernoulli_higher_poly_matches_term_sum(n, l, x0):
    assert fam.bernoulli_higher_poly(n, l, x0) == bernoulli_higher_poly_naive(n, l, x0)


@pytest.mark.parametrize("identity_id", sorted(OLD_ROW_CHECKERS))
@given(n=st.integers(0, 6), m=st.integers(0, 6), l=st.integers(1, 4), alpha=alphas, lam=lambdas)
@example(n=6, m=6, l=4, alpha=F(5, 2), lam=F(-3))
@example(n=3, m=4, l=2, alpha=F(-1, 2), lam=F(0))
@example(n=5, m=3, l=1, alpha=F(-7, 3), lam=F(-1, 2))
@example(n=4, m=5, l=3, alpha=F(2), lam=F(1))
@example(n=2, m=6, l=2, alpha=F(1, 2), lam=F(1))
def test_row_checker_matches_old_fraction_body(identity_id, n, m, l, alpha, lam):
    pt = {"n": n, "m": m, "l": l, "alpha": alpha, "lambda": lam}
    check = REGISTRY[identity_id].check
    try:
        expected = OLD_ROW_CHECKERS[identity_id](pt)
    except SkipDomain as skip:
        with pytest.raises(SkipDomain, match=re.escape(skip.reason)):
            check(pt, GridConfig())
        return
    assert check(pt, GridConfig()) == expected


# (function, index and order arguments, rational arguments)
PUBLIC = [
    (fam.apostol_euler_mantissa, (7,), (2, -3)),
    (fam.apostol_euler_poly_mantissa, (7,), (3, -2, 5)),
    (fam.apostol_euler_higher, (7,), (2, -3)),
    (fam.apostol_euler_poly, (7,), (3, -2, 5)),
    (fam.euler_higher, (7,), (3,)),
    (fam.euler_prefactor_base, (), (-3,)),
    (fam.apostol_bernoulli_higher, (7, 2), (-3,)),
    (fam.apostol_bernoulli_poly, (7, 2), (-2, 5)),
    (fam.bernoulli_higher_poly, (7, 3), (-2,)),
]


@pytest.mark.parametrize("fn, ints, rationals", PUBLIC, ids=[f.__name__ for f, _, _ in PUBLIC])
def test_int_and_fraction_arguments_give_equal_values(fn, ints, rationals):
    as_int = fn(*ints, *rationals)
    as_fraction = fn(*ints, *(F(r) for r in rationals))
    assert type(as_int) is F and as_int == as_fraction


EULER_POLE = "lambda=-1 is a pole of the Euler-type families"
BERNOULLI_POLE = "lambda=1 not in domain; use bernoulli-higher"
ORDER = "order l must be a positive integer"


@pytest.mark.parametrize("one", [1, F(1)])
@pytest.mark.parametrize("call, message", [
    (lambda one: fam.apostol_euler_mantissa(3, F(1, 2), -one), EULER_POLE),
    (lambda one: fam.apostol_euler_poly_mantissa(3, F(1, 2), F(2, 3), -one), EULER_POLE),
    (lambda one: fam.apostol_euler_higher(3, F(1, 2), -one), EULER_POLE),
    (lambda one: fam.apostol_euler_poly(3, 2, 1, -one), EULER_POLE),
    (lambda one: fam.apostol_bernoulli_higher(3, 2, one), BERNOULLI_POLE),
    (lambda one: fam.apostol_bernoulli_poly(3, 2, F(2, 3), one), BERNOULLI_POLE),
    (lambda one: fam.apostol_bernoulli_higher(3, 0, one), BERNOULLI_POLE),  # the pole is checked first
    (lambda one: fam.apostol_bernoulli_higher(3, 0, 2 * one), ORDER),
    (lambda one: fam.apostol_bernoulli_poly(3, -1, F(2, 3), 2 * one), ORDER),
    (lambda one: fam.bernoulli_higher_poly(3, 0, one),
     "bernoulli_higher needs n >= 0 and integer order l >= 1"),
])
def test_domain_errors_keep_their_text(call, message, one):
    with pytest.raises(DomainError) as caught:
        call(one)
    assert str(caught.value) == message


def test_spivey_row_is_the_stirling_row():
    # {n+m, d} = sum_{k+i=d} sum_j {m,k} C(n,j) k^(n-j) {j,i}, the identity behind
    # spivey, w-explicit, fubini-explicit and w-general-recurrence, beyond the grid
    for n in range(21):
        for m in range(21):
            assert list(_spivey_row(n, m)) == stirling2_by_recurrence(n + m), (n, m)
            if n + m <= 9:
                assert list(_spivey_row(n, m)) == stirling2_row_by_enumeration(n + m), (n, m)
