from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyfam.rationals import (
    DomainError,
    binomial,
    factorial,
    gen_binomial,
    parse_rational,
    rational_str,
)

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


def test_fraction_normalization():
    assert F(7, -14) == F(-1, 2)
    assert F(1, 2) + F(1, 3) == F(5, 6)
    assert F(2, 3) ** (-2) == F(9, 4)
    assert str(F(-1, 2)) == "-1/2"


def test_parse_and_render_roundtrip():
    for text in ["5/6", "-1/2", "7", "-3", "0"]:
        assert rational_str(parse_rational(text)) == text
    assert parse_rational("3/6") == F(1, 2)  # renders back in lowest terms
    assert rational_str(parse_rational("3/6")) == "1/2"


@pytest.mark.parametrize("bad", ["1.5", "x", "", "1/2/3", "1e3", "1/0", "-3/00"])
def test_parse_rejects_non_rationals(bad):
    with pytest.raises(DomainError):
        parse_rational(bad)


def test_factorial_against_iterated_product():
    acc = 1
    for n in range(21):
        assert factorial(n) == acc
        acc *= n + 1
    assert factorial(20) == 2432902008176640000
    with pytest.raises(DomainError):
        factorial(-1)


def test_binomial_edges():
    assert binomial(5, 2) == 10
    assert binomial(7, 0) == 1
    assert binomial(6, 7) == 0
    assert binomial(6, -1) == 0


def test_pascal_identity_table():
    # full triangle check against the additive recurrence
    rows = [[1]]
    for n in range(1, 65):
        prev = rows[-1] + [0]
        rows.append([1] + [prev[k] + prev[k - 1] for k in range(1, n)] + [1])
    for n in range(65):
        for k in range(n + 1):
            assert binomial(n, k) == rows[n][k]


def test_gen_binomial_examples():
    assert gen_binomial(F(5, 2), 2) == F(15, 8)
    assert gen_binomial(F(5, 2), 0) == 1
    assert gen_binomial(3, 2) == 3
    assert gen_binomial(F(1, 2), 2) == F(-1, 8)
    with pytest.raises(DomainError):
        gen_binomial(F(1, 2), -1)


@given(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=30))
def test_gen_binomial_matches_integer_binomial(n, k):
    assert gen_binomial(F(n), k) == binomial(n, k)


@pytest.mark.parametrize("k", range(9))
def test_gen_binomial_is_degree_k_in_upper_argument(k):
    # forward differences of order k+1 of a degree-k polynomial vanish
    samples = [gen_binomial(F(a) + k - 1, k) for a in range(k + 2)]
    for _ in range(k + 1):
        samples = [b - a for a, b in zip(samples, samples[1:])]
    assert samples == [] or all(v == 0 for v in samples)


@given(rationals, st.integers(min_value=1, max_value=12))
def test_gen_binomial_pascal_rule(r, k):
    assert gen_binomial(r, k) == gen_binomial(r - 1, k) + gen_binomial(r - 1, k - 1)
