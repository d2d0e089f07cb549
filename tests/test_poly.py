from fractions import Fraction as F

from hypothesis import given
from hypothesis import strategies as st

from polyfam.poly import Poly
from polyfam.series import Series

from .oracles import convolve_coeffs, eval_series_horner

coeff = st.fractions(min_value=-1000, max_value=1000, max_denominator=50)
polys = st.lists(coeff, max_size=8).map(Poly)


def test_canonical_form():
    assert Poly([1, 2, 0, 0]).coeffs == (F(1), F(2))
    assert Poly([0, 0]).coeffs == ()
    assert Poly().degree == -1
    assert (Poly([0, 1, 1]) + Poly([0, -1])).coeffs == (F(0), F(0), F(1))


def test_add_sub_examples():
    assert Poly([1, 1]) * Poly([1, -1]) == Poly([1, 0, -1])


@given(st.lists(coeff, max_size=7), st.lists(coeff, max_size=7))
def test_mul_matches_convolution_oracle(a, b):
    got = Poly(a) * Poly(b)
    want = convolve_coeffs([F(v) for v in a] or [F(0)], [F(v) for v in b] or [F(0)])
    assert got == Poly(want)


def test_eval_examples():
    assert Poly()(F(7, 3)) == 0
    p = Poly([0, 1, 2])  # x + 2x^2
    assert p(1) == 3
    assert p(F(-1, 2)) == 0


@given(polys, coeff)
def test_eval_matches_power_sum(p, v):
    assert p(v) == sum((c * v**i for i, c in enumerate(p.coeffs)), F(0))


def _fraction_horner(coeffs, v):
    acc = F(0)
    for c in reversed(coeffs):
        acc = acc * v + c
    return acc


# coefficient lists, the empty one too, with up to three trailing zeros
padded = st.builds(lambda c, z: c + [F(0)] * z, st.lists(coeff, max_size=9), st.integers(0, 3))


@given(padded, st.integers(-50, 50) | coeff)
def test_integer_horner_matches_fraction_horner(coeffs, v):
    got = Poly(coeffs)(v)
    assert got == _fraction_horner(coeffs, F(v))
    assert type(got) is F


def test_eval_series_examples():
    t = Series.t(4)
    p = Poly([0, 1, 1])  # x + x^2
    assert eval_series_horner(p, t) == Series([0, 1, 1], 4)
    const = Poly([1])
    assert eval_series_horner(const, Series.exp_t(1, 5)) == Series.one(5)
    e = Series.exp_t(1, 6)
    assert eval_series_horner(Poly.x(), e) == e


def test_eval_series_with_nonzero_constant_term():
    s = Series([2, 1], 3)
    p = Poly([1, 0, 1])  # 1 + x^2
    assert eval_series_horner(p, s) == Series.one(3) + s * s


def test_derivative_and_product_rule():
    p = Poly([5, 0, 3])  # 5 + 3x^2
    assert p.derivative() == Poly([0, 6])
    q = Poly([1, 2])
    lhs = (p * q).derivative()
    assert lhs == p.derivative() * q + p * q.derivative()


def test_terms_builder_and_str():
    assert str(Poly([0, 1, 12])) == "x+12x^2"
    assert str(Poly()) == "0"
    assert str(Poly([F(-1, 2), 0, 1])) == "-1/2+x^2"
    assert str(Poly([0, -1])) == "-x"
