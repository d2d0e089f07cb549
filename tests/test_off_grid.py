"""The catalog's truth off the grid: at drawn points, with the poles and edge
values that the default grid lacks (lambda in {0, +-1}, alpha <= 0, x in
{0, -1}, a series order of 2), every identity's check either gives exactly
equal pairs or reports the point outside its domain."""

from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyfam.identities import REGISTRY, GridConfig, SkipDomain

lambdas = st.one_of(
    st.sampled_from([F(0), F(1), F(-1), F(2), F(-3)]),
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
)
alphas = st.one_of(
    st.sampled_from([F(0), F(-1, 2), F(-2), F(1, 3)]),
    st.fractions(min_value=-3, max_value=5, max_denominator=7),
)
xs = st.one_of(
    st.sampled_from([F(0), F(-1)]),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)


@settings(max_examples=300)
@given(n=st.integers(0, 5), m=st.integers(0, 5), l=st.integers(1, 3), alpha=alphas,
       int_alpha=st.integers(-2, 4), lam=lambdas, x=xs, order=st.sampled_from([2, 12]))
@example(n=5, m=5, l=3, alpha=F(0), int_alpha=0, lam=F(1), x=F(0), order=2)
@example(n=0, m=3, l=1, alpha=F(-1), int_alpha=-1, lam=F(-1), x=F(-1), order=12)
@example(n=2, m=2, l=2, alpha=F(-2), int_alpha=1, lam=F(0), x=F(-1), order=2)
@example(n=3, m=1, l=1, alpha=F(-1, 2), int_alpha=2, lam=F(-1, 3), x=F(0), order=12)
@example(n=1, m=4, l=2, alpha=F(1, 3), int_alpha=4, lam=F(1), x=F(-1), order=2)
def test_every_identity_passes_or_skips_off_the_grid(n, m, l, alpha, int_alpha, lam, x, order):
    grid = GridConfig(order=order)
    for identity in REGISTRY.values():
        # the int_alpha axis hands out the integer orders only
        a = int_alpha if "int_alpha" in identity.slots else alpha
        pt = {"n": n, "m": m, "l": l, "alpha": a, "lambda": lam, "x": x}
        try:
            pairs = identity.check(pt, grid)
        except SkipDomain:
            continue
        assert pairs, (identity.id, pt, order)
        assert all(lhs == rhs for _, lhs, rhs in pairs), (identity.id, pt, order)
