"""The series layer's integer products and the gf-*-shift power tables against
naive Fraction references (oracles.py), and the gf-*-shift ids on grids wider
than the default one."""

from fractions import Fraction as F
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyfam.cli import _apply_config, _grid_from_args, build_parser
from polyfam.identities import GridConfig, _eval_at, _phi_argument, _w_argument, run_all
from polyfam.poly import Poly
from polyfam.series import Series, linear_combination

from .oracles import convolve_coeffs, eval_series_horner

# zeros, plain ints and Fractions over assorted denominators, all mixed
coeff = st.one_of(
    st.just(0),
    st.integers(min_value=-60, max_value=60),
    st.fractions(min_value=-60, max_value=60, max_denominator=40),
)
orders = st.integers(min_value=0, max_value=12)
series = st.builds(Series, st.lists(coeff, max_size=15), orders)
small = st.fractions(min_value=-9, max_value=9, max_denominator=7)
polys = st.lists(small, max_size=10).map(Poly)

GF_SHIFT_IDS = ["gf-phi-shift", "gf-w-shift", "gf-apostol-euler-shift", "gf-apostol-bernoulli-shift"]


@given(series, series)
@example(Series([1, F(1, 2)], 3), Series([F(2, 3), 0, F(-5, 7), 4, 1], 4))
@example(Series([0], 0), Series([F(1, 3)], 5))
def test_mul_matches_convolution_oracle(a, b):
    n = min(a.order, b.order)
    got = a * b
    assert got.order == n
    assert got.coeffs == tuple(convolve_coeffs(list(a.coeffs), list(b.coeffs))[: n + 1])
    assert all(type(c) is F for c in got.coeffs)


@given(series, coeff)
def test_scalar_mul_matches_coefficientwise(a, k):
    want = Series([c * k for c in a.coeffs], a.order)
    assert a * k == want


@given(st.lists(st.tuples(coeff, series), max_size=6), orders)
def test_linear_combination_matches_fraction_sum(pairs, order):
    n = min([order] + [s.order for _, s in pairs])
    want = [sum((F(w) * s.coeffs[i] for w, s in pairs), F(0)) for i in range(n + 1)]
    assert linear_combination([w for w, _ in pairs], [s for _, s in pairs], n) == Series(want, n)


@settings(max_examples=40)
@given(polys, small, st.integers(min_value=0, max_value=9))
def test_power_table_evaluation_matches_horner(p, c, order):
    assert _eval_at(p, _phi_argument, c, order) == eval_series_horner(p, _phi_argument(c, order))
    assert _eval_at(p, _w_argument, c, order) == eval_series_horner(p, _w_argument(c, order))


def test_power_table_grows_past_earlier_degrees():
    arg = _w_argument(F(2, 3), 9)
    for degree in (2, 11, 4):
        p = Poly([F(k + 1, 3) for k in range(degree + 1)])
        assert _eval_at(p, _w_argument, F(2, 3), 9) == eval_series_horner(p, arg)


def test_gf_shift_ids_pass_beyond_the_default_shift_bound():
    summary, reports, _ = run_all(GridConfig(gf_mmax=7, order=9), GF_SHIFT_IDS)
    assert summary.failed == 0 and summary.passed > 0
    assert {r.id for r in reports if r.status == "pass"} == set(GF_SHIFT_IDS)
    assert max(int(r.params["m"]) for r in reports) == 7


def test_lambda_gf_ids_pass_under_the_certify_preset():
    preset = Path(__file__).resolve().parent.parent / "scripts" / "certify_lambda.cfg"
    argv = _apply_config(["polyfam", "verify", "--config", str(preset)])
    grid = _grid_from_args(build_parser().parse_args(argv[1:]))
    ids = ["gf-apostol-bernoulli-shift", "gf-apostol-euler-shift"]
    summary, _, bounds = run_all(grid, ids)
    assert summary.failed == 0 and summary.passed > 0
    assert sorted(bounds) == ids
