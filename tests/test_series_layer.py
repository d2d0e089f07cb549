"""The series layer's integer products and the gf-*-shift right sides against
naive Fraction references (oracles.py), guards that the gf checks read every
series off the cached family builders, and the gf ids on grids wider than the
default one, their JSON bytes pinned."""

import hashlib
import json
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyfam import families as fam
from polyfam import identities
from polyfam.cli import _apply_config, _grid_from_args, build_parser
from polyfam.identities import GridConfig, _chk_gf_phi_shift, _w_at_y_minus_one, _w_shift_series, run_all
from polyfam.poly import Poly
from polyfam.series import Series, linear_combination

from .oracles import _geometric_from_exp_t, convolve_coeffs, eval_series_horner

# zeros, plain ints and Fractions over assorted denominators, all mixed
coeff = st.one_of(
    st.just(0),
    st.integers(min_value=-60, max_value=60),
    st.fractions(min_value=-60, max_value=60, max_denominator=40),
)
orders = st.integers(min_value=0, max_value=12)
series = st.builds(Series, st.lists(coeff, max_size=15), orders)
small = st.fractions(min_value=-9, max_value=9, max_denominator=7)
alphas = st.fractions(min_value=F(1, 7), max_value=6, max_denominator=7)
xs = st.one_of(st.sampled_from([F(-1), F(0)]), small)

GF_SHIFT_IDS = ["gf-phi-shift", "gf-w-shift", "gf-apostol-euler-shift", "gf-apostol-bernoulli-shift"]
GF_IDS = GF_SHIFT_IDS + ["gf-phi-base", "gf-w-base"]


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
@given(st.integers(min_value=0, max_value=11), alphas, xs, orders)
@example(11, F(1, 3), F(-1), 12)
@example(11, F(5, 2), F(0), 12)
@example(4, F(2), F(-1), 0)
def test_shift_series_match_horner_at_their_arguments(m, alpha, x, order):
    e = Series.exp_t(1, order)
    w_argument = e * x * _geometric_from_exp_t(x, order)  # x e^t G
    w_horner = fam.gf_general_geometric(x, alpha, order) * eval_series_horner(
        fam.general_geometric(m, alpha), w_argument)
    assert _w_shift_series(m, alpha, x, order) == w_horner
    y_minus_one = Poly()
    for c in reversed(fam.general_geometric(m, alpha).coeffs):
        y_minus_one = y_minus_one * Poly((-1, 1)) + c
    assert tuple(_w_at_y_minus_one(m, alpha)) == y_minus_one.coeffs
    phi_horner = fam.gf_exp_bell(x, order) * eval_series_horner(fam.exponential_poly(m), e * x)
    assert _chk_gf_phi_shift(m, x, order)[0][2] == phi_horner


def _clear_caches():
    for module in (fam, identities):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def test_geometric_shift_series_multiply_no_two_series(monkeypatch):
    # each right side is a linear combination of cached general geometric series
    counts = {"products": 0}
    multiply = Series.__mul__

    def counted_mul(self, other):
        counts["products"] += isinstance(other, Series)
        return multiply(self, other)

    monkeypatch.setattr(Series, "__mul__", counted_mul)
    _clear_caches()
    try:
        summary, _, _ = run_all(GridConfig(), ["gf-w-shift", "gf-w-base", "gf-apostol-euler-shift"])
    finally:
        _clear_caches()
    assert summary.failed == 0 and summary.passed > 0
    assert counts == {"products": 0}


def test_gf_checks_build_no_series_of_their_own(monkeypatch):
    # Series.t and Series.exp_t refuse, and every series product and power is
    # counted: on cold caches too, since gf_bernoulli_higher is one binomial power
    def refuse(*args):
        raise AssertionError("a gf check built a series of its own")

    counts = {"products": 0, "powers": 0}
    multiply, power = Series.__mul__, Series.__pow__

    def counted_mul(self, other):
        counts["products"] += isinstance(other, Series)
        return multiply(self, other)

    def counted_pow(self, e):
        counts["powers"] += 1
        return power(self, e)

    monkeypatch.setattr(Series, "t", staticmethod(refuse))
    monkeypatch.setattr(Series, "exp_t", staticmethod(refuse))
    monkeypatch.setattr(Series, "__mul__", counted_mul)
    monkeypatch.setattr(Series, "__pow__", counted_pow)
    _clear_caches()
    try:
        cold, _, _ = run_all(GridConfig(), ["gf-apostol-bernoulli-shift"])
        cold_counts = dict(counts)
        summary, reports, _ = run_all(GridConfig(), GF_IDS)
        counts.update(products=0, powers=0)
        warm, _, _ = run_all(GridConfig(), ["gf-apostol-bernoulli-shift"])
    finally:
        _clear_caches()
    assert cold.failed == 0 and cold.passed > 0
    assert cold_counts == {"products": 0, "powers": 0}
    assert summary.failed == 0 and {r.id for r in reports if r.status == "pass"} == set(GF_IDS)
    assert warm == cold
    assert counts == {"products": 0, "powers": 0}


# sha256 of the stdout of `verify <the six gf ids> --format json <flags>`
GF_JSON_SHA256 = {
    ("--nmax", "12", "--mmax", "12", "--nm-sum", "16", "--order", "24", "--gf-mmax", "8"):
        "635ac4e15a70d71209c848da969cf10ce469b8943b64209f5b01d3c9a7fe1218",
    # edge values, lambda = 1 among them with l + m up to 14
    ("--x=-1,0,5/3,-7/2", "--alpha", "1/3,7,9/4", "--lambda=-1/2,1/2,3,-5,0,1", "--l", "1,5",
     "--gf-mmax", "9", "--order", "20"):
        "47a02c11706fb5ff421d497f0fabc7e34e39d8dcb92c06e90ba4dd937955ea7f",
}


def test_gf_ids_json_bytes_on_wider_grids():
    ids = [arg for gf in sorted(GF_IDS) for arg in ("--id", gf)]
    for flags, digest in GF_JSON_SHA256.items():
        proc = subprocess.run([sys.executable, "-m", "polyfam", "verify", *ids, "--format", "json", *flags],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest, flags
    # the edge grid, run last
    assert json.loads(proc.stdout)["summary"] == {"pass": 476, "fail": 0, "skipped": 0}


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
