from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyfam import families as fam
from polyfam import series
from polyfam.cli import main
from polyfam.poly import Poly
from polyfam.rationals import DomainError
from polyfam.series import Series, binomial_power, expm1_over_t
from polyfam.stirling import stirling1_unsigned, stirling2

from .oracles import (
    bell_by_enumeration,
    bernoulli_by_recurrence,
    bernoulli_higher_by_convolution,
    bernoulli_higher_poly_in_x,
    convolve_coeffs,
    euler_zero_values,
    exponential_poly_recurrence,
    fubini_by_enumeration,
    gf_apostol_bernoulli_by_inverse,
    gf_apostol_bernoulli_by_squaring,
    gf_apostol_euler_by_inverse,
    gf_apostol_euler_by_squaring,
    gregory_by_integration,
    inverse_by_recurrence,
    stirling2_row_by_enumeration,
)

LAMBDAS = (F(2), F(1, 3), F(-3), F(5))


# -- exponential (Bell) family ------------------------------------------------

def test_exponential_poly_small_values():
    assert fam.exponential_poly(0) == Poly.one()
    assert fam.exponential_poly(1) == Poly.x()
    assert fam.exponential_poly(3) == Poly([0, 1, 3, 1])


def test_exponential_poly_matches_partition_enumeration():
    for n in range(8):
        p = fam.exponential_poly(n)
        row = stirling2_row_by_enumeration(n)
        assert [p.coeff(k) for k in range(n + 1)] == [F(v) for v in row]


def test_exponential_poly_routes_agree_to_30():
    for n in range(31):
        assert fam.exponential_poly(n) == exponential_poly_recurrence(n)


def test_exponential_poly_shape_invariants():
    for n in range(1, 20):
        p = fam.exponential_poly(n)
        assert p.degree == n
        assert p.coeffs[-1] == 1
        assert p(0) == 0


def test_bell_numbers_against_enumeration():
    for n in range(9):
        assert fam.bell(n) == bell_by_enumeration(n)


def test_complementary_bell_values():
    comp = [fam.complementary_bell(n) for n in range(6)]
    assert comp == [1, -1, 0, 1, 1, -2]
    for n in range(9):
        signed = sum((-1) ** k * F(v) for k, v in enumerate(stirling2_row_by_enumeration(n)))
        assert fam.complementary_bell(n) == signed


def test_exponential_series_route():
    for x in (F(1), F(-1, 2), F(2, 3)):
        series = fam.gf_exp_bell(x, 16)
        for n in range(17):
            assert series.egf_coeff(n) == fam.exponential_poly(n)(x)


# -- geometric family ---------------------------------------------------------

def test_geometric_poly_values():
    assert fam.geometric_poly(0) == Poly.one()
    assert fam.geometric_poly(2) == Poly([0, 1, 2])
    for n in range(7):
        assert fam.fubini(n) == fubini_by_enumeration(n)


def test_general_geometric_examples_and_domain():
    assert fam.general_geometric(2, F(3)) == Poly([0, 3, 12])
    assert fam.general_geometric(0, F(7, 2)) == Poly.one()
    for n in range(17):
        assert fam.general_geometric(n, F(1)) == fam.geometric_poly(n)
    with pytest.raises(DomainError):
        fam.general_geometric(2, F(0))
    with pytest.raises(DomainError):
        fam.general_geometric(2, F(-1, 2))


def test_geometric_series_route_integer_and_fractional_order():
    for alpha in (F(1), F(2), F(4), F(1, 2), F(5, 2)):
        for x in (F(1), F(-1, 2), F(2, 3)):
            series = fam.gf_general_geometric(x, alpha, 16)
            for n in range(17):
                assert series.egf_coeff(n) == fam.general_geometric(n, alpha)(x)


def test_euler_classical_values():
    want = euler_zero_values(10)
    for n in range(11):
        assert fam.euler_classical(n) == want[n]
    assert [fam.euler_classical(n) for n in range(3)] == [1, F(-1, 2), 0]


# -- Bernoulli families -------------------------------------------------------

def test_bernoulli_against_defining_recurrence():
    want = bernoulli_by_recurrence(12)
    for n in range(13):
        assert fam.bernoulli_classical(n) == want[n]
    assert fam.bernoulli_classical(2) == F(1, 6)


def test_bernoulli_higher_against_convolution_oracle():
    for l in (1, 2, 3, 4):
        for n in range(9):
            assert fam.bernoulli_higher(n, l) == bernoulli_higher_by_convolution(n, l)
    assert fam.bernoulli_higher(2, 2) == F(5, 6)


def test_bernoulli_higher_poly_values():
    assert fam.bernoulli_higher_poly(3, 2, 0) == fam.bernoulli_higher(3, 2)
    assert fam.bernoulli_higher_poly(1, 1, 1) == F(1, 2)
    # x-polynomial form evaluates consistently
    for n in range(6):
        p = bernoulli_higher_poly_in_x(n, 3)
        for x0 in (F(0), F(1), F(-2, 3)):
            assert p(x0) == fam.bernoulli_higher_poly(n, 3, x0)


def test_bernoulli_second_kind_against_integration_oracle():
    for n in range(13):
        assert fam.bernoulli_second_kind(n) == gregory_by_integration(n)
    assert [fam.bernoulli_second_kind(n) for n in range(3)] == [1, F(1, 2), F(-1, 12)]


def test_bernoulli_tables_share_one_series_across_indices():
    for cached in (fam.bernoulli_higher, fam.bernoulli_second_kind,
                   fam.gf_bernoulli_higher, fam.gf_bernoulli_second_kind):
        cached.cache_clear()
    for l in (1, 2, 3):
        values = [fam.bernoulli_higher(n, l) for n in range(41)]
        assert values == [fam.gf_bernoulli_higher(l, 40).egf_coeff(n) for n in range(41)]
    values = [fam.bernoulli_second_kind(n) for n in range(41)]
    assert values == list(fam.gf_bernoulli_second_kind(40).coeffs)
    # orders 16, 32 and 64 per series, then each order-40 reference
    assert fam.gf_bernoulli_higher.cache_info().misses == 3 * 3 + 3
    assert fam.gf_bernoulli_second_kind.cache_info().misses == 3 + 1


@pytest.mark.parametrize("order", [0, 1, 2, 12, 16, 32, 64])
def test_bernoulli_series_match_their_inverse_bodies(order):
    # the old builders inverted (e^t - 1)/t and log(1 + t)/t and raised the first
    # inverse to the power l; the catalog reaches l = 12 at order 16.  Cold
    # caches, so that each series is built here
    _clear_family_caches()
    inverse = inverse_by_recurrence([F(1, factorial(k + 1)) for k in range(order + 1)])
    want = [F(1)] + [F(0)] * order
    for l in range(1, 13):
        want = convolve_coeffs(want, inverse)[: order + 1]
        assert list(fam.gf_bernoulli_higher(l, order).coeffs) == want, l
    log_over_t = [F((-1) ** k, k + 1) for k in range(order + 1)]
    assert list(fam.gf_bernoulli_second_kind(order).coeffs) == inverse_by_recurrence(log_over_t)


# -- Apostol-Bernoulli family -------------------------------------------------

def test_apostol_bernoulli_values():
    assert fam.apostol_bernoulli_higher(1, 1, F(2)) == 1
    assert fam.apostol_bernoulli_higher(2, 1, F(3)) == F(-3, 2)
    for k in range(1, 7):
        assert fam.apostol_bernoulli_higher(k, k, F(2)) == factorial(k)
    for lam in LAMBDAS:
        assert fam.apostol_bernoulli_higher(2, 1, lam) == -2 * lam / (lam - 1) ** 2
        assert fam.apostol_bernoulli_higher(3, 1, lam) == 3 * lam * (lam + 1) / (lam - 1) ** 3


def test_apostol_bernoulli_vanishes_below_order():
    for lam in LAMBDAS:
        for l in (1, 2, 3, 4):
            for n in range(l):
                assert fam.apostol_bernoulli_higher(n, l, lam) == 0


def test_apostol_bernoulli_series_route():
    for lam in LAMBDAS:
        for l in (1, 2, 3, 4):
            series = fam.gf_apostol_bernoulli(l, lam, 16)
            for n in range(17):
                assert series.egf_coeff(n) == fam.apostol_bernoulli_higher(n, l, lam)


def _clear_family_caches():
    for obj in vars(fam).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()


# each integer lambda also as a plain int, which a library caller may pass
BUILDER_LAMBDAS = [F(2), F(1, 3), F(-3), F(5), F(0), 2, -3, 5, 0]


def _assert_apostol_builders_match(lam, order, bernoulli, euler):
    """gf_apostol_bernoulli at l in 1..4 and gf_apostol_euler at alpha in -2..4
    equal the given routes, with Fraction coefficients."""
    # cold caches, so that an int lam is not served a value cached under its Fraction
    _clear_family_caches()
    try:
        for l in range(1, 5):
            got = fam.gf_apostol_bernoulli(l, lam, order)
            assert got == bernoulli(l, F(lam), order), l
            assert all(type(c) is F for c in got.coeffs)
        for alpha in range(-2, 5):
            got = fam.gf_apostol_euler(alpha, lam, order)
            assert got == euler(alpha, F(lam), order), alpha
            assert all(type(c) is F for c in got.coeffs)
    finally:
        _clear_family_caches()


@pytest.mark.parametrize("lam", BUILDER_LAMBDAS, ids=repr)
@pytest.mark.parametrize("order", [0, 1, 12, 30])
def test_apostol_series_builders_match_their_inverse_route(lam, order):
    _assert_apostol_builders_match(lam, order, gf_apostol_bernoulli_by_inverse, gf_apostol_euler_by_inverse)


@pytest.mark.parametrize("lam", BUILDER_LAMBDAS, ids=repr)
@pytest.mark.parametrize("order", [0, 1, 12, 64])
def test_apostol_series_builders_match_their_squaring_route(lam, order):
    # orders 0 and 1 take l > order, where the shift by t^l leaves only zeros
    _assert_apostol_builders_match(lam, order, gf_apostol_bernoulli_by_squaring, gf_apostol_euler_by_squaring)


@pytest.mark.parametrize("argv", [
    ["--gf", "apostol-bernoulli", "--l", "3", "--lambda", "2"],
    ["--gf", "apostol-euler", "--alpha", "3", "--lambda", "1/3"],
    ["--gf", "apostol-euler", "--alpha", "-2", "--lambda", "-3"],
    ["--gf", "bernoulli-higher", "--l", "3"],
    ["--gf", "bernoulli-second-kind"],
], ids=lambda argv: " ".join(argv[1::2]))
def test_apostol_series_take_one_binomial_power_and_no_product(monkeypatch, capsys, argv):
    # one general geometric series, scaled (and shifted by t^l), or one power
    # of (e^t - 1)/t or log(1 + t)/t; the power-by-squaring route multiplied
    # two series at least once, and the inverse called no binomial_power
    counts = {"products": 0, "binomial_power": 0}
    multiply, power = Series.__mul__, fam.binomial_power

    def counted_mul(self, other):
        counts["products"] += isinstance(other, Series)
        return multiply(self, other)

    def counted_power(*args):
        counts["binomial_power"] += 1
        return power(*args)

    monkeypatch.setattr(Series, "__mul__", counted_mul)
    monkeypatch.setattr(fam, "binomial_power", counted_power)
    _clear_family_caches()
    try:
        assert main(["series", *argv, "--order", "24"]) == 0
    finally:
        _clear_family_caches()
    assert counts == {"products": 0, "binomial_power": 1}
    assert capsys.readouterr().out


def _kernel_paths(monkeypatch, run):
    """(per-step loop runs, difference-table runs) of the EGF-number kernel during run(), on cold caches."""
    counts = {"kernel": 0, "table": 0}
    kernel, table = series._egf_recurrence, series._difference_table

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(series, "_egf_recurrence", counted("kernel", kernel))
    monkeypatch.setattr(series, "_difference_table", counted("table", table))
    _clear_family_caches()
    try:
        run()
    finally:
        _clear_family_caches()
    return counts["kernel"] - counts["table"], counts["table"]


@pytest.mark.parametrize("argv", [
    ["--gf", "general-geometric", "--x", "2/3", "--alpha", "5/2"],
    ["--gf", "general-geometric", "--x", "-1", "--alpha", "-3"],
    ["--gf", "exp-bell", "--x", "-1/2"],
], ids=lambda argv: " ".join(argv[1::2]))
def test_exp_type_bases_take_only_the_difference_table(monkeypatch, capsys, argv):
    # every EGF number of 1 - x(e^t - 1) and x(e^t - 1) past k = 0 is -x or x
    assert _kernel_paths(monkeypatch, lambda: main(["series", *argv, "--order", "64"])) == (0, 1)
    assert capsys.readouterr().out


@pytest.mark.parametrize("base", [
    expm1_over_t(64),
    Series([1] + [F(1, factorial(k)) + (k == 5) for k in range(1, 65)], 64),  # 1 + (e^t - 1) but at k = 5
], ids=["expm1_over_t", "one-number-off"])
def test_other_bases_take_only_the_per_step_loop(monkeypatch, base):
    assert _kernel_paths(monkeypatch, lambda: binomial_power(base, -3)) == (1, 0)
    assert _kernel_paths(monkeypatch, lambda: (base - 1).exp()) == (1, 0)


def test_apostol_bernoulli_rejects_lambda_one():
    with pytest.raises(DomainError):
        fam.apostol_bernoulli_higher(3, 1, F(1))
    with pytest.raises(DomainError):
        fam.gf_apostol_bernoulli(2, F(1), 8)


def test_apostol_bernoulli_poly():
    for lam in (F(2), F(1, 3)):
        series = fam.gf_apostol_bernoulli(2, lam, 10) * Series.exp_t(F(1, 2), 10)
        for n in range(11):
            assert series.egf_coeff(n) == fam.apostol_bernoulli_poly(n, 2, F(1, 2), lam)
    assert fam.apostol_bernoulli_poly(3, 1, F(0), F(2)) == fam.apostol_bernoulli_higher(3, 1, F(2))


# -- Apostol-Euler family -----------------------------------------------------

def test_apostol_euler_mantissa_basics():
    for alpha in (F(1), F(2), F(1, 2), F(5, 2)):
        for lam in LAMBDAS:
            assert fam.apostol_euler_mantissa(0, alpha, lam) == 1
    got = [fam.apostol_euler_mantissa(n, F(1), F(1)) for n in range(11)]
    assert got == euler_zero_values(10)


def test_apostol_euler_series_routes():
    for lam in LAMBDAS + (F(1),):
        for alpha in (1, 2, 3, 4):
            series = fam.gf_apostol_euler(alpha, lam, 16)
            base = fam.euler_prefactor_base(lam)
            for n in range(17):
                assert series.egf_coeff(n) == base**alpha * fam.apostol_euler_mantissa(n, F(alpha), lam)
        for alpha in (F(1, 2), F(5, 2), F(3)):
            series = fam.gf_apostol_euler_mantissa(alpha, lam, 12)
            for n in range(13):
                assert series.egf_coeff(n) == fam.apostol_euler_mantissa(n, alpha, lam)


def test_apostol_euler_rejects_pole():
    with pytest.raises(DomainError):
        fam.apostol_euler_mantissa(2, F(1), F(-1))
    with pytest.raises(DomainError):
        fam.gf_apostol_euler(1, F(-1), 6)


@pytest.mark.parametrize("lam", [F(-1), -1])
def test_euler_prefactor_base_rejects_pole(lam):
    with pytest.raises(DomainError, match="lambda=-1 is a pole of the Euler-type families"):
        fam.euler_prefactor_base(lam)


def test_apostol_euler_scaled_values():
    v = fam.apostol_euler_higher(0, F(1, 2), F(3))
    assert isinstance(v, fam.ScaledRational)
    assert v.mantissa == 1 and v.base == F(1, 2) and v.exponent == F(1, 2)
    plain = fam.apostol_euler_higher(2, F(2), F(3))
    assert isinstance(plain, F)
    assert plain == fam.euler_prefactor_base(F(3)) ** 2 * fam.apostol_euler_mantissa(2, F(2), F(3))
    assert fam.apostol_euler_poly(1, F(1), F(1, 2), F(1)) == 0


def test_euler_poly_reflection_frozen_instance():
    # order 1, index 2, parameter 2: both sides computed independently
    lam = F(2)
    lhs = fam.euler_prefactor_base(lam) * fam.apostol_euler_poly_mantissa(2, F(1), F(1), lam)
    rhs = lam ** -1 * fam.euler_prefactor_base(1 / lam) * fam.apostol_euler_poly_mantissa(2, F(1), F(0), 1 / lam)
    assert lhs == F(-2, 27)
    assert rhs == F(-2, 27)


def test_euler_higher_is_plain_for_any_rational_order():
    for alpha in (F(1), F(3), F(1, 2), F(5, 2)):
        val = fam.euler_higher(2, alpha)
        assert isinstance(val, F)
    assert fam.euler_higher(0, F(1, 2)) == 1


# -- scaled rationals ---------------------------------------------------------

def test_scaled_canonicalization():
    assert fam.scaled(F(3), F(1, 2), F(2)) == F(3, 4)
    assert fam.scaled(F(3), F(1), F(7, 2)) == 3
    assert fam.scaled(F(0), F(1, 2), F(1, 2)) == 0
    s = fam.scaled(F(2), F(1, 2), F(5, 2))
    assert isinstance(s, fam.ScaledRational)
    assert s.mantissa == F(1, 2) and s.exponent == F(1, 2)
    assert str(s) == "1/2*(1/2)^(1/2)"


@given(st.fractions(min_value=-50, max_value=50, max_denominator=20).filter(lambda v: v not in (0, 1)),
       st.fractions(min_value=-8, max_value=8, max_denominator=6))
def test_scaled_integer_exponents_collapse(base, expo):
    value = fam.scaled(F(7), base, expo)
    a, b = expo.numerator, expo.denominator
    if isinstance(value, F):
        assert value**b == 7**b * base**a
        assert value > 0 or base < 0
    else:
        assert isinstance(value, fam.ScaledRational)
        assert 0 < value.exponent < 1


@pytest.mark.parametrize("base, expo, want", [
    (F(1, 4), F(1, 2), F(7, 2)),
    (F(4), F(1, 2), F(14)),
    (F(8), F(1, 3), F(14)),
    (F(8), F(2, 3), F(28)),
    (F(4, 9), F(5, 2), 7 * F(32, 243)),
])
def test_scaled_collapses_exact_roots(base, expo, want):
    value = fam.scaled(F(7), base, expo)
    assert isinstance(value, F) and value == want


def test_scaled_keeps_irrational_and_negative_bases():
    assert fam.scaled(F(7), F(8), F(1, 2)) == fam.ScaledRational(F(7), F(8), F(1, 2))
    assert fam.scaled(F(7), F(2, 9), F(1, 2)) == fam.ScaledRational(F(7), F(2, 9), F(1, 2))
    assert fam.scaled(F(1), F(-4), F(1, 2)) == fam.ScaledRational(F(1), F(-4), F(1, 2))


def test_rational_euler_values_are_fractions():
    assert fam.scaled(1, F(1, 4), F(1, 2)) == F(1, 2)
    assert fam.apostol_euler_higher(0, F(1, 2), F(-1, 2)) == 2


# -- family registry ----------------------------------------------------------

def test_family_value_dispatch():
    assert fam.family_value("bell", 4) == 15
    assert fam.family_value("general-geometric", 2, alpha=F(3)) == Poly([0, 3, 12])
    assert fam.family_value("apostol-bernoulli", 2, lam=F(2)) == -4
    assert fam.family_value("stirling2", 4) == (0, 1, 7, 6, 1)
    with pytest.raises(DomainError):
        fam.family_value("no-such-family", 1)
    with pytest.raises(DomainError):
        fam.family_value("bernoulli-higher", 3)  # missing l
    with pytest.raises(DomainError):
        fam.family_value("apostol-bernoulli-higher", 3, l=2, lam=F(1))


def test_every_family_dispatches():
    alpha, l, lam = F(5, 2), 2, F(-3)
    direct = {
        "exponential-poly": lambda n: fam.exponential_poly(n),
        "bell": lambda n: fam.exponential_poly(n)(1),
        "complementary-bell": lambda n: fam.exponential_poly(n)(-1),
        "geometric-poly": lambda n: fam.geometric_poly(n),
        "fubini": lambda n: fam.geometric_poly(n)(1),
        "general-geometric": lambda n: fam.general_geometric(n, alpha),
        "euler-classical": lambda n: fam.geometric_poly(n)(F(-1, 2)),
        "euler-higher": lambda n: fam.apostol_euler_mantissa(n, alpha, F(1)),
        "apostol-euler": lambda n: fam.apostol_euler_mantissa(n, F(1), lam) * fam.euler_prefactor_base(lam),
        "apostol-euler-higher": lambda n: fam.scaled(fam.apostol_euler_mantissa(n, alpha, lam),
                                                     fam.euler_prefactor_base(lam), alpha),
        "bernoulli-classical": lambda n: fam.bernoulli_higher(n, 1),
        "bernoulli-higher": lambda n: fam.bernoulli_higher(n, l),
        "apostol-bernoulli": lambda n: fam.apostol_bernoulli_higher(n, 1, lam),
        "apostol-bernoulli-higher": lambda n: fam.apostol_bernoulli_higher(n, l, lam),
        "bernoulli-second-kind": lambda n: fam.gf_bernoulli_second_kind(max(n, 1)).coeff(n),
        "stirling2": lambda n: tuple(stirling2(n, k) for k in range(n + 1)),
        "stirling1-unsigned": lambda n: tuple(stirling1_unsigned(n, k) for k in range(n + 1)),
    }
    assert set(direct) == set(fam.FAMILIES)
    params = {"alpha": alpha, "l": l, "lam": lam}
    for fid, value in direct.items():
        assert [fam.family_value(fid, n, **params) for n in range(6)] == [value(n) for n in range(6)], fid
        for need in fam.FAMILIES[fid].needs:
            key = "lam" if need == "lambda" else need
            with pytest.raises(DomainError, match=f"--{need}"):
                fam.family_value(fid, 3, **{k: v for k, v in params.items() if k != key})


def test_memoization_returns_identical_objects():
    assert fam.exponential_poly(12) is fam.exponential_poly(12)
    assert fam.general_geometric(9, F(5, 2)) is fam.general_geometric(9, F(5, 2))
