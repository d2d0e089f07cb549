import json
from dataclasses import replace
from fractions import Fraction as F
from math import factorial

import pytest

from polyfam import families as fam
from polyfam import identities
from polyfam.identities import (
    REGISTRY,
    SLOTS,
    GridConfig,
    Identity,
    UnknownIdentityError,
    certification_lambdas,
    grid_points,
    identity_grid_for,
    run_all,
    run_identity,
)
from polyfam.rationals import DomainError, binomial
from polyfam.stirling import stirling1_unsigned, stirling2

SMALL = GridConfig(
    nmax=3, mmax=3, nm_sum=5, gf_mmax=2,
    ls=(1, 2), int_alphas=(1, 2), frac_alphas=(F(1, 2),),
    lambdas=(F(2), F(-3)), xs=(F(1), F(-1, 2)), order=8,
)


def test_registry_covers_the_catalog():
    expected = {
        "spivey", "gf-phi-shift", "gf-phi-base", "gf-w-shift", "gf-w-base",
        "gf-apostol-euler-shift", "gf-apostol-bernoulli-shift",
        "w-general-recurrence", "w-explicit", "fubini-explicit",
        "apostol-euler-recurrence", "apostol-euler-explicit",
        "apostol-bernoulli-recurrence", "bernoulli-higher-recurrence",
        "apostol-bernoulli-diag-recurrence", "apostol-bernoulli-explicit",
        "apostol-bernoulli-classical", "w-connections",
        "poly-shift-prop", "poly-shift-theorem", "finite-sums",
        "diag-bernoulli-values", "aux-wang", "aux-srivastava-luo",
        "aux-euler-reflection",
    }
    assert set(REGISTRY) == expected


def test_slots_are_grid_axes():
    # --lambda-certify bounds exactly the identities a half of which reads lambda,
    # and hands each 2D+2 distinct lambdas clear of the singular points 0, +-1
    certify = replace(GridConfig(), certify=True)
    for identity in REGISTRY.values():
        assert set(identity.slots) <= set(SLOTS), identity.id
        grid, bound = identity_grid_for(identity, certify)
        reads_lambda = any("lambda" in fam._parameter_keys(half) for half in identity.halves)
        assert (bound is not None) == reads_lambda, identity.id
        if bound is not None:
            assert len(set(grid.lambdas)) == len(grid.lambdas) == 2 * bound + 2, identity.id
            assert not set(grid.lambdas) & {0, 1, -1}, identity.id


def test_halves_name_the_keys_of_their_slots():
    for identity in REGISTRY.values():
        keys = {k for slot in identity.slots for k in SLOTS[slot](GridConfig())[0]}
        half_keys = [fam._parameter_keys(half) for half in identity.halves]
        for read in half_keys:
            assert len(read) >= 2, identity.id  # itemgetter of one key gives a bare value
            assert set(read) <= keys | {"order"}, identity.id
        # an axis that no half reads would repeat identical checks
        assert keys <= {k for read in half_keys for k in read}, identity.id


def test_axes_are_derived_from_the_halves_unless_the_parameters_cannot_name_them():
    # gm (an m bounded by gf_mmax) and int_alpha are the only axes a parameter name cannot say,
    # so an entry naming any other axes would declare them twice
    named = {i for i, identity in REGISTRY.items()
             if Identity(identity.id, identity.description, identity.halves).slots != identity.slots}
    assert named == {"gf-phi-shift", "gf-w-shift", "gf-apostol-euler-shift", "gf-apostol-bernoulli-shift",
                     "aux-srivastava-luo"}

    def toy(n, m, x, order):
        return [("", n + m + x + order, n + m + x + order)]

    assert set(Identity("toy", "n and m read together", (toy,)).slots) == {"nm", "x"}
    # dataclasses.replace, which wraps a check in place, keeps the axes, given or derived
    for identity in REGISTRY.values():
        wrapped = replace(identity, check=identity.check)
        assert wrapped.slots == identity.slots, identity.id
        assert wrapped.lambda_degree_bound(GridConfig()) == identity.lambda_degree_bound(GridConfig()), identity.id


def test_only_identities_of_two_or_more_halves_fill_the_half_memo():
    split = sorted(i for i, identity in REGISTRY.items() if len(identity.halves) > 1)
    assert split == ["finite-sums", "poly-shift-prop", "poly-shift-theorem", "w-connections"]
    identities._rendered_half.cache_clear()
    run_all(SMALL, sorted(set(REGISTRY) - set(split)))
    assert identities._rendered_half.cache_info().currsize == 0
    run_all(SMALL, split)
    assert identities._rendered_half.cache_info().currsize > 0


def test_default_grid_size():
    assert sum(len(grid_points(i.slots, GridConfig())) for i in REGISTRY.values()) == 23383


def test_grid_points_report_axis_parameters():
    points = grid_points(REGISTRY["aux-srivastava-luo"].slots, SMALL)
    assert len(points) == 4 * 2 * 2 * 2
    assert {p["alpha"] for p in points} == {1, 2}  # integer orders only
    assert set(points[0]) == {"n", "alpha", "lambda", "x"}
    assert {p["m"] for p in grid_points(("gm",), SMALL)} == {0, 1, 2}


@pytest.mark.parametrize("identity_id", sorted(REGISTRY))
def test_each_identity_passes_on_small_grid(identity_id):
    reports = run_identity(identity_id, SMALL)
    assert reports, identity_id
    assert all(r.status in ("pass", "skipped-domain") for r in reports)
    assert any(r.status == "pass" for r in reports)


@pytest.mark.parametrize("identity_id", sorted(REGISTRY))
def test_negative_control_flips_every_identity(identity_id):
    tiny = GridConfig(
        nmax=2, mmax=2, nm_sum=3, gf_mmax=1, ls=(1,), int_alphas=(1,),
        frac_alphas=(), lambdas=(F(2),), xs=(F(1),), order=6,
    )
    reports = run_identity(identity_id, tiny, perturb=True)
    checked = [r for r in reports if r.status != "skipped-domain"]
    assert checked, identity_id
    assert all(r.status == "fail" for r in checked)
    assert all(r.lhs and r.rhs for r in checked)


def test_spivey_symbolic_report_value():
    reports = run_identity("spivey", GridConfig(nmax=2, mmax=2, nm_sum=4))
    by_point = {(r.params["n"], r.params["m"]): r for r in reports}
    r = by_point[("2", "2")]
    assert r.status == "pass"
    assert r.lhs == "x+7x^2+6x^3+x^4"
    assert r.lhs == r.rhs
    assert by_point[("0", "0")].status == "pass"


def test_spivey_at_one_is_the_bell_number_formula():
    for n in range(6):
        for m in range(6):
            rhs = sum(
                binomial(n, k) * stirling2(m, j) * F(j) ** (n - k) * fam.bell(k)
                for k in range(n + 1)
                for j in range(m + 1)
            )
            assert fam.bell(n + m) == rhs


def test_int_grid_values_give_the_reports_of_their_fraction_twins():
    ints = GridConfig(nmax=2, mmax=2, nm_sum=3, gf_mmax=1, ls=(1, 2), int_alphas=(1, 2), frac_alphas=(F(1, 2),),
                      lambdas=(2, -3, 1), xs=(1, -2), order=6)
    twin = replace(ints, lambdas=tuple(map(F, ints.lambdas)), xs=tuple(map(F, ints.xs)))
    summary, reports, _ = run_all(ints)
    assert summary.failed == 0 and summary.passed > 0
    assert reports == run_all(twin)[1]


def test_skipped_domain_lambda_one_on_explicit():
    grid = GridConfig(nmax=2, ls=(1,), lambdas=(F(1), F(2)))
    reports = run_identity("apostol-bernoulli-explicit", grid)
    skipped = [r for r in reports if r.params["lambda"] == "1"]
    assert skipped and all(r.status == "skipped-domain" for r in skipped)
    assert all("bernoulli-higher" in r.reason for r in skipped)
    passed = [r for r in reports if r.params["lambda"] == "2"]
    assert passed and all(r.status == "pass" for r in passed)


def test_skipped_domain_fractional_order_on_srivastava_luo():
    # the order is refused, not truncated: alpha 5/2 must not be checked as 2
    grid = GridConfig(nmax=2, int_alphas=(F(5, 2), 2), lambdas=(F(2),), xs=(F(1),))
    reports = run_identity("aux-srivastava-luo", grid)
    by_alpha = {}
    for r in reports:
        by_alpha.setdefault(r.params["alpha"], set()).add((r.status, r.reason))
    assert by_alpha == {
        "5/2": {("skipped-domain", "non-integer alpha: the Bernoulli-type order alpha must be a positive integer")},
        "2": {("pass", "")},
    }


def test_skipped_domain_euler_pole():
    grid = GridConfig(nmax=1, mmax=1, nm_sum=2, int_alphas=(1,), frac_alphas=(), lambdas=(F(-1),))
    reports = run_identity("apostol-euler-recurrence", grid)
    assert reports and all(r.status == "skipped-domain" for r in reports)
    assert all("pole" in r.reason for r in reports)


def test_skipped_domain_fractional_reflection():
    grid = GridConfig(nmax=1, int_alphas=(), frac_alphas=(F(1, 2),), lambdas=(F(2),), xs=(F(1),))
    reports = run_identity("aux-euler-reflection", grid)
    assert reports and all(r.status == "skipped-domain" for r in reports)
    grid_one = GridConfig(nmax=1, int_alphas=(), frac_alphas=(F(1, 2),), lambdas=(F(1),), xs=(F(1),))
    reports_one = run_identity("aux-euler-reflection", grid_one)
    assert reports_one and all(r.status == "pass" for r in reports_one)


def test_reports_are_deterministic_across_jobs():
    # the second call of each pair runs on the caches the first one warmed
    first = run_identity("gf-w-shift", SMALL)
    second = run_identity("gf-w-shift", SMALL)
    assert [r.to_dict() for r in first] == [r.to_dict() for r in second]
    s1, r1, _ = run_all(SMALL, ["spivey", "finite-sums"])
    s2, r2, _ = run_all(SMALL, ["spivey", "finite-sums"])
    assert s1.to_dict() == s2.to_dict()
    assert json.dumps([r.to_dict() for r in r1]) == json.dumps([r.to_dict() for r in r2])


def test_repeated_ids_run_once():
    grid = GridConfig(nmax=1, mmax=1, nm_sum=2)
    once = run_all(grid, ["spivey"])
    assert run_all(grid, ["spivey", "spivey"]) == once
    assert once[0].to_dict() == {"pass": 4, "fail": 0, "skipped": 0}


def test_report_order_is_canonical():
    _, reports, _ = run_all(SMALL, ["w-explicit", "spivey"])
    keys = [(r.id, tuple(sorted(r.params.items()))) for r in reports]
    assert keys == sorted(keys)


def test_run_all_empty_grid():
    empty = GridConfig(nmax=0, mmax=0, nm_sum=0, gf_mmax=0, ls=(), int_alphas=(),
                       frac_alphas=(), lambdas=(), xs=(), order=4)
    summary, reports, _ = run_all(empty, ["w-connections"])
    assert summary.to_dict() == {"pass": 0, "fail": 0, "skipped": 0}
    assert reports == []


def test_unknown_identity_raises():
    with pytest.raises(UnknownIdentityError):
        run_identity("no-such-identity")


def test_lambda_certification_mode():
    grid = GridConfig(
        nmax=1, mmax=1, nm_sum=2, ls=(1,), int_alphas=(1,), frac_alphas=(),
        xs=(F(1),), order=6, certify=True,
    )
    identity = REGISTRY["apostol-bernoulli-classical"]
    cert_grid, bound = identity_grid_for(identity, grid)
    assert bound == identity.lambda_degree_bound(grid)
    assert len(cert_grid.lambdas) == 2 * bound + 2
    assert len(set(cert_grid.lambdas)) == 2 * bound + 2
    assert all(lam not in (0, 1, -1) for lam in cert_grid.lambdas)
    reports = run_identity("apostol-bernoulli-classical", grid)
    assert all(r.status == "pass" for r in reports)
    lam_values = {r.params["lambda"] for r in reports}
    assert len(lam_values) == 2 * bound + 2


def test_lambda_degree_bound_reads_the_largest_index_of_its_grid():
    # the series order plus the shift for a shift in m ("gm"), n + m otherwise
    grid = GridConfig(nmax=3, mmax=5, gf_mmax=7, order=11, ls=(2, 6), int_alphas=(1, 4))
    assert REGISTRY["gf-apostol-euler-shift"].lambda_degree_bound(grid) == 2 * (11 + 7 + 6 + 4 + 2)
    assert REGISTRY["apostol-euler-recurrence"].lambda_degree_bound(grid) == 2 * (3 + 5 + 6 + 4 + 2)
    assert REGISTRY["spivey"].lambda_degree_bound(grid) is None


def test_certification_lambda_generator():
    lams = certification_lambdas(3)
    assert len(lams) == 8 and lams[0] == 2 and len(set(lams)) == 8


def test_timing_field_defaults_to_zero():
    reports = run_identity("gf-phi-base", GridConfig(xs=(F(1),), order=6))
    assert all(r.micros == 0 for r in reports)
    timed = run_identity("gf-phi-base", GridConfig(xs=(F(1),), order=6), timing=True)
    assert all(r.micros >= 0 for r in timed)


# -- constraints that pin down the implemented formula variants ---------------
# Each of these shows that a superficially plausible variant of a catalogued
# identity is NOT an identity, so the catalogued form is the only correct one.

def test_triple_sum_needs_combined_exponent():
    # collapsing the inner index into the outer power breaks the w_{n+m} sum
    n = m = 1
    wrong = sum(
        stirling2(m, k) * binomial(n, j) * stirling2(j, i) * F(k) ** (n - j) * factorial(i + k)
        for k in range(m + 1) for j in range(n + 1) for i in range(j + 1)
    )
    assert fam.geometric_poly(2).coeff(1) != wrong  # x-coefficient comparison fails
    assert fam.geometric_poly(2)(1) == wrong  # though the x=1 value agrees


def test_reflection_exponent_is_the_order_not_the_index():
    lam, n, alpha = F(2), 2, 1
    lhs = fam.euler_prefactor_base(lam) * fam.apostol_euler_poly_mantissa(n, F(alpha), F(1), lam)
    good = lam**-alpha * fam.euler_prefactor_base(1 / lam) * fam.apostol_euler_poly_mantissa(n, F(alpha), F(0), 1 / lam)
    bad = lam**-n * fam.euler_prefactor_base(1 / lam) * fam.apostol_euler_poly_mantissa(n, F(alpha), F(0), 1 / lam)
    assert lhs == good
    assert lhs != bad


def test_diagonal_shift_requires_polynomial_argument():
    # with plain diagonal numbers (and a spurious k!) the classical-order sum fails
    m = l = 1
    with_plain_numbers = l * binomial(m + l, l) * sum(
        stirling2(m, k) * F(-1) ** k * factorial(k) / (l + k) * fam.bernoulli_higher(l + k, l + k)
        for k in range(m + 1)
    )
    assert fam.bernoulli_higher(m + l, l) != with_plain_numbers
    with_poly_args = l * binomial(m + l, l) * sum(
        stirling2(m, k) * F(-1) ** k / (l + k) * fam.bernoulli_higher_poly(l + k, l + k, k)
        for k in range(m + 1)
    )
    assert fam.bernoulli_higher(m + l, l) == with_poly_args


def test_diagonal_value_links_to_second_kind_only_through_argument_one():
    # B_n-at-1 carries the second-kind connection; the value at 0 does not
    n = 2
    at_one = fam.bernoulli_higher_poly(n, n, 1)
    assert at_one == factorial(n) * fam.bernoulli_second_kind(n)
    assert fam.bernoulli_second_kind(n) != F(-1) ** n / n**2 * fam.bernoulli_higher(n, n)


def test_inverse_transform_shift_lands_on_polynomial_values():
    # the inverse-transform sum reproduces B^{(m+l)}_{m+l}(m), not B^{(m+l)}_{m+l}
    m = l = 1
    sum_ = F(l + m, l) * sum(
        F(-1) ** k * stirling1_unsigned(m, k) / binomial(k + l, l) * fam.bernoulli_higher(k + l, l)
        for k in range(m + 1)
    )
    assert sum_ == fam.bernoulli_higher_poly(m + l, m + l, m)
    assert sum_ != fam.bernoulli_higher(m + l, m + l)


def test_transform_machinery_links_the_two_diagonal_recurrences():
    # the diagonal recurrence and its inverse form are one transform pair over
    # rational sequences, exercised here through the transform functions
    from .oracles import inverse_stirling_transform, stirling_transform

    for l in (1, 2, 3):
        upper = 7
        a = [F(-1) ** k / (l + k) * fam.bernoulli_higher_poly(l + k, l + k, k) for k in range(upper)]
        b = [fam.bernoulli_higher(m + l, l) / (l * binomial(m + l, l)) for m in range(upper)]
        assert stirling_transform(a) == b
        assert inverse_stirling_transform(b) == a


@pytest.mark.parametrize("lam", [F(2), F(-1, 3)])
def test_bernoulli_value_pairs_refuse_orders_below_one(lam):
    with pytest.raises(DomainError, match="order l must be a positive integer"):
        identities._bern(3, 0, lam)
    with pytest.raises(DomainError, match="order l must be a positive integer"):
        identities._bern_poly(3, 0, F(1, 2), lam)


@pytest.mark.parametrize("x0", [3, F(-2, 5)])
def test_bernoulli_poly_pair_over_the_point_denominator(x0):
    lam = F(5, 3)
    num, den = identities._bern_poly_pair(4, 2, x0, lam)
    assert den == (2 * F(x0).denominator) ** 4
    assert F(num, den) == fam.apostol_bernoulli_poly(4, 2, F(x0), lam)
    assert identities._bern_poly(4, 1, x0, F(1)) == fam.bernoulli_higher_poly(4, 1, F(x0))
