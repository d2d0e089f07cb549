"""The runner's enumeration and half memo: each block comes out in canonical
order and agrees with a plain per-point path, and --perturb never reaches the
memo's cached pairs, verdicts or strings."""

import json
from collections import Counter
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyfam import cli, identities
from polyfam import families as fam
from polyfam.identities import (
    REGISTRY, SLOTS, GridConfig, IdentityReport, SkipDomain, _points, _run_block, grid_points, identity_grid_for,
    run_all,
)
from polyfam.rationals import rational_str

# values whose string order differs from their numeric order ("10" < "2",
# "-3" < "1/3"), duplicates allowed
values = st.lists(st.sampled_from([F(10), F(2), F(-3), F(1, 3)]), min_size=1, max_size=3)


def reference_block(identity_id: str, grid: GridConfig) -> list[IdentityReport]:
    """Per point: merge the axes, render the params, evaluate the check, compare
    and render its pairs; then sort."""
    identity = REGISTRY[identity_id]
    reports = []
    for parts in product(*(SLOTS[slot](grid) for slot in identity.slots)):
        pt = {k: v for part in parts for k, v in part.items()}
        params = {k: rational_str(pt[k]) for k in sorted(pt)}
        try:
            pairs = list(identity.check(pt, grid))
        except SkipDomain as skip:
            reports.append(IdentityReport(identity_id, params, "skipped-domain", "", "", 0, skip.reason))
            continue
        status = "pass" if all(lhs == rhs for _, lhs, rhs in pairs) else "fail"
        lhs_s = "; ".join(f"{lb}={lv}" if lb else str(lv) for lb, lv, _ in pairs)
        rhs_s = "; ".join(f"{lb}={rv}" if lb else str(rv) for lb, _, rv in pairs)
        reports.append(IdentityReport(identity_id, params, status, lhs_s, rhs_s, 0))
    return sorted(reports, key=IdentityReport.sort_key)


@settings(max_examples=20)
@given(lambdas=values, alphas=values, xs=values)
def test_blocks_enumerate_in_canonical_order_and_match_a_per_point_path(lambdas, alphas, xs):
    grid = GridConfig(nmax=1, mmax=2, nm_sum=2, gf_mmax=1, ls=(2, 1),
                      int_alphas=tuple(int(a) for a in alphas if a.denominator == 1),
                      frac_alphas=tuple(a for a in alphas if a.denominator != 1),
                      lambdas=tuple(lambdas), xs=tuple(xs), order=4)
    # a repeated value repeats the axes after it out of order, which the sort in _points mends
    distinct = all(len(set(vs)) == len(vs) for vs in (lambdas, alphas, xs))
    for identity_id, identity in REGISTRY.items():
        pt_grid = identity_grid_for(identity, grid)[0]
        params = [params for _, params in _points(identity.slots, pt_grid)]
        assert all(list(p) == sorted(p) for p in params), identity_id
        keys = [tuple(p.items()) for p in params]
        assert keys == sorted(keys) or not distinct, identity_id
        reports = _run_block(identity_id, grid, False, False)[1][0]
        expected = reference_block(identity_id, pt_grid)
        assert reports == expected, identity_id
        assert [list(r.params.items()) for r in reports] == [list(r.params.items()) for r in expected]


def test_points_come_in_canonical_order_when_an_axis_repeats_a_value():
    grid = GridConfig(nmax=1, int_alphas=(1,), frac_alphas=(), lambdas=(F(2), F(2)), xs=(F(1), F(2, 3), F(1)))
    keys = [tuple(params.items()) for _, params in _points(REGISTRY["aux-wang"].slots, grid)]
    assert len(keys) == 2 * 1 * 2 * 3
    assert keys == sorted(keys)


REDUCED = ["--nmax", "2", "--mmax", "2", "--gf-mmax", "1", "--order", "6",
           "--lambda", "7,-2/3,1", "--alpha", "3,2/3", "--l", "1,3", "--x", "2"]


def reduced_grid() -> GridConfig:
    return cli._grid_from_args(cli.build_parser().parse_args(["verify", "--all", *REDUCED]))


def verify_statuses(capsys, *flags) -> Counter:
    code = cli.main(["verify", "--all", *REDUCED, "--format", "json", *flags])
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert code == (1 if "--perturb" in flags else 0)
    return Counter(r["status"] for r in reports)


def test_perturb_then_plain_then_perturb_in_one_process(capsys):
    # every block starts from an emptied half memo, so a perturbed run leaves nothing behind that the
    # next run reads: the plain run passes every point the perturbed one failed, and perturbing again
    # gives the same statuses
    first = verify_statuses(capsys, "--perturb")
    plain = verify_statuses(capsys)
    second = verify_statuses(capsys, "--perturb")
    assert set(first) == {"fail", "skipped-domain"}
    assert plain == {"pass": first["fail"], "skipped-domain": first["skipped-domain"]}
    assert second == first


@pytest.mark.parametrize("pairs, rendered", [
    ([("a", F(1), F(1)), ("", F(2), F(2))], (True, "a=1; 2", "a=1; 2")),
    ([("a", F(1), F(3)), ("", F(2), F(2))], (False, "a=1; 2", "a=3; 2")),
    ([("", F(1), F(2))], (False, "1", "2")),
])
def test_render_prints_an_unlabelled_pair_as_its_value_wherever_it_stands(pairs, rendered):
    assert identities._render(pairs) == rendered


def test_every_check_renders_as_render_of_its_pairs():
    grid = reduced_grid()
    checked = 0
    for identity_id, identity in REGISTRY.items():
        for pt in grid_points(identity.slots, grid):
            try:
                pairs = identity.check(pt, grid)
            except SkipDomain:
                continue
            assert pairs.rendered == identities._render(list(pairs)), (identity_id, pt)
            checked += 1
    assert checked > 0


HALF_GRID = GridConfig(nmax=3, mmax=3, nm_sum=5, ls=(1, 2), int_alphas=(1, 2), frac_alphas=(F(1, 2),),
                       lambdas=(F(2), F(-3), F(1)), xs=(F(1), F(-1, 2)), order=8)


def fresh_check(identity, pt: dict, grid: GridConfig) -> list:
    """The pairs of every half, computed afresh and joined in order."""
    values = {**pt, "order": grid.order}
    return [pair for half in identity.halves for pair in half(*map(values.get, fam._parameter_keys(half)))]


def test_the_half_memo_holds_the_halves_of_the_block_being_run():
    memo = identities._rendered_half
    memo.cache_clear()
    run_all(HALF_GRID, ["poly-shift-prop"])
    alone = memo.cache_info().currsize
    memo.cache_clear()
    run_all(HALF_GRID, ["finite-sums", "poly-shift-prop"])
    assert memo.cache_info().currsize == alone > 0
    run_all(HALF_GRID, ["spivey"])
    assert memo.cache_info().currsize == 0
    # within one block too, --perturb edits the fresh pair lists, never the memo's pairs, verdicts or strings
    theorem = REGISTRY["poly-shift-theorem"]
    assert run_all(HALF_GRID, ["poly-shift-theorem"], perturb=True)[0].passed == 0
    filled = memo.cache_info().currsize
    for pt in grid_points(theorem.slots, HALF_GRID):
        try:
            fresh = fresh_check(theorem, pt, HALF_GRID)
        except SkipDomain:
            with pytest.raises(SkipDomain):
                theorem.check(pt, HALF_GRID)
            continue
        checked = theorem.check(pt, HALF_GRID)
        assert list(checked) == fresh, pt
        assert checked.rendered == identities._render(fresh), pt
    assert memo.cache_info().currsize == filled > 0  # every point read the memo the perturbed run filled
