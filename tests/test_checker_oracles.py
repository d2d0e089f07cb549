"""The rewritten identity checkers against their old Fraction bodies (in
oracles.py) off the default grid, the per-half caches under --perturb, and the
block JSON writer against json.dumps."""

import json
import re
from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from polyfam import cli
from polyfam.identities import REGISTRY, GridConfig, SkipDomain, run_all

from .oracles import OLD_CHECKERS

# the grid's special values (poles and lambda = 0, 1 included) drawn on purpose
lambdas = st.one_of(
    st.sampled_from([F(0), F(-3), F(-1, 2), F(1, 3), F(1), F(-1)]),
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
)
alphas = st.one_of(
    st.fractions(min_value=F(1, 7), max_value=6, max_denominator=7).filter(lambda a: a.denominator != 1),
    st.sampled_from([F(1), F(2), F(3)]),
)
xs = st.one_of(
    st.sampled_from([F(0), F(1), F(-1, 2), F(2, 3)]),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)


@pytest.mark.parametrize("identity_id", sorted(OLD_CHECKERS))
@given(n=st.integers(0, 6), m=st.integers(0, 6), l=st.integers(1, 4), alpha=alphas, lam=lambdas, x=xs)
@example(n=6, m=6, l=4, alpha=F(5, 2), lam=F(-3), x=F(-1, 2))
@example(n=3, m=4, l=2, alpha=F(1, 2), lam=F(0), x=F(2, 3))
@example(n=5, m=3, l=1, alpha=F(1), lam=F(-1, 2), x=F(1))
@example(n=4, m=5, l=3, alpha=F(7, 3), lam=F(1, 3), x=F(0))
@example(n=5, m=2, l=2, alpha=F(3), lam=F(1), x=F(-5, 3))
def test_checker_matches_old_fraction_body(identity_id, n, m, l, alpha, lam, x):
    pt = {"n": n, "m": m, "l": l, "alpha": alpha, "lambda": lam, "x": x}
    check = REGISTRY[identity_id].check
    try:
        expected = OLD_CHECKERS[identity_id](pt)
    except SkipDomain as skip:
        with pytest.raises(SkipDomain, match=re.escape(skip.reason)):
            check(pt, GridConfig())
        return
    assert check(pt, GridConfig()) == expected


SPLIT_IDENTITIES = ["finite-sums", "poly-shift-prop", "poly-shift-theorem", "w-connections"]


def test_perturbed_run_leaves_the_cached_halves_clean():
    # every block starts from an emptied half memo, so a perturbed run leaves no edited half for the
    # next run to read: it fails every checked point, the plain run after it passes them all with the
    # same skips, and a second plain run prints the same reports
    grid = GridConfig(nmax=3, mmax=3, nm_sum=5, lambdas=(F(7, 2), F(-5, 3), F(1)))
    perturbed, reports, _ = run_all(grid, SPLIT_IDENTITIES, perturb=True)
    assert {r.id for r in reports} == set(SPLIT_IDENTITIES)
    assert perturbed.passed == 0 and perturbed.failed > 0
    clean, clean_reports, _ = run_all(grid, SPLIT_IDENTITIES)
    assert (clean.passed, clean.failed, clean.skipped) == (perturbed.failed, 0, perturbed.skipped)
    assert run_all(grid, SPLIT_IDENTITIES)[1] == clean_reports


@pytest.mark.parametrize("block", [7, cli._JSON_BLOCK])
@pytest.mark.parametrize("argv", [
    ["table", "--family", "apostol-bernoulli-higher", "--l", "2", "--lambda", "-1/2", "--n", "40"],
    ["series", "--gf", "apostol-euler", "--alpha", "5/2", "--lambda", "1/3", "--order", "24"],
])
def test_json_writer_prints_what_json_dumps_does(argv, block, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_JSON_BLOCK", block)
    assert cli.main(argv + ["--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_json_writer_across_many_blocks(capsys):
    obj = {"rows": [{"n": n, "value": str(F(n, 7)), "parts": [n, [], {}]} for n in range(30000)], "empty": {}}
    cli._write_json(obj)
    assert capsys.readouterr().out == json.dumps(obj, indent=2) + "\n"
