"""Route independence: a bug planted in one shared piece must fail some point.

The catalog is an oracle only while the two sides of each identity reach their
values by different code; a helper that both sides share would cancel its own
bug.  Each case below plants one small fault in one shared piece (DeMillo,
Lipton & Sayward, "Hints on test data selection", IEEE Computer 11(4), 1978),
runs the catalog on a reduced grid in this process, and names the identities
that caught it.  CAUGHT_BY records the catch set of every mutation: a change
that shrinks one makes two routes share the mutated piece.

A catch set cannot see a point where the fault moves both sides alike: the
point passes and proves nothing about the faulted piece.  It is the equivalent
mutant of DeMillo, Lipton & Sayward, except that here the verdict stays while a
side moved.  CANCELLED_BY pins, per fault and identity, the points whose
rendered lhs the fault changed and which still pass, each entry with the class
of its reason; a new shared route shows up there as a count that grows.
"""

from collections import Counter
from fractions import Fraction as F

import pytest

from polyfam import families as fam
from polyfam import identities, series, stirling
from polyfam.identities import GridConfig, run_all
from polyfam.poly import Poly
from polyfam.series import Series

# 8,801 points, all passing on clean code
REDUCED = GridConfig(nmax=4, mmax=4, nm_sum=5, gf_mmax=3, order=8)


def _bump(values, k, delta):
    """values with values[k] + delta, or unchanged when there is no index k."""
    values = list(values)
    if k < len(values):
        values[k] += delta
    return values


def _bumped(fn, k, delta):
    """fn, or a Series method, with coefficient k of its Series result raised by delta."""
    def mutant(*args):
        out = fn(*args)
        return Series(_bump(out.coeffs, k, delta), out.order)
    return mutant


def _geometric_num(original):
    # the kernel as if {3,2} were 4: one more k = 2 term of sum_k {n,k} a(a+b) u^k (bv)^(n-k)
    return lambda n, a, b, u, v: original(n, a, b, u, v) + (a * (a + b) * u**2 * b * v if n == 3 else 0)


def _appell_num(original):
    # the kernel as if C(3,1) were 4: one more k = 1 term num(1) v w^2
    return lambda n, num, w, v: original(n, num, w, v) + (num(1) * v * w**2 if n == 3 else 0)


def _bernoulli_row(original):
    def mutant(n, l):
        den, nums = original(n, l)
        return den, tuple(_bump(nums, 1, 1))
    return mutant


def _sum_over_lcm(original):
    def mutant(terms):  # drops the last term of a sum of two or more
        terms = list(terms)
        return original(terms[:-1] if len(terms) > 1 else terms)
    return mutant


def _general_geometric(original):
    return lambda n, alpha: Poly(_bump(original(n, alpha).coeffs, 2, 1))


def _series_mul(original):
    def mutant(self, other):
        out = original(self, other)
        if isinstance(other, Series):
            return Series(_bump(out.coeffs, 2, 1), out.order)
        return out
    return mutant


# name -> (owner, attribute, mutant factory); a name is patched where it is read
MUTATIONS = {
    "_geometric_num {3,2}+1": (fam, "_geometric_num", _geometric_num),
    "_appell_num C(3,1)+1": (fam, "_appell_num", _appell_num),
    "binomial_power coefficient 3 + 1/7": (fam, "binomial_power", lambda f: _bumped(f, 3, F(1, 7))),
    "_difference_table coefficient 3 + 1/7":
        (series, "_difference_table", lambda f: lambda *args: _bump(f(*args), 3, F(1, 7))),
    "euler_prefactor_base x2": (fam, "euler_prefactor_base", lambda f: lambda lam: 2 * f(lam)),
    "gen_binomial(., 2) + 1 in identities":
        (identities, "gen_binomial", lambda f: lambda r, k: f(r, k) + (k == 2)),
    "_sum_over_lcm drops its last term": (identities, "_sum_over_lcm", _sum_over_lcm),
    "series.sum_over_lcm drops its last term": (series, "sum_over_lcm", _sum_over_lcm),
    "linear_combination coefficient 1 + 1/3": (identities, "linear_combination", lambda f: _bumped(f, 1, F(1, 3))),
    "Series.__mul__ product coefficient 2 + 1": (Series, "__mul__", _series_mul),
    "Series.exp coefficient 2 + 1": (Series, "exp", lambda f: _bumped(f, 2, 1)),
    "_bernoulli_row B_1 numerator + 1": (fam, "_bernoulli_row", _bernoulli_row),
    "general_geometric x^2 coefficient + 1": (fam, "general_geometric", _general_geometric),
    "Poly.__call__ value + 1": (Poly, "__call__", lambda f: lambda self, v: f(self, v) + 1),
}
# Stirling triangle entries edited in place: (table, n, k)
ROW_EDITS = {
    "Stirling {4,2} + 1": (stirling._SECOND, 4, 2),
    "Stirling [3,1] + 1": (stirling._FIRST, 3, 1),
}

CAUGHT_BY = {
    "Poly.__call__ value + 1": {
        "apostol-bernoulli-classical", "fubini-explicit", "gf-phi-base", "gf-phi-shift", "gf-w-base",
        "gf-w-shift", "w-connections",
    },
    # only gf-phi's statement product e^{x(e^t-1)} phi_m(x e^t) multiplies two
    # series: every other right side is a cached series or a linear combination
    # of them, and (t/(e^t - 1))^l is one binomial power, not an inverse squared
    "Series.__mul__ product coefficient 2 + 1": {
        "gf-phi-base", "gf-phi-shift",
    },
    "Series.exp coefficient 2 + 1": {
        "gf-phi-base", "gf-phi-shift",
    },
    "Stirling [3,1] + 1": {
        "bernoulli-higher-recurrence", "diag-bernoulli-values", "finite-sums", "poly-shift-theorem",
    },
    "Stirling {4,2} + 1": {
        "apostol-bernoulli-recurrence", "apostol-euler-explicit", "apostol-euler-recurrence",
        "aux-euler-reflection", "aux-wang", "bernoulli-higher-recurrence", "finite-sums", "fubini-explicit",
        "gf-apostol-bernoulli-shift", "gf-apostol-euler-shift", "gf-phi-base", "gf-phi-shift", "gf-w-base",
        "gf-w-shift", "poly-shift-prop", "poly-shift-theorem", "spivey", "w-explicit", "w-general-recurrence",
    },
    "_appell_num C(3,1)+1": {
        "apostol-bernoulli-recurrence", "apostol-euler-recurrence", "aux-euler-reflection",
        "aux-srivastava-luo", "aux-wang", "bernoulli-higher-recurrence", "diag-bernoulli-values",
        "poly-shift-prop", "poly-shift-theorem",
    },
    "_bernoulli_row B_1 numerator + 1": {
        "apostol-bernoulli-recurrence", "aux-srivastava-luo", "bernoulli-higher-recurrence",
        "diag-bernoulli-values", "poly-shift-prop", "poly-shift-theorem",
    },
    "_geometric_num {3,2}+1": {
        "apostol-bernoulli-classical", "apostol-bernoulli-diag-recurrence", "apostol-bernoulli-explicit",
        "apostol-bernoulli-recurrence", "apostol-euler-explicit", "apostol-euler-recurrence",
        "aux-euler-reflection", "aux-srivastava-luo", "aux-wang", "finite-sums", "gf-apostol-bernoulli-shift",
        "gf-apostol-euler-shift", "poly-shift-prop", "poly-shift-theorem", "w-connections",
    },
    "_difference_table coefficient 3 + 1/7": {
        "apostol-bernoulli-explicit", "apostol-euler-explicit", "gf-apostol-bernoulli-shift",
        "gf-apostol-euler-shift", "gf-phi-base", "gf-phi-shift", "gf-w-base", "gf-w-shift",
    },
    "_sum_over_lcm drops its last term": {
        "apostol-bernoulli-diag-recurrence", "apostol-bernoulli-recurrence", "bernoulli-higher-recurrence",
        "diag-bernoulli-values", "finite-sums", "poly-shift-prop", "poly-shift-theorem",
    },
    "binomial_power coefficient 3 + 1/7": {
        "apostol-bernoulli-explicit", "apostol-bernoulli-recurrence", "apostol-euler-explicit",
        "aux-srivastava-luo", "bernoulli-higher-recurrence", "diag-bernoulli-values", "gf-apostol-bernoulli-shift",
        "gf-apostol-euler-shift", "gf-phi-base", "gf-phi-shift", "gf-w-base", "gf-w-shift", "poly-shift-prop",
        "poly-shift-theorem",
    },
    "euler_prefactor_base x2": {
        "apostol-euler-explicit", "aux-wang", "poly-shift-theorem",
    },
    "gen_binomial(., 2) + 1 in identities": {
        "finite-sums", "poly-shift-theorem",
    },
    "general_geometric x^2 coefficient + 1": {
        "gf-apostol-bernoulli-shift", "gf-apostol-euler-shift", "gf-w-base", "gf-w-shift", "w-connections",
        "w-general-recurrence",
    },
    "linear_combination coefficient 1 + 1/3": {
        "gf-apostol-bernoulli-shift", "gf-apostol-euler-shift", "gf-phi-base", "gf-phi-shift", "gf-w-base",
        "gf-w-shift",
    },
    # the per-step series loop: of the catalog's series only (t/(e^t - 1))^l and
    # t/log(1 + t) take it; every e^t-type base takes _difference_table
    "series.sum_over_lcm drops its last term": {
        "apostol-bernoulli-recurrence", "aux-srivastava-luo", "bernoulli-higher-recurrence",
        "diag-bernoulli-values", "gf-apostol-bernoulli-shift", "poly-shift-prop", "poly-shift-theorem",
    },
}


# why a fault moves both sides of a point alike
DEGENERATE = "degenerate point"  # a shift at m = 0 or a sum at n = 0 collapses, or the moves happen to match
SUM_TWICE = "one sum evaluated twice"
PREFACTOR = "shared prefactor"
SHARED_ROUTE = "shared route"  # both sides read one faulted value by one code path

# fault -> {identity: (points whose lhs moved and which still pass, reason class)};
# a fault not named here moves no passing point
CANCELLED_BY = {
    "Stirling {4,2} + 1": {
        # m = 4: the closed sum and the recurrence at n = 0 both run over the row {4, k}
        "apostol-bernoulli-diag-recurrence": (16, SUM_TWICE),
        "apostol-bernoulli-recurrence": (32, DEGENERATE),  # (n, m) = (4, 0) and (0, 4)
        "apostol-euler-recurrence": (60, DEGENERATE),  # (n, m) = (4, 0) and (0, 4)
        "aux-euler-reflection": (18, SUM_TWICE),  # lambda = 1, n = 4: both sides read the moved E_4^(a) once
        "aux-wang": (2, DEGENERATE),  # n = 4, x = -1/2, at (alpha, lambda) = (1, 2) and (2, 1)
        "fubini-explicit": (2, DEGENERATE),  # n or m = 0: Spivey's row is the Stirling row {4, d}
        "poly-shift-prop": (216, DEGENERATE),  # (n, m) = (4, 0) and (0, 4)
        "poly-shift-theorem": (24, DEGENERATE),  # lambda = 1, m = 0, n = 4
        "spivey": (2, DEGENERATE),  # n or m = 0
        "w-connections": (120, SUM_TWICE),  # every n = 4 point: both sides sum {4, k} (alpha)_k y^k
        "w-explicit": (2, DEGENERATE),  # n or m = 0
        "w-general-recurrence": (12, DEGENERATE),  # n or m = 0
    },
    "_bernoulli_row B_1 numerator + 1": {
        "aux-srivastava-luo": (6, DEGENERATE),  # lambda = 1, n <= 3: the two moves of B_1 happen to match
    },
    "_geometric_num {3,2}+1": {
        "apostol-bernoulli-recurrence": (16, DEGENERATE),  # m = 0, n = 3
        "apostol-euler-recurrence": (30, DEGENERATE),  # m = 0, n = 3
        "aux-euler-reflection": (1, DEGENERATE),  # x = alpha/2 = 1: the reflection fixes x
        "aux-wang": (2, DEGENERATE),  # n = 3, x = -1/2, at (alpha, lambda) = (1, 1) and (4, 1/3)
        "poly-shift-prop": (120, DEGENERATE),  # m = 0, n = 3
    },
    # at lambda = 1 every Bernoulli value is read off (t/(e^t - 1))^l: m = 0, or n + m + l = 3,
    # where the moved B_3 of every order enters both sides once, at one weight
    "binomial_power coefficient 3 + 1/7": {
        "apostol-bernoulli-recurrence": (4, DEGENERATE),
        "bernoulli-higher-recurrence": (2, DEGENERATE),
        "gf-apostol-bernoulli-shift": (3, SHARED_ROUTE),  # lambda = 1, m = 0: the series against itself
        "poly-shift-prop": (24, DEGENERATE),
    },
    "euler_prefactor_base x2": {
        "aux-euler-reflection": (236, PREFACTOR),  # integer alpha, lambda != 1: base^alpha on both sides
        "poly-shift-theorem": (316, PREFACTOR),  # m = 0: only the euler-reflection pair moves
    },
    "series.sum_over_lcm drops its last term": {  # all at lambda = 1, m = 0
        "apostol-bernoulli-recurrence": (19, DEGENERATE),
        "bernoulli-higher-recurrence": (3, DEGENERATE),
        "gf-apostol-bernoulli-shift": (4, SHARED_ROUTE),
        "poly-shift-prop": (114, DEGENERATE),
        "poly-shift-theorem": (12, DEGENERATE),
    },
}


def _clear_caches():
    for module in (fam, identities):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


@pytest.fixture
def clean_state(monkeypatch):
    """Clean caches before and after; patches undone and Stirling rows restored
    before the caches are cleared again, so no mutant value outlives its case."""
    tables = (stirling._SECOND, stirling._FIRST)
    rows = [list(t._rows) for t in tables]
    _clear_caches()
    yield monkeypatch
    monkeypatch.undo()
    for table, saved in zip(tables, rows):
        table._rows[:] = saved
    _clear_caches()


@pytest.fixture(scope="module")
def clean_lhs():
    """Each point's rendered lhs on clean code, by (id, params), from one run on emptied caches."""
    _clear_caches()
    return {(r.id, tuple(r.params.items())): r.lhs for r in run_all(REDUCED)[1]}


@pytest.mark.parametrize("name", sorted(CAUGHT_BY))
def test_mutation_is_caught(clean_state, clean_lhs, name):
    if name in MUTATIONS:
        owner, attr, factory = MUTATIONS[name]
        clean_state.setattr(owner, attr, factory(getattr(owner, attr)))
    else:
        table, n, k = ROW_EDITS[name]
        row = list(table.row(n))
        row[k] += 1
        table._rows[n] = tuple(row)
    summary, reports, _ = run_all(REDUCED)
    caught = {r.id for r in reports if r.status == "fail"}
    assert caught, f"{name} survived: no identity failed"
    assert caught >= CAUGHT_BY[name], f"{name} caught by {sorted(caught)}, not by {sorted(CAUGHT_BY[name] - caught)}"
    cancelled = Counter(r.id for r in reports
                        if r.status == "pass" and r.lhs != clean_lhs[r.id, tuple(r.params.items())])
    assert cancelled == {i: count for i, (count, _) in CANCELLED_BY.get(name, {}).items()}, name
