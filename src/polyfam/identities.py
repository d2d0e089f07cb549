"""Registry and runner for the identity catalog.

Every identity is a pure check mapping one grid point to a list of
(label, lhs, rhs) comparison pairs; a point passes when every pair is exactly
equal.  The grid hands checks exact values: ints for the indices, Fractions
for alpha, lambda and x.  Points whose parameters fall outside an identity's
domain are reported ``skipped-domain`` with the reason, never silently passed.

Every identity declares its halves, ``(fn, ...)``: each fn is a plain function
of two or more keys, its parameters (lam is "lambda"; "order" is the grid's),
which give its grid axes, n and m together as nm; only the gf-*-shift ids (gm)
and aux-srivastava-luo (int_alpha) name theirs.  The check joins, in order, the
pairs the halves give, in a fresh list that carries the verdict and the
rendered segments in .rendered: _render prints each pair as ``label=value``, or
``value`` alone when its label is empty.  A half that raises SkipDomain
stops the halves after it, so a domain guard goes in the first.  A single half
reads every axis and is rendered afresh.  Two or more halves each omit an axis
(an Euler side of order alpha beside a Bernoulli side of order l), so one memo
(_rendered_half) holds each half's pairs, verdict and segments, computed once
per distinct value of its keys.  It holds the halves of the block being run: no
identity shares a half, so the runner empties it as each block starts.  The
runner enumerates each identity's grid in canonical order (identity id, then
the lexicographic key of the rendered parameters), rendering each axis value
once, and evaluates the points in turn, in one process or, at jobs > 1, one
identity per worker process; output is the same at any job count.  It reports
.rendered, except under --perturb, which edits the fresh pair list, never the
memo, and renders it by the same rule.

Sums over family values run in integers and build one Fraction at the end:
with alpha = a/b and lam = p/q, an Euler-side sum is one integer over a power
of d = b(p+q), a Bernoulli-side sum one integer over the lcm of its terms'
denominators (_sum_over_lcm).  A symbolic side is one coefficient row by
degree, made a Poly once.  _bern_pair and _bern_poly_pair, the only value
helpers that branch on lam = 1, give each Bernoulli-type value as an integer
pair; _bern and _bern_poly make it a Fraction.

A special case or application takes its right side from the statement it
specialises, its left side on its own closed-sum route: gf-phi-base and
gf-w-base are the shifts at m = 0; the Apostol shifts are gf-w-shift's series
(_w_shift_series) at x = -lam/(lam+-1), times l!/(lam-1)^l on the Bernoulli
side; apostol-bernoulli-diag-recurrence is apostol-bernoulli-recurrence at
n = 0.  spivey checks Spivey's integer row {n+m, d} (_spivey_row), and
w-general-recurrence, w-explicit (alpha = 1) and fubini-explicit (its sum, the
value at x = 1) read it through x^d -> alpha(alpha+1)...(alpha+d-1) x^d, which
takes phi_{n+m} to w_{n+m,alpha} (_geometric_row).  A gf right side sums
cached family series, weighted by w_{m,alpha}(y - 1) (_w_at_y_minus_one): as
x e^t G = (1+x)G - 1 for G = 1/(1 - x(e^t - 1)), G^alpha w_{m,alpha}(x e^t G)
sums the G^(alpha+j) (families.gf_general_geometric), phi_m(x e^t) the
e^{kt} = G^(-k) at x = -1, and the lam = 1 pole-cleared Bernoulli side the
(t/(e^t - 1))^(l+j) (families.gf_bernoulli_higher) read from t^(l+j) on.  The
one series product in a check is gf-phi's e^{x(e^t-1)} phi_m(x e^t), the
statement itself; no series here inverts lam e^t +- 1.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate, chain
from math import prod
from operator import itemgetter
from typing import Callable, Sequence

from . import families as fam
from .poly import Poly
from .rationals import binomial, factorial, gen_binomial, rational_str
from .rationals import sum_over_lcm as _sum_over_lcm
from .series import Series, linear_combination
from .stirling import stirling1_unsigned, stirling2

F = Fraction
Pair = tuple[str, object, object]


class SkipDomain(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class UnknownIdentityError(KeyError):
    pass


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridConfig:
    """Desk-scale defaults for the verification grids."""

    nmax: int = 8
    mmax: int = 8
    nm_sum: int = 10          # joint bound on n + m
    gf_mmax: int = 4          # shift bound for generating-function checks
    ls: tuple[int, ...] = (1, 2, 3, 4)
    int_alphas: tuple[int, ...] = (1, 2, 3, 4)
    frac_alphas: tuple[Fraction, ...] = (F(1, 2), F(5, 2))
    # lambda=1 is part of the default grid so the classical specializations get
    # exercised; identities singular there report the point as skipped-domain
    lambdas: tuple[Fraction, ...] = (F(2), F(1, 3), F(-3), F(5), F(1))
    xs: tuple[Fraction, ...] = (F(1), F(-1, 2), F(2, 3))
    order: int = 12
    certify: bool = False     # set by the CLI's --lambda-certify

    def alphas(self) -> tuple[Fraction, ...]:
        return tuple(F(a) for a in self.int_alphas) + tuple(self.frac_alphas)

    def nm_pairs(self) -> list[tuple[int, int]]:
        return [
            (n, m)
            for n in range(self.nmax + 1)
            for m in range(self.mmax + 1)
            if n + m <= self.nm_sum
        ]


# Grid axes: each slot maps a GridConfig to the values one axis of an
# identity's grid takes, typed here once (Fractions for alpha, lambda and x).
# "gm" is the shift m bounded by gf_mmax, and "int_alpha" the integer orders
# only; both report under the usual names.
SLOTS: dict[str, Callable[[GridConfig], list[dict]]] = {
    "nm": lambda g: [{"n": n, "m": m} for n, m in g.nm_pairs()],
    "n": lambda g: [{"n": n} for n in range(g.nmax + 1)],
    "m": lambda g: [{"m": m} for m in range(g.mmax + 1)],
    "gm": lambda g: [{"m": m} for m in range(g.gf_mmax + 1)],
    "l": lambda g: [{"l": l} for l in g.ls],
    "alpha": lambda g: [{"alpha": a} for a in g.alphas()],
    "int_alpha": lambda g: [{"alpha": a} for a in g.int_alphas],
    "lambda": lambda g: [{"lambda": F(lam)} for lam in g.lambdas],
    "x": lambda g: [{"x": F(x)} for x in g.xs],
}


def _points(slots: tuple[str, ...], grid: GridConfig) -> list[tuple[dict, dict[str, str]]]:
    """The product of the named axes as (values, rendered params) per point,
    each axis value rendered once.  The axes are ordered by their keys, which no
    two interleave, and each by its rendering, so the params come in sorted key
    order and the points, sorted where they are built, in canonical order."""
    points = [((), ())]
    for axis in sorted([tuple(sorted(part.items())) for part in SLOTS[slot](grid)] for slot in slots):
        rendered = sorted(((v, tuple((k, rational_str(x)) for k, x in v)) for v in axis), key=itemgetter(1))
        points = [(v + av, r + ar) for v, r in points for av, ar in rendered]
    points.sort(key=itemgetter(1))
    return [(dict(v), dict(r)) for v, r in points]


def grid_points(slots: tuple[str, ...], grid: GridConfig) -> list[dict]:
    """The product of the named axes, one parameter dict per point."""
    return [pt for pt, _ in _points(slots, grid)]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class IdentityReport:
    id: str
    params: dict[str, str]    # rendered values, in sorted key order
    status: str               # "pass" | "fail" | "skipped-domain"
    lhs: str
    rhs: str
    micros: int
    reason: str = ""

    def sort_key(self) -> tuple:
        return (self.id, tuple(self.params.items()))

    def to_dict(self) -> dict:
        out = {"id": self.id, "params": self.params, "status": self.status,
               "lhs": self.lhs, "rhs": self.rhs, "micros": self.micros}
        if self.reason:
            out["reason"] = self.reason
        return out


@dataclass
class Summary:
    passed: int = 0
    failed: int = 0
    skipped: int = 0

    def to_dict(self) -> dict:
        return {"pass": self.passed, "fail": self.failed, "skipped": self.skipped}


# ---------------------------------------------------------------------------
# identity definition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Identity:
    id: str
    description: str
    halves: tuple[Callable[..., Sequence[Pair]], ...]
    slots: tuple[str, ...] = None  # keys of SLOTS; unless given, the halves' keys less order, n and m as "nm"
    check: Callable[[dict, GridConfig], list[Pair]] = None  # derived from halves unless given

    def __post_init__(self):
        keys = [fam._parameter_keys(half) for half in self.halves] if None in (self.slots, self.check) else []
        if self.slots is None:
            axes = set(chain.from_iterable(keys)) - {"order"}
            object.__setattr__(self, "slots", tuple(sorted(axes - {"n", "m"} | {"nm"} if {"n", "m"} <= axes else axes)))
        if self.check is None:
            object.__setattr__(self, "check", _halves(self.halves, keys))

    def lambda_degree_bound(self, grid: GridConfig) -> int | None:
        """The --lambda-certify degree bound, None without a lambda axis: both sides are rational
        functions of lambda of degrees at most the largest index B reached on the grid (series
        order plus shift for a shift in m, "gm"), and 2B over-covers the cross-multiplied degree."""
        if "lambda" not in self.slots:
            return None
        index = grid.order + grid.gf_mmax if "gm" in self.slots else grid.nmax + grid.mmax
        return 2 * (index + max(grid.ls, default=1) + max(grid.int_alphas, default=1) + 2)


REGISTRY: dict[str, Identity] = {}


def _register(identity: Identity) -> None:
    if identity.id in REGISTRY:
        raise ValueError(f"duplicate identity id {identity.id}")
    REGISTRY[identity.id] = identity


class _Checked(list):
    """A fresh pair list, which --perturb may edit, with its verdict and rendered sides in .rendered."""


def _render_half(half: Callable[..., Sequence[Pair]], values: tuple) -> tuple:
    pairs = half(*values)
    return pairs, *_render(pairs)


_rendered_half = lru_cache(maxsize=None)(_render_half)


def _halves(halves: tuple[Callable[..., Sequence[Pair]], ...], keys: list) -> Callable[[dict, GridConfig], _Checked]:
    """The check of an identity declared by its halves, each reading its keys, as the module docstring describes."""
    render = _rendered_half if len(halves) > 1 else _render_half
    getters = [(half, itemgetter(*read)) for half, read in zip(halves, keys)]

    def check(pt: dict, grid: GridConfig) -> _Checked:
        values = {**pt, "order": grid.order}
        parts, oks, lhs, rhs = zip(*[p for half, get in getters if (p := render(half, get(values)))[0]])
        pairs = _Checked(chain.from_iterable(parts))
        ok, lhs_s = all(oks), "; ".join(lhs)
        pairs.rendered = ok, lhs_s, lhs_s if ok else "; ".join(rhs)
        return pairs
    return check


# value helpers ---------------------------------------------------------------

def _bern_pair(n: int, l: int, lam: Fraction) -> tuple[int, int]:
    """The Bernoulli-type number of order l as (numerator, denominator):
    classical at lam = 1, else Apostol-type over (p-q)^n for lam = p/q."""
    if lam == 1:
        return fam.bernoulli_higher(n, l).as_integer_ratio()
    p, q = lam.as_integer_ratio()
    fam._check_apostol_bernoulli_domain(l, p, q)
    return fam._apostol_bernoulli_num(n, l, p, q), (p - q) ** n


def _bern_poly_pair(n: int, l: int, x0: Fraction | int, lam: Fraction) -> tuple[int, int]:
    """The Bernoulli-type polynomial of order l at x0 = u/v as (numerator,
    denominator): classical at lam = 1, else over ((p-q)v)^n for lam = p/q."""
    if lam == 1:
        return fam.bernoulli_higher_poly(n, l, x0).as_integer_ratio()
    (p, q), (u, v) = lam.as_integer_ratio(), x0.as_integer_ratio()
    fam._check_apostol_bernoulli_domain(l, p, q)
    return fam._apostol_bernoulli_poly_num(n, l, p, q, u, v), ((p - q) * v) ** n


def _bern(n: int, l: int, lam: Fraction) -> Fraction:
    return F(*_bern_pair(n, l, lam))


def _bern_poly(n: int, l: int, x0: Fraction | int, lam: Fraction) -> Fraction:
    return F(*_bern_poly_pair(n, l, x0, lam))


def _need_euler_domain(lam: Fraction) -> None:
    if lam == -1:
        raise SkipDomain("lambda=-1 is a pole of the Euler-type families")


def _need_geometric_domain(alpha: Fraction) -> None:
    if alpha <= 0:
        raise SkipDomain("alpha <= 0: general geometric polynomials need alpha > 0")


def _need_apostol_bernoulli_domain(lam: Fraction) -> None:
    if lam == 1:
        raise SkipDomain("lambda=1 not in domain; use bernoulli-higher")


def _euler_series_lhs(values, order: int) -> Series:
    return Series([values(n) / factorial(n) for n in range(order + 1)], order)


def certification_lambdas(bound: int) -> tuple[Fraction, ...]:
    """2*bound + 2 distinct rationals clear of the singular points 0, +-1."""
    return tuple(F(k) for k in range(2, 2 * bound + 4))


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _spivey_row(n: int, m: int) -> tuple[int, ...]:
    """Spivey's row R_d = sum_{k+i=d} sum_j {m,k} C(n,j) k^(n-j) {j,i}, the
    coefficients of sum_{k,j} {m,k} C(n,j) k^(n-j) x^k phi_j(x) = phi_{n+m}(x)."""
    return tuple(sum(stirling2(m, k) * binomial(n, j) * k ** (n - j) * stirling2(j, d - k)
                     for k in range(min(d, m) + 1) for j in range(d - k, n + 1))
                 for d in range(n + m + 1))


def _geometric_row(n: int, m: int, a: int, b: int = 1) -> list[int]:
    """Spivey's row under x^d -> alpha(alpha+1)...(alpha+d-1) x^d: at alpha = a/b,
    coefficient d is this integer R_d a(a+b)...(a+(d-1)b) over b^d.  Kept apart
    from general_geometric, the left side's route, so that w-general-recurrence
    compares two code paths."""
    rising = accumulate(range(n + m), lambda r, d: r * (a + d * b), initial=1)
    return [c * r for c, r in zip(_spivey_row(n, m), rising)]


def _chk_spivey(n, m) -> list[Pair]:
    return [("", fam.exponential_poly(n + m), Poly(_spivey_row(n, m)))]


def _chk_gf_phi_shift(m, x, order) -> list[Pair]:
    lhs = _euler_series_lhs(lambda n: fam.exponential_poly(n + m)(x), order)
    # phi_m(x e^t) = sum_k {m,k} x^k e^{kt}, e^{kt} = (1 + (e^t - 1))^k the cached general geometric series at x = -1
    coeffs = fam.exponential_poly(m).coeffs
    composed = linear_combination([c * x**k for k, c in enumerate(coeffs)],
                                  [fam.gf_general_geometric(-1, -k, order) for k in range(len(coeffs))], order)
    return [("", lhs, fam.gf_exp_bell(x, order) * composed)]


def _w_at_y_minus_one(m: int, alpha: Fraction) -> list[Fraction]:
    """The coefficients e_j = sum_k C(k,j) (-1)^(k-j) c_k of w_{m,alpha}(y - 1), for w_{m,alpha}(y) = sum_k c_k y^k."""
    c = fam.general_geometric(m, alpha).coeffs
    return [sum(binomial(k, j) * (-1) ** (k - j) * c[k] for k in range(j, len(c))) for j in range(len(c))]


def _w_shift_series(m: int, alpha: Fraction, x: Fraction, order: int) -> Series:
    """G^alpha w_{m,alpha}(x e^t G), G = 1/(1 - x(e^t - 1)), the series of w_{n+m,alpha}(x) t^n/n! for alpha > 0:
    as x e^t G = (1+x)G - 1, it is sum_j (1+x)^j e_j G^(alpha+j) over the cached general geometric series."""
    e = _w_at_y_minus_one(m, alpha)
    return linear_combination([(1 + x) ** j * c for j, c in enumerate(e)],
                              [fam.gf_general_geometric(x, alpha + j, order) for j in range(len(e))], order)


def _chk_gf_w_shift(m, alpha, x, order) -> list[Pair]:
    _need_geometric_domain(alpha)
    lhs = _euler_series_lhs(lambda n: fam.general_geometric(n + m, alpha)(x), order)
    return [("", lhs, _w_shift_series(m, alpha, x, order))]


def _chk_gf_apostol_euler_shift(m, alpha, lam, order) -> list[Pair]:
    _need_euler_domain(lam)
    _need_geometric_domain(alpha)
    # M_n = w_{n,alpha}(x) at x = -lam/(lam+1), where (1 - x(e^t-1))^(-alpha) = ((lam+1)/(lam e^t+1))^alpha
    lhs = _euler_series_lhs(lambda n: fam.apostol_euler_mantissa(n + m, alpha, lam), order)
    return [("", lhs, _w_shift_series(m, alpha, -lam / (lam + 1), order))]


def _chk_gf_apostol_bernoulli_shift(m, l, lam, order) -> list[Pair]:
    def values(n: int) -> Fraction:
        return _bern(n + m + l, l, lam) / binomial(n + m + l, l)

    if lam != 1:
        # l!/(lam e^t - 1)^l = l!/(lam-1)^l (1 - x(e^t-1))^(-l) at x = -lam/(lam-1)
        rhs = _w_shift_series(m, l, -lam / (lam - 1), order) * (factorial(l) / (lam - 1) ** l)
        return [("", _euler_series_lhs(values, order), rhs)]
    # classical limit, u = e^t - 1: t^(l+m) sum_j l! (-1)^j e_j u^(-l-j) reads each cached (t/u)^(l+j) from t^(l+j) on
    if (reduced := order - l - m) < 1:
        raise SkipDomain("series order too small for the pole-cleared comparison")
    e = _w_at_y_minus_one(m, l)
    terms = [Series(fam.gf_bernoulli_higher(l + j, order).coeffs[l + j:]) for j in range(len(e))]
    rhs = linear_combination([factorial(l) * (-1) ** j * c for j, c in enumerate(e)], terms, reduced)
    return [("pole-cleared", _euler_series_lhs(values, reduced), rhs)]


def _chk_w_general_recurrence(n, m, alpha) -> list[Pair]:
    _need_geometric_domain(alpha)
    a, b = alpha.as_integer_ratio()
    rhs = Poly(F(c, b**d) for d, c in enumerate(_geometric_row(n, m, a, b)))
    return [("", fam.general_geometric(n + m, alpha), rhs)]


def _chk_w_explicit(n, m) -> list[Pair]:
    return [("", fam.geometric_poly(n + m), Poly(_geometric_row(n, m, 1)))]


def _chk_fubini_explicit(n, m) -> list[Pair]:
    # the row's value at x = 1, summed without Poly.__call__, which the left side reads
    return [("", fam.fubini(n + m), sum(_geometric_row(n, m, 1)))]


def _euler_shift_sum(n: int, m: int, alpha: Fraction, lam: Fraction) -> Fraction:
    """sum_k {m,k} a(a+1)...(a+k-1) (-lam/(lam+1))^k E_n^{(a+k)}(k; lam), in
    mantissas.  With a = a/b and lam = p/q, gcd(a+kb, b) = 1 leaves d = b(p+q)
    unchanged for a + k, so the polynomial mantissa of order a + k at x0 = k is
    the integer families._euler_poly_num(n, a+kb, b, p, q, k, 1) over d^n, and
    the sum is one integer over d^(n+m) (Horner in d)."""
    (a, b), (p, q) = alpha.as_integer_ratio(), lam.as_integer_ratio()
    d, acc, rising, power = b * (p + q), 0, 1, 1  # rising = prod(a+ib), power = (-p)^k
    for k in range(m + 1):
        s = stirling2(m, k)
        acc = acc * d + (s * rising * power * fam._euler_poly_num(n, a + k * b, b, p, q, k, 1) if s else 0)
        rising *= a + k * b
        power *= -p
    return F(acc, d ** (n + m))


def _euler_stirling1_sum(lo: int, m: int, alpha: Fraction, lam: Fraction) -> Fraction:
    """sum_k (-1)^k [m,k] M_{lo+k}, one integer over d^(lo+m) as in _euler_shift_sum."""
    (a, b), (p, q) = alpha.as_integer_ratio(), lam.as_integer_ratio()
    d = b * (p + q)
    terms = ((-1) ** k * stirling1_unsigned(m, k) * fam._geometric_num(lo + k, a, b, -p, p + q) * d ** (m - k)
             for k in range(m + 1))
    return F(sum(terms), d ** (lo + m))


def _bernoulli_shift_sum(n: int, m: int, l: int, lam: Fraction) -> Fraction:
    """sum_k {m,k} (-lam)^k B_{n+l+k}^{(l+k)}(k; lam) / ((l+k) C(n+l+k, n)), one
    integer over the lcm of its terms; (-lam)^k = (-p)^k / q^k for lam = p/q."""
    p, q = lam.as_integer_ratio()
    terms = []
    for k in range(m + 1):
        s = stirling2(m, k)
        if s:
            num, den = _bern_poly_pair(n + l + k, l + k, k, lam)
            terms.append((s * (-p) ** k * num, q**k * (l + k) * binomial(n + l + k, n) * den))
    return _sum_over_lcm(terms)


def _bernoulli_stirling1_sum(n: int, m: int, l: int, lam: Fraction) -> Fraction:
    """sum_k (-1)^k [m,k] B_{n+l+k}^{(l)}(lam) / C(n+l+k, l), one integer over the lcm of its terms."""
    terms = []
    for k in range(m + 1):
        num, den = _bern_pair(n + l + k, l, lam)
        terms.append(((-1) ** k * stirling1_unsigned(m, k) * num, binomial(n + l + k, l) * den))
    return _sum_over_lcm(terms)


def _euler_reflection(n: int, a: Fraction, x: Fraction, lam: Fraction) -> tuple[Fraction, Fraction] | None:
    """E_n^{(a)}(a - x; lam) against (-1)^n lam^(-a) E_n^{(a)}(x; 1/lam): in mantissas at
    lam = 1, as plain values for integer a, and None for non-integer a at lam != 1."""
    if lam == 1:
        return (fam.apostol_euler_poly_mantissa(n, a, a - x, lam),
                (-1) ** n * fam.apostol_euler_poly_mantissa(n, a, x, lam))
    if a.denominator != 1:
        return None
    e = int(a)
    lhs = fam.euler_prefactor_base(lam) ** e * fam.apostol_euler_poly_mantissa(n, a, a - x, lam)
    rhs = ((-1) ** n * lam ** (-e) * fam.euler_prefactor_base(1 / lam) ** e
           * fam.apostol_euler_poly_mantissa(n, a, x, 1 / lam))
    return lhs, rhs


def _chk_apostol_euler_recurrence(n, m, alpha, lam) -> list[Pair]:
    _need_euler_domain(lam)
    lhs = fam.apostol_euler_mantissa(n + m, alpha, lam)
    return [("", lhs, _euler_shift_sum(n, m, alpha, lam))]


def _chk_apostol_euler_explicit(m, alpha, lam, order) -> list[Pair]:
    _need_euler_domain(lam)
    order = max(order, m)
    lhs = fam.apostol_euler_mantissa(m, alpha, lam)
    pairs: list[Pair] = [
        ("mantissa-series", lhs, fam.gf_apostol_euler_mantissa(alpha, lam, order).egf_coeff(m))
    ]
    if alpha.denominator == 1 and alpha >= 1:
        plain = fam.euler_prefactor_base(lam) ** alpha * lhs
        pairs.append(("plain-series", plain, fam.gf_apostol_euler(int(alpha), lam, order).egf_coeff(m)))
    return pairs


def _bernoulli_recurrence_sum(n: int, m: int, l: int, lam: Fraction) -> Fraction:
    """sum_{k,j} {m,k} C(n,j) (-lam)^k k^(n-j) B_{l+k+j}^{(l+k)}(lam) / ((l+k) C(l+k+j, j))
    for lam != 1, one integer over the lcm of its terms."""
    p, q = lam.as_integer_ratio()  # (-lam)^k = (-p)^k / q^k
    terms = []
    for k in range(m + 1):
        s = stirling2(m, k)
        if s:
            for j in range(n + 1):
                num, den = _bern_pair(l + k + j, l + k, lam)
                terms.append((s * binomial(n, j) * (-p) ** k * k ** (n - j) * num,
                              q**k * (l + k) * binomial(l + k + j, j) * den))
    return _sum_over_lcm(terms)


def _chk_apostol_bernoulli_recurrence(n, m, l, lam) -> list[Pair]:
    lhs = _bern(n + m + l, l, lam) / (binomial(n + m + l, l) * l)
    if lam == 1:
        # classical limit: the order-(l+k) factors must stay fused with their
        # e^{kt} shift, which turns the inner sum into polynomial values at x=k
        return [("classical-limit", lhs, _bernoulli_shift_sum(n, m, l, lam))]
    return [("", lhs, _bernoulli_recurrence_sum(n, m, l, lam))]


def _shifted_diagonal(m: int, l: int) -> tuple[Fraction, Fraction]:
    """B_{m+l}^{(m+l)}(m) against its inverse transform (l+m)/l sum_k (-1)^k [m,k] B_{k+l}^{(l)} / C(k+l, l)."""
    return (fam.bernoulli_higher_poly(m + l, m + l, m),
            F(l + m, l) * _bernoulli_stirling1_sum(0, m, l, F(1)))


def _chk_bernoulli_higher_recurrence(m, l) -> list[Pair]:
    rhs = l * binomial(m + l, l) * _bernoulli_shift_sum(0, m, l, F(1))
    return [("diagonal-sum", fam.bernoulli_higher(m + l, l), rhs),
            ("inverse-transform", *_shifted_diagonal(m, l))]


def _chk_apostol_bernoulli_diag_recurrence(m, l, lam) -> list[Pair]:
    _need_apostol_bernoulli_domain(lam)
    rhs = l * binomial(m + l, l) * _bernoulli_recurrence_sum(0, m, l, lam)
    return [("", fam.apostol_bernoulli_higher(m + l, l, lam), rhs)]


def _chk_apostol_bernoulli_explicit(n, l, lam, order) -> list[Pair]:
    _need_apostol_bernoulli_domain(lam)
    order = max(order, n)
    pairs: list[Pair] = [
        ("closed-sum-vs-series",
         fam.apostol_bernoulli_higher(n, l, lam),
         fam.gf_apostol_bernoulli(l, lam, order).egf_coeff(n))
    ]
    if n == l:
        pairs.append(("diagonal", fam.apostol_bernoulli_higher(l, l, lam), F(factorial(l)) / (lam - 1) ** l))
    return pairs


def _chk_apostol_bernoulli_classical(n, lam) -> list[Pair]:
    _need_apostol_bernoulli_domain(lam)
    value = fam.apostol_bernoulli_higher(n, 1, lam)
    if n == 0:
        return [("vanishing-start", value, F(0))]
    ratio = lam / (1 - lam)
    geo = F(n) / (lam - 1) * fam.geometric_poly(n - 1)(ratio)
    explicit = F(n) / (lam - 1) * sum(
        (stirling2(n - 1, k) * factorial(k) * ratio**k for k in range(n)), F(0)
    )
    return [("geometric-eval", value, geo), ("stirling-sum", value, explicit)]


# The split identities below have two or more halves, which share their sums
# with the checkers above: _euler_shift_sum (also apostol-euler-recurrence's
# right side) and _euler_stirling1_sum on the Euler side, _bernoulli_shift_sum
# and _bernoulli_stirling1_sum on the Bernoulli side, and _euler_reflection with
# aux-euler-reflection.  The sums read the cached integer kernels of families.

def _connection_euler(n: int, alpha: Fraction, lam: Fraction) -> tuple[Pair, ...]:
    if lam == -1:
        return ()
    _need_geometric_domain(alpha)
    # mantissa form: the (lam+1)/2 powers cancel exactly
    return (("euler-connection",
             fam.general_geometric(n, alpha)(-lam / (lam + 1)),
             fam.apostol_euler_mantissa(n, alpha, lam)),)


def _connection_bernoulli(n: int, l: int, lam: Fraction) -> tuple[Pair, ...]:
    if lam == 1:
        return ()
    return (("bernoulli-connection",
             fam.general_geometric(n, l)(-lam / (lam - 1)),
             (lam - 1) ** l / factorial(l) / binomial(n + l, l) * fam.apostol_bernoulli_higher(n + l, l, lam)),)


def _connection_classical(n: int, alpha: Fraction, l: int) -> tuple[Pair, ...]:
    if alpha == l == 1:
        return (("euler-value", fam.geometric_poly(n)(F(-1, 2)), fam.apostol_euler_mantissa(n, 1, 1)),)
    return ()


def _prop_euler(n: int, m: int, alpha: Fraction, lam: Fraction) -> tuple[Pair, ...]:
    _need_euler_domain(lam)
    return (("euler-shift", fam.apostol_euler_mantissa(n + m, alpha, lam), _euler_shift_sum(n, m, alpha, lam)),)


def _prop_bernoulli(n: int, m: int, l: int, lam: Fraction) -> tuple[Pair, ...]:
    lhs = _bern(n + m + l, l, lam) / binomial(n + m + l, l)
    return (("bernoulli-shift", lhs, l * _bernoulli_shift_sum(n, m, l, lam)),)


def _theorem_euler(n: int, m: int, alpha: Fraction, lam: Fraction) -> tuple[Pair, ...]:
    _need_euler_domain(lam)
    if lam == 0:
        raise SkipDomain("lambda=0: reciprocal parameter undefined")
    binom = gen_binomial(alpha + m - 1, m)
    if binom == 0:
        raise SkipDomain("alpha in {0, -1, ..., 1-m}: the right side divides by C(alpha+m-1, m) = 0")
    lhs_e = fam.euler_prefactor_base(lam) ** m * fam.apostol_euler_poly_mantissa(n, alpha + m, F(m), lam)
    rhs_e = (F(2) / lam) ** m / factorial(m) / binom * _euler_stirling1_sum(n, m, alpha, lam)
    refl = _euler_reflection(n, alpha + m, alpha, lam)
    return (("euler-shift", lhs_e, rhs_e),) + ((("euler-reflection", *refl),) if refl else ())


def _theorem_bernoulli(n: int, m: int, l: int, lam: Fraction) -> tuple[Pair, ...]:
    lhs_b = _bern_poly(n + m + l, m + l, m, lam)
    rhs_b = F(l + m, l) / lam**m * binomial(n + m + l, n) * _bernoulli_stirling1_sum(n, m, l, lam)
    refl_b = F(-1) ** (n + m + l) * lam ** (-(m + l)) * _bern_poly(n + m + l, m + l, F(l), 1 / lam)
    return (("bernoulli-shift", lhs_b, rhs_b), ("bernoulli-reflection", lhs_b, refl_b))


def _finite_sums_euler(m: int, alpha: Fraction, lam: Fraction) -> tuple[Pair, ...]:
    _need_euler_domain(lam)
    rhs = lam**m * factorial(m) / (lam + 1) ** m * gen_binomial(alpha + m - 1, m)
    return (("euler-sum", _euler_stirling1_sum(0, m, alpha, lam), rhs),)


def _finite_sums_bernoulli(m: int, l: int, lam: Fraction) -> tuple[Pair, ...]:
    """The right side over a power of d = p - q: lam^m/(lam-1)^(m+l) = p^m q^l/d^(m+l)."""
    if lam == 1:
        return ()
    p, q = lam.as_integer_ratio()
    rhs = F(l * p**m * q**l * factorial(m + l - 1), (p - q) ** (m + l))
    return (("bernoulli-sum", _bernoulli_stirling1_sum(0, m, l, lam), rhs),)


def _chk_diag_bernoulli_values(m, l) -> list[Pair]:
    n = m + l
    pairs: list[Pair] = [
        ("shifted-diagonal", *_shifted_diagonal(m, l)),
        ("reflection", fam.bernoulli_higher_poly(n, n, n - l), F(-1) ** n * fam.bernoulli_higher_poly(n, n, l)),
        ("second-kind-link", fam.bernoulli_higher_poly(n, n, 1), factorial(n) * fam.bernoulli_second_kind(n)),
    ]
    if n >= 2:
        pairs.append(
            ("order-drop", fam.bernoulli_higher_poly(n, n, 1), fam.bernoulli_higher(n, n - 1) / (1 - n))
        )
    return pairs


def _chk_aux_wang(n, alpha, lam, x) -> list[Pair]:
    _need_euler_domain(lam)
    b = fam.euler_prefactor_base(lam)
    lhs = alpha * lam / 2 * b * fam.apostol_euler_poly_mantissa(n, alpha + 1, x + 1, lam)
    rhs = x * fam.apostol_euler_poly_mantissa(n, alpha, x, lam) - fam.apostol_euler_poly_mantissa(n + 1, alpha, x, lam)
    return [("", lhs, rhs)]


def _chk_aux_srivastava_luo(n, alpha, lam, x) -> list[Pair]:
    if alpha != int(alpha):
        raise SkipDomain("non-integer alpha: the Bernoulli-type order alpha must be a positive integer")
    alpha = int(alpha)
    if alpha < 1:
        raise SkipDomain("alpha < 1: the Bernoulli-type order alpha must be a positive integer")
    lhs = alpha * lam * _bern_poly(n, alpha + 1, x + 1, lam)
    rhs = (n * x * _bern_poly(n - 1, alpha, x, lam) if n else F(0)) + (alpha - n) * _bern_poly(n, alpha, x, lam)
    return [("", lhs, rhs)]


def _chk_aux_euler_reflection(n, alpha, lam, x) -> list[Pair]:
    _need_euler_domain(lam)
    if lam == 0:
        raise SkipDomain("lambda=0: reciprocal parameter undefined")
    refl = _euler_reflection(n, alpha, x, lam)
    if refl is None:
        raise SkipDomain("non-integer order with lambda != 1: prefactor powers are not rationally comparable")
    return [("", *refl)]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

for _identity in [
    Identity("spivey", "index-shift convolution for Bell polynomials, symbolic in x", (_chk_spivey,)),
    Identity("gf-phi-shift", "shifted Bell-polynomial series equals the composed exponential series",
             (_chk_gf_phi_shift,), ("gm", "x")),
    Identity("gf-phi-base", "Bell-polynomial series in exponential form", (partial(_chk_gf_phi_shift, 0),)),
    Identity("gf-w-shift", "shifted general geometric series equals the substituted binomial-power series",
             (_chk_gf_w_shift,), ("gm", "alpha", "x")),
    Identity("gf-w-base", "general geometric series as a binomial power", (partial(_chk_gf_w_shift, 0),)),
    Identity("gf-apostol-euler-shift", "shifted Euler-type number series via geometric polynomial substitution",
             (_chk_gf_apostol_euler_shift,), ("gm", "alpha", "lambda")),
    Identity("gf-apostol-bernoulli-shift", "shifted Bernoulli-type number series via geometric polynomial substitution",
             (_chk_gf_apostol_bernoulli_shift,), ("gm", "l", "lambda")),
    Identity("w-general-recurrence", "order-raising recurrence for general geometric polynomials, symbolic in x",
             (_chk_w_general_recurrence,)),
    Identity("w-explicit", "closed triple sum for geometric polynomials, symbolic in x", (_chk_w_explicit,)),
    Identity("fubini-explicit", "closed triple sum for ordered Bell numbers", (_chk_fubini_explicit,)),
    Identity("apostol-euler-recurrence", "order-raising recurrence for Euler-type numbers",
             (_chk_apostol_euler_recurrence,)),
    Identity("apostol-euler-explicit", "closed Stirling sum for Euler-type numbers against the series route",
             (_chk_apostol_euler_explicit,)),
    Identity("apostol-bernoulli-recurrence", "order-raising recurrence for Bernoulli-type numbers",
             (_chk_apostol_bernoulli_recurrence,)),
    Identity("bernoulli-higher-recurrence",
             "diagonal recurrences for higher-order Bernoulli numbers and their inverse transform",
             (_chk_bernoulli_higher_recurrence,)),
    Identity("apostol-bernoulli-diag-recurrence", "diagonal-order recurrence for Bernoulli-type numbers",
             (_chk_apostol_bernoulli_diag_recurrence,)),
    Identity("apostol-bernoulli-explicit", "closed Stirling sum for Bernoulli-type numbers against the series route",
             (_chk_apostol_bernoulli_explicit,)),
    Identity("apostol-bernoulli-classical", "first-order Bernoulli-type numbers through geometric polynomial values",
             (_chk_apostol_bernoulli_classical,)),
    Identity("w-connections",
             "geometric polynomial values at distinguished points give the Euler/Bernoulli-type families",
             (_connection_euler, _connection_bernoulli, _connection_classical)),
    Identity("poly-shift-prop", "shift of the second index into polynomial arguments, number form",
             (_prop_euler, _prop_bernoulli)),
    Identity("poly-shift-theorem", "inverse-transform shift into polynomial arguments, with reflections",
             (_theorem_euler, _theorem_bernoulli)),
    Identity("finite-sums", "closed forms for alternating first-kind Stirling sums over both families",
             (_finite_sums_euler, _finite_sums_bernoulli)),
    Identity("diag-bernoulli-values", "diagonal higher-order Bernoulli polynomial values and the second-kind link",
             (_chk_diag_bernoulli_values,)),
    Identity("aux-wang", "order-raising relation for Euler-type polynomials", (_chk_aux_wang,)),
    Identity("aux-srivastava-luo", "order-raising relation for Bernoulli-type polynomials",
             (_chk_aux_srivastava_luo,), ("n", "int_alpha", "lambda", "x")),
    Identity("aux-euler-reflection", "reflection of Euler-type polynomials across half the order",
             (_chk_aux_euler_reflection,)),
]:
    _register(_identity)


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def _perturb_value(v, rng: random.Random):
    if isinstance(v, (int, Fraction)):
        return Fraction(v) + 1
    if isinstance(v, Poly):
        k = rng.randrange(max(len(v.coeffs), 1))
        return v + Poly.monomial(k, 1)
    if isinstance(v, Series):
        k = rng.randrange(v.order + 1)
        return v + Series([0] * k + [1], v.order)
    raise TypeError(f"cannot perturb {type(v).__name__}")


def _render(pairs) -> tuple[bool, str, str]:
    """The verdict (every pair equal) and the rendered lhs and rhs of a pair list, each pair
    as label=value, or value alone when its label is empty, joined by "; "; equal values
    print equal strings, so a passing list's rhs is its lhs string."""
    ok, lhs = all(lv == rv for _, lv, rv in pairs), "; ".join([f"{lb}={lv}" if lb else str(lv) for lb, lv, _ in pairs])
    return ok, lhs, lhs if ok else "; ".join([f"{lb}={rv}" if lb else str(rv) for lb, _, rv in pairs])


def _evaluate_point(identity: Identity, pt: dict, params: dict[str, str], grid: GridConfig,
                    perturb: bool, timing: bool) -> IdentityReport:
    started = time.perf_counter() if timing else 0.0
    try:
        pairs = identity.check(pt, grid)
    except SkipDomain as skip:
        micros = int((time.perf_counter() - started) * 1e6) if timing else 0
        return IdentityReport(identity.id, params, "skipped-domain", "", "", micros, skip.reason)
    if perturb:
        rng = random.Random(f"{identity.id}|{list(params.items())!r}")
        idx = rng.randrange(len(pairs))
        label, lhs, rhs = pairs[idx]
        if rng.random() < 0.5:
            pairs[idx] = (label, _perturb_value(lhs, rng), rhs)
        else:
            pairs[idx] = (label, lhs, _perturb_value(rhs, rng))
    ok, lhs_s, rhs_s = _render(pairs) if perturb else pairs.rendered
    micros = int((time.perf_counter() - started) * 1e6) if timing else 0
    return IdentityReport(identity.id, params, "pass" if ok else "fail", lhs_s, rhs_s, micros)


def get_identity(identity_id: str) -> Identity:
    try:
        return REGISTRY[identity_id]
    except KeyError:
        raise UnknownIdentityError(identity_id) from None


def identity_grid_for(identity: Identity, grid: GridConfig) -> tuple[GridConfig, int | None]:
    """Apply lambda-certification (when requested) to one identity's grid."""
    bound = identity.lambda_degree_bound(grid) if grid.certify else None
    if bound is None:
        return grid, None
    return replace(grid, lambdas=certification_lambdas(bound)), bound


def run_identity(identity_id: str, grid: GridConfig | None = None, *,
                 perturb: bool = False, timing: bool = False) -> list[IdentityReport]:
    return run_all(grid, [identity_id], perturb=perturb, timing=timing)[1]


def _run_block(identity_id: str, grid: GridConfig, perturb: bool, timing: bool,
               render: Callable[[IdentityReport], object] | None = None) -> tuple[str, tuple[list, tuple, int | None]]:
    """One unit of work: an identity id mapped to its reports in canonical order, through
    render when given, their pass, fail and skip counts, and its lambda degree bound."""
    identity = get_identity(identity_id)
    _rendered_half.cache_clear()  # no half is shared between identities, so no entry hits in a later block
    pt_grid, bound = identity_grid_for(identity, grid)
    reports = [_evaluate_point(identity, pt, params, pt_grid, perturb, timing)
               for pt, params in _points(identity.slots, pt_grid)]
    counts = tuple(map([r.status for r in reports].count, ("pass", "fail", "skipped-domain")))
    return identity_id, (reports if render is None else list(map(render, reports)), counts, bound)


def _grid_size(identity_id: str, grid: GridConfig) -> int:
    identity = get_identity(identity_id)
    pt_grid = identity_grid_for(identity, grid)[0]
    return prod(len(SLOTS[slot](pt_grid)) for slot in identity.slots)


def run_all(grid: GridConfig | None = None, ids: list[str] | None = None, *,
            perturb: bool = False, timing: bool = False, jobs: int = 1,
            render: Callable[[IdentityReport], object] | None = None) -> tuple[Summary, list, dict[str, int]]:
    """Run the selected identities; with jobs > 1, whole identities go to
    min(jobs, len(ids)) worker processes, largest grid first.  The reports are
    the same either way: blocks are joined in sorted-id order.  Given render,
    each report comes back as render(report), computed where its block ran."""
    grid = grid or GridConfig()
    selected = sorted(REGISTRY) if ids is None else sorted(set(ids))
    block = partial(_run_block, grid=grid, perturb=perturb, timing=timing, render=render)
    workers = min(jobs, len(selected))
    if workers > 1:
        import multiprocessing  # here, so that importing polyfam and jobs=1 never load it

        queue = sorted(selected, key=lambda i: _grid_size(i, grid), reverse=True)
        with multiprocessing.Pool(workers) as pool:
            blocks = dict(pool.imap_unordered(block, queue, chunksize=1))
    else:
        blocks = dict(map(block, selected))
    reports = [r for i in selected for r in blocks[i][0]]
    bounds = {i: blocks[i][2] for i in selected if blocks[i][2] is not None}
    return Summary(*map(sum, zip(*(blocks[i][1] for i in selected)))), reports, bounds
