"""Number and polynomial families, each reachable by independent routes.

Families are memoized pure functions over exact rationals.  Wherever a family
has both a closed-sum route and a generating-series route, both are exposed so
the two can be cross-checked.  The CLI's ``table`` and ``series`` subcommands
reach them through two registries of one form, ``FAMILIES`` and ``SERIES``: a
``Spec`` holds a builder, whose parameters besides ``n`` and ``order`` are the
flags it needs (``Spec.needs``, read once at import).

Order-``a`` Euler-type values for non-integer rational ``a`` carry the shared
irrational prefactor ``(2/(lam+1))^a``.  The public values ``apostol_euler_higher``
and ``apostol_euler_poly`` and the CLI's tables and series return such a value as
a :class:`ScaledRational` (mantissa times a formal rational power of a rational
base), which is only printed; no catalog check produces one, since every
identity check compares the rational mantissas.  For lam < -1 that base is
negative, so the value at a non-integer order is not real; it stays a formal
ScaledRational here, and the CLI refuses to print it.

The closed sums are integers.  With alpha = a/b, lam = p/q and x0 = u/v from
``as_integer_ratio()``, every Apostol-type number is a general geometric
polynomial value w_{n,a}(x) (``_geometric_num``) and every polynomial value an
Appell sum over a row of numbers (``_appell_num``), each one integer over a
denominator its docstring states; an Euler mantissa is ``_geometric_num`` at
x = -lam/(lam+1).  One cached integer per value, keyed by those ints (the
``_*_num`` bodies), is made a Fraction on return; the checkers read the
integers for their own integer sums.

Every Apostol-type series is one cached general geometric series
(1 - x(e^t - 1))^(-alpha) (``gf_general_geometric``) at x = -lam/(lam+-1),
scaled, and shifted on the Bernoulli side, with no series product.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import floor
from typing import Callable

from .poly import Poly
from .rationals import DomainError, _ratio, binomial, factorial, rational_str
from .series import Series, _numerators, binomial_power, expm1_over_t
from .stirling import _FIRST, _SECOND, stirling2

Rat = Fraction


# ---------------------------------------------------------------------------
# scaled rationals: mantissa * base^exponent with rational exponent
# ---------------------------------------------------------------------------

def scaled(mantissa: Rat | int, base: Rat | int, exponent: Rat | int):
    """Canonical mantissa*base^exponent; collapses to a plain Fraction when
    the power is rational (integer exponent, base 1, zero mantissa, or a
    positive base whose numerator and denominator are exact powers)."""
    mantissa, base, exponent = Fraction(mantissa), Fraction(base), Fraction(exponent)
    if mantissa == 0:
        return Fraction(0)
    if base == 1 or exponent == 0:
        return mantissa
    if base == 0:
        if exponent < 0:
            raise DomainError("0 raised to a negative exponent")
        return Fraction(0) if exponent > 0 else mantissa
    whole = floor(exponent)
    frac = exponent - whole
    mantissa *= base**whole
    if frac == 0:
        return mantissa
    if base > 0:
        num = _exact_root(base.numerator, frac.denominator)
        den = _exact_root(base.denominator, frac.denominator)
        if num is not None and den is not None:
            return mantissa * Fraction(num, den) ** frac.numerator
    return ScaledRational(mantissa, base, frac)


def _exact_root(n: int, k: int) -> int | None:
    """The k-th root of n >= 0 when n is a perfect k-th power, else None."""
    root = 1 << -(-n.bit_length() // k)  # 2^ceil(bits/k) >= n^(1/k)
    while True:  # integer Newton step, decreasing until it reaches the floor
        step = ((k - 1) * root + n // root ** (k - 1)) // k
        if step >= root:
            return root if root**k == n else None
        root = step


@dataclass(frozen=True)
class ScaledRational:
    """mantissa * base^exponent with exponent in (0, 1); build via scaled()."""

    mantissa: Rat
    base: Rat
    exponent: Rat

    def __str__(self) -> str:
        return f"{rational_str(self.mantissa)}*({rational_str(self.base)})^({rational_str(self.exponent)})"


# ---------------------------------------------------------------------------
# exponential (Bell) polynomials and numbers
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def exponential_poly(n: int) -> Poly:
    """phi_n(x) = sum_k {n,k} x^k."""
    return Poly([stirling2(n, k) for k in range(n + 1)])


def bell(n: int) -> Rat:
    return exponential_poly(n)(1)


def complementary_bell(n: int) -> Rat:
    return exponential_poly(n)(-1)


# ---------------------------------------------------------------------------
# geometric (Fubini) polynomials, plain and general
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def geometric_poly(n: int) -> Poly:
    """w_n(x) = sum_k {n,k} k! x^k."""
    return Poly([stirling2(n, k) * factorial(k) for k in range(n + 1)])


def fubini(n: int) -> Rat:
    return geometric_poly(n)(1)


@lru_cache(maxsize=None)
def general_geometric(n: int, alpha: Rat) -> Poly:
    """w_{n,alpha}(x) = sum_k {n,k} C(alpha+k-1, k) k! x^k for rational
    alpha > 0.  For alpha = a/b the rising factorial C(alpha+k-1, k) k! is
    a(a+b)...(a+(k-1)b)/b^k; its integer numerator is carried across k."""
    a, b = _ratio(alpha)
    if a <= 0:
        raise DomainError(f"general geometric polynomials need alpha > 0, got {alpha}")
    rising = accumulate(range(n), lambda r, k: r * (a + k * b), initial=1)
    return Poly([Fraction(stirling2(n, k) * r, b**k) for k, r in enumerate(rising)])


def euler_classical(n: int) -> Rat:
    """E_n in the polynomial-at-zero convention; equals w_n(-1/2)."""
    return geometric_poly(n)(Fraction(-1, 2))


# ---------------------------------------------------------------------------
# the two integer kernels of the Apostol-type closed sums
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _geometric_num(n: int, a: int, b: int, u: int, v: int) -> int:
    """(bv)^n w_{n,a/b}(u/v) = sum_k {n,k} a(a+b)...(a+(k-1)b) u^k (bv)^(n-k),
    by Horner in bv.  Kept apart from general_geometric, so that w-connections
    compares two code paths."""
    d, acc, rising, power = b * v, 0, 1, 1  # rising = prod(a+ib), power = u^k
    for k in range(n + 1):
        acc = acc * d + stirling2(n, k) * rising * power
        rising *= a + k * b
        power *= u
    return acc


def _appell_num(n: int, num: Callable[[int], int], w: int, v: int) -> int:
    """sum_k C(n,k) num(k) v^k w^(n-k), by Horner in w.  For a row
    c_k = num(k)/(D d^k) and x0 = u/v, the Appell sum sum_k C(n,k) c_k x0^(n-k)
    is this integer at w = du, over D (dv)^n."""
    acc, vk = 0, 1  # vk = v^k
    for k in range(n + 1):
        acc = acc * w + binomial(n, k) * num(k) * vk
        vk *= v
    return acc


# ---------------------------------------------------------------------------
# higher-order Bernoulli numbers/polynomials (series route is canonical)
# ---------------------------------------------------------------------------

def _order_through(n: int) -> int:
    """The least power of two >= max(n, 16): one cached series at that order
    serves every index below it, since truncated coefficients do not depend
    on the order."""
    return max(16, 1 << (n - 1).bit_length())


@lru_cache(maxsize=None)
def bernoulli_higher(n: int, l: int = 1) -> Rat:
    """B_n of order l, as n! [t^n] (t/(e^t-1))^l."""
    if n < 0 or l < 1:
        raise DomainError("bernoulli_higher needs n >= 0 and integer order l >= 1")
    return gf_bernoulli_higher(l, _order_through(n)).egf_coeff(n)


def bernoulli_classical(n: int) -> Rat:
    return bernoulli_higher(n, 1)


def bernoulli_higher_poly(n: int, l: int, x0: Rat) -> Rat:
    """B_n^{(l)}(x0) = sum_k C(n,k) B_k^{(l)} x0^{n-k}; for x0 = u/v one
    integer over L v^n, L the lcm of the denominators of B_0..B_n of order l."""
    u, v = _ratio(x0)
    return Fraction(_bernoulli_poly_num(n, l, u, v), _bernoulli_row(n, l)[0] * v**n)


@lru_cache(maxsize=None)
def _bernoulli_poly_num(n: int, l: int, u: int, v: int) -> int:
    return _appell_num(n, _bernoulli_row(n, l)[1].__getitem__, u, v)


@lru_cache(maxsize=None)
def _bernoulli_row(n: int, l: int) -> tuple[int, tuple[int, ...]]:
    """B_0^{(l)}..B_n^{(l)} as numerators over L, the lcm of their denominators."""
    den, nums = _numerators([bernoulli_higher(k, l) for k in range(n + 1)])
    return den, tuple(nums)


@lru_cache(maxsize=None)
def bernoulli_second_kind(n: int) -> Rat:
    """c_n = [t^n] of t/log(1+t)."""
    if n < 0:
        raise DomainError("bernoulli_second_kind needs n >= 0")
    return gf_bernoulli_second_kind(_order_through(n)).coeff(n)


# ---------------------------------------------------------------------------
# Apostol-Bernoulli numbers/polynomials of higher order (lam != 1)
# ---------------------------------------------------------------------------

def apostol_bernoulli_higher(n: int, l: int, lam: Rat) -> Rat:
    """Closed-sum route; zero for n < l, matching the t-adic valuation of the
    generating series (t/(lam e^t - 1))^l for lam != 1: l! C(n,l)
    w_{n-l,l}(-lam/(lam-1)) / (lam-1)^l, one integer over (p-q)^n for
    lam = p/q (_apostol_bernoulli_num)."""
    p, q = _ratio(lam)
    _check_apostol_bernoulli_domain(l, p, q)
    return Fraction(_apostol_bernoulli_num(n, l, p, q), (p - q) ** n)


def _check_apostol_bernoulli_domain(l: int, p: int, q: int) -> None:
    if p == q:
        raise DomainError("lambda=1 not in domain; use bernoulli-higher")
    if l < 1:
        raise DomainError("order l must be a positive integer")


@lru_cache(maxsize=None)
def _apostol_bernoulli_num(n: int, l: int, p: int, q: int) -> int:
    """The order-l Apostol-Bernoulli number at lam = p/q, times (p-q)^n."""
    if n < l:
        return 0
    return factorial(l) * binomial(n, l) * q**l * _geometric_num(n - l, l, 1, -p, p - q)


def apostol_bernoulli_poly(n: int, l: int, x0: Rat, lam: Rat) -> Rat:
    """sum_k C(n,k) B_k^{(l)}(lam) x0^(n-k), one integer over ((p-q) v)^n for
    x0 = u/v (_apostol_bernoulli_poly_num)."""
    (p, q), (u, v) = _ratio(lam), _ratio(x0)
    _check_apostol_bernoulli_domain(l, p, q)
    return Fraction(_apostol_bernoulli_poly_num(n, l, p, q, u, v), ((p - q) * v) ** n)


@lru_cache(maxsize=None)
def _apostol_bernoulli_poly_num(n: int, l: int, p: int, q: int, u: int, v: int) -> int:
    return _appell_num(n, lambda k: _apostol_bernoulli_num(k, l, p, q), (p - q) * u, v)


# ---------------------------------------------------------------------------
# Apostol-Euler numbers/polynomials of higher (rational) order
# ---------------------------------------------------------------------------
# Values factor as (2/(lam+1))^alpha * mantissa with rational mantissa; the
# mantissa functions are the workhorses, the public ones wrap in scaled().

def euler_prefactor_base(lam: Rat) -> Rat:
    p, q = _ratio(lam)
    _check_euler_pole(p, q)
    return Fraction(2 * q, p + q)


def _check_euler_pole(p: int, q: int) -> None:
    if p == -q:
        raise DomainError("lambda=-1 is a pole of the Euler-type families")


def apostol_euler_mantissa(n: int, alpha: Rat, lam: Rat) -> Rat:
    """M with E_n^{(a)}(lam) = (2/(lam+1))^a M; M = w_{n,a}(-lam/(lam+1)), the
    closed Stirling sum sum_k {n,k} a(a+1)...(a+k-1) (-lam/(lam+1))^k, one
    integer over d^n, d = b(p+q), for a = a/b and lam = p/q (_geometric_num)."""
    (a, b), (p, q) = _ratio(alpha), _ratio(lam)
    _check_euler_pole(p, q)
    return Fraction(_geometric_num(n, a, b, -p, p + q), (b * (p + q)) ** n)


def apostol_euler_poly_mantissa(n: int, alpha: Rat, x0: Rat, lam: Rat) -> Rat:
    """sum_k C(n,k) M_k x0^(n-k), one integer over (d v)^n for x0 = u/v
    (_euler_poly_num)."""
    (a, b), (p, q), (u, v) = _ratio(alpha), _ratio(lam), _ratio(x0)
    _check_euler_pole(p, q)
    return Fraction(_euler_poly_num(n, a, b, p, q, u, v), (b * (p + q) * v) ** n)


@lru_cache(maxsize=None)
def _euler_poly_num(n: int, a: int, b: int, p: int, q: int, u: int, v: int) -> int:
    return _appell_num(n, lambda k: _geometric_num(k, a, b, -p, p + q), b * (p + q) * u, v)


def apostol_euler_higher(n: int, alpha: Rat, lam: Rat):
    """E_n^{(a)}(lam); plain Fraction for integer a (or lam=1), else scaled."""
    return scaled(apostol_euler_mantissa(n, alpha, lam), euler_prefactor_base(lam), alpha)


def apostol_euler_poly(n: int, alpha: Rat, x0: Rat, lam: Rat):
    return scaled(apostol_euler_poly_mantissa(n, alpha, x0, lam), euler_prefactor_base(lam), alpha)


def euler_higher(n: int, alpha: Rat) -> Rat:
    """E_n of order a at lam=1, plainly rational for every rational a > 0."""
    return apostol_euler_mantissa(n, alpha, 1)


# ---------------------------------------------------------------------------
# generating-series builders (series route + CLI `series` subcommand)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def gf_exp_bell(x: Rat, order: int) -> Series:
    """e^{x(e^t - 1)}, from the coefficients 0, x/k! of x(e^t - 1)."""
    return Series([Fraction(x, factorial(k)) if k else 0 for k in range(order + 1)], order).exp()


@lru_cache(maxsize=None)
def gf_general_geometric(x: Rat, alpha: Rat, order: int) -> Series:
    """(1 - x(e^t - 1))^{-alpha} for any rational alpha, from the base's coefficients 1, -x/k!."""
    base = Series([Fraction(-x, factorial(k)) if k else 1 for k in range(order + 1)], order)
    return binomial_power(base, -Fraction(alpha))


@lru_cache(maxsize=None)
def gf_bernoulli_higher(l: int, order: int) -> Series:
    """(t/(e^t - 1))^l: ((e^t - 1)/t)^(-l), one binomial_power."""
    if l < 1:
        raise DomainError("order l must be a positive integer")
    return binomial_power(expm1_over_t(order), -l)


@lru_cache(maxsize=None)
def gf_apostol_bernoulli(l: int, lam: Rat, order: int) -> Series:
    """(t/(lam e^t - 1))^l for lam != 1: (1 - x(e^t - 1))^(-l) at x = -lam/(lam-1),
    over (lam-1)^l and shifted by l (to only zeros for l > order)."""
    _check_apostol_bernoulli_domain(l, *_ratio(lam))
    lam = Fraction(lam)
    scale = 1 / (lam - 1) ** l
    return Series([0] * l + [c * scale for c in gf_general_geometric(-lam / (lam - 1), l, order).coeffs], order)


@lru_cache(maxsize=None)
def gf_apostol_euler(alpha: int, lam: Rat, order: int) -> Series:
    """(2/(lam e^t + 1))^alpha for any integer alpha: (2/(lam+1))^alpha times
    (1 - x(e^t - 1))^(-alpha) at x = -lam/(lam+1)."""
    _check_euler_pole(*_ratio(lam))
    if not isinstance(alpha, int):
        raise DomainError("plain series route needs an integer alpha")
    lam = Fraction(lam)
    return gf_general_geometric(-lam / (lam + 1), alpha, order) * (2 / (lam + 1)) ** alpha


def gf_apostol_euler_mantissa(alpha: Rat, lam: Rat, order: int) -> Series:
    """((lam+1)/(lam e^t + 1))^alpha, whose EGF coefficients are the Euler
    mantissas M_n = w_{n,alpha}(-lam/(lam+1)) for any rational alpha: the
    general geometric series (1 - x(e^t - 1))^(-alpha) at x = -lam/(lam+1)."""
    _check_euler_pole(*_ratio(lam))
    return gf_general_geometric(-Fraction(lam) / (lam + 1), alpha, order)


@lru_cache(maxsize=None)
def gf_bernoulli_second_kind(order: int) -> Series:
    """t/log(1+t): the unit series log(1+t)/t to the power -1."""
    log_over_t = Series([Fraction((-1) ** k, k + 1) for k in range(order + 1)], order)
    return binomial_power(log_over_t, -1)


# ---------------------------------------------------------------------------
# family and generating-series registries for the CLI
# ---------------------------------------------------------------------------

def _parameter_keys(fn: Callable, drop: tuple[str, ...] = ()) -> tuple[str, ...]:
    """The keys fn reads: its parameters, lam as "lambda", less drop and a
    partial's bound arguments.  Read once per function, when it is registered."""
    return tuple("lambda" if p == "lam" else p for p in inspect.signature(fn).parameters if p not in drop)


@dataclass(frozen=True)
class Spec:
    build: Callable  # (n, *needs) for a family, (*needs, order) for a series
    needs: tuple[str, ...] = field(init=False)  # the builder's other parameters, in the order x, alpha, l, lambda

    def __post_init__(self):
        object.__setattr__(self, "needs", _parameter_keys(self.build, ("n", "order")))


def _lookup(registry: dict[str, Spec], kind: str, key: str, unknown: str, given: dict) -> tuple[Callable, list]:
    """The builder registered under key and the values of its needs, read
    from given by flag name; DomainError(unknown) for an unknown key, and a
    DomainError naming the flag of every need left None."""
    spec = registry.get(key)
    if spec is None:
        raise DomainError(unknown)
    missing = [p for p in spec.needs if given[p] is None]
    if missing:
        raise DomainError(f"{kind} {key} needs --{' --'.join(missing)}")
    return spec.build, [given[p] for p in spec.needs]


# each builder calls its family function by module-global name, so that a
# rebound global (a tracing wrapper, say) is what the CLI runs
FAMILIES: dict[str, Spec] = {
    "exponential-poly": Spec(lambda n: exponential_poly(n)),
    "bell": Spec(lambda n: bell(n)),
    "complementary-bell": Spec(lambda n: complementary_bell(n)),
    "geometric-poly": Spec(lambda n: geometric_poly(n)),
    "fubini": Spec(lambda n: fubini(n)),
    "general-geometric": Spec(lambda n, alpha: general_geometric(n, alpha)),
    "euler-classical": Spec(lambda n: euler_classical(n)),
    "euler-higher": Spec(lambda n, alpha: euler_higher(n, alpha)),
    "apostol-euler": Spec(lambda n, lam: apostol_euler_higher(n, 1, lam)),
    "apostol-euler-higher": Spec(lambda n, alpha, lam: apostol_euler_higher(n, alpha, lam)),
    "bernoulli-classical": Spec(lambda n: bernoulli_classical(n)),
    "bernoulli-higher": Spec(lambda n, l: bernoulli_higher(n, l)),
    "apostol-bernoulli": Spec(lambda n, lam: apostol_bernoulli_higher(n, 1, lam)),
    "apostol-bernoulli-higher": Spec(lambda n, l, lam: apostol_bernoulli_higher(n, l, lam)),
    "bernoulli-second-kind": Spec(lambda n: bernoulli_second_kind(n)),
    "stirling2": Spec(lambda n: _SECOND.row(n)),
    "stirling1-unsigned": Spec(lambda n: _FIRST.row(n)),
}


def family_value(fid: str, n: int, *, alpha: Rat | None = None, l: int | None = None, lam: Rat | None = None):
    """Value of family `fid` at index n; Poly, Fraction, ScaledRational, or
    tuple of ints for triangle rows.  DomainError for an unknown id or a
    parameter the family needs left None."""
    build, values = _lookup(FAMILIES, "family", fid, f"unknown family id: {fid.strip() or '(empty)'}",
                            {"alpha": alpha, "l": l, "lambda": lam})
    return build(n, *values)


def _apostol_euler_series(alpha: Rat, lam: Rat, order: int):
    """The plain series for integer alpha; otherwise the mantissa series and
    the prefactor (2/(lam+1))^alpha it leaves out."""
    if alpha.denominator == 1:
        return gf_apostol_euler(int(alpha), lam, order), None
    return gf_apostol_euler_mantissa(alpha, lam, order), scaled(1, euler_prefactor_base(lam), alpha)


SERIES: dict[str, Spec] = {
    "exp-bell": Spec(lambda x, order: (gf_exp_bell(x, order), None)),
    "geometric": Spec(lambda x, order: (gf_general_geometric(x, 1, order), None)),
    "general-geometric": Spec(lambda x, alpha, order: (gf_general_geometric(x, alpha, order), None)),
    "apostol-euler": Spec(_apostol_euler_series),
    "apostol-bernoulli": Spec(lambda l, lam, order: (gf_apostol_bernoulli(l, lam, order), None)),
    "bernoulli-higher": Spec(lambda l, order: (gf_bernoulli_higher(l, order), None)),
    "bernoulli-second-kind": Spec(lambda order: (gf_bernoulli_second_kind(order), None)),
}


def series_value(gid: str, order: int, *, x: Rat | None = None, alpha: Rat | None = None,
                 l: int | None = None, lam: Rat | None = None):
    """Generating series `gid` truncated at `order`, and its prefactor (a
    ScaledRational or Fraction held outside the series, or None).
    DomainError for an unknown id or a parameter the series needs left None."""
    build, values = _lookup(SERIES, "series", gid,
                            f"unknown generating series id {gid!r}; choose from {', '.join(SERIES)}",
                            {"x": x, "alpha": alpha, "l": l, "lambda": lam})
    return build(*values, order)
