"""Truncated formal power series in t over exact rationals.

Every series carries its truncation order explicitly: coefficients are exact
through t^order and unknown beyond it.  Arithmetic between two series is only
claimed up to the smaller of the two orders, so precision never inflates
silently.

A product convolves integer numerators, each operand scaled to the lcm of its
denominators, and builds one Fraction per output coefficient (Knuth, TAOCP
Vol. 2, 4.7).  exp, binomial_power and inverse (binomial_power at r = -1) solve
one equation, (s + q u) f' = p u' f, in _egf_recurrence: a base 1 + A(e^t - 1) or
A(e^t - 1) takes a forward-difference table, one pass a step, and every other
base takes Miller's recurrence (ibid.), each step one integer over the lcm of its terms.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import factorial, lcm
from operator import mul, sub
from typing import Iterable, Sequence

from .rationals import DomainError, rational_str, sum_over_lcm


class Series:
    __slots__ = ("_order", "_c")

    def __init__(self, coeffs: Iterable[Fraction | int], order: int | None = None):
        c = [v if type(v) is Fraction else Fraction(v) for v in coeffs]
        if order is None:
            order = len(c) - 1
        if order < 0:
            raise ValueError("series order must be >= 0")
        c = (c + [Fraction(0)] * (order + 1))[: order + 1]
        self._order = order
        self._c = tuple(c)

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero(order: int) -> "Series":
        return Series((), order)

    @staticmethod
    def one(order: int) -> "Series":
        return Series((1,), order)

    @staticmethod
    def constant(c: Fraction | int, order: int) -> "Series":
        return Series((c,), order)

    @staticmethod
    def t(order: int) -> "Series":
        return Series((0, 1), order)

    @staticmethod
    def exp_t(c: Fraction | int, order: int) -> "Series":
        """e^{c t} truncated."""
        c = Fraction(c)
        return Series([c**n / factorial(n) for n in range(order + 1)], order)

    # -- accessors ----------------------------------------------------
    @property
    def order(self) -> int:
        return self._order

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._c

    def coeff(self, n: int) -> Fraction:
        if not 0 <= n <= self._order:
            raise IndexError(f"coefficient {n} beyond valid order {self._order}")
        return self._c[n]

    def egf_coeff(self, n: int) -> Fraction:
        """n! * [t^n], the value the series encodes in exponential form."""
        return factorial(n) * self.coeff(n)

    # -- ring operations ----------------------------------------------
    def _common(self, other: "Series") -> int:
        return min(self._order, other._order)

    def __add__(self, other: "Series | Fraction | int") -> "Series":
        if isinstance(other, (int, Fraction)):
            other = Series.constant(other, self._order)
        n = self._common(other)
        return Series([self._c[i] + other._c[i] for i in range(n + 1)], n)

    def __neg__(self) -> "Series":
        return Series([-c for c in self._c], self._order)

    def __sub__(self, other: "Series | Fraction | int") -> "Series":
        if isinstance(other, (int, Fraction)):
            other = Series.constant(other, self._order)
        return self + (-other)

    def __mul__(self, other: "Series | Fraction | int") -> "Series":
        if isinstance(other, (int, Fraction)):
            return Series([c * other for c in self._c], self._order)
        n = self._common(other)
        da, a = _numerators(self._c[: n + 1])
        db, b = _numerators(other._c[n::-1])  # reversed: b[n - j] is coefficient j
        den = da * db
        return Series([Fraction(sum(map(mul, a[: i + 1], b[n - i :])), den) for i in range(n + 1)], n)

    def __pow__(self, e: int) -> "Series":
        if e < 0:
            return self.inverse() ** (-e)
        out = Series.one(self._order)
        base = self
        while e:
            if e & 1:
                out = out * base
            if e > 1:
                base = base * base
            e >>= 1
        return out

    def inverse(self) -> "Series":
        """Multiplicative inverse; requires a nonzero constant term: binomial_power
        at r = -1 of the series scaled to constant term 1."""
        if self._c[0] == 0:
            raise DomainError("series with zero constant term has no inverse")
        unit = 1 / self._c[0]
        return binomial_power(self * unit, -1) * unit

    def exp(self) -> "Series":
        """exp(u), u_0 = 0, in O(order^2): f' = u'f, _egf_recurrence at p, q, s = 1, 0, 1."""
        if self._c[0] != 0:
            raise DomainError("series exponential needs a zero constant term")
        return Series(_egf_recurrence(self._c, 1, 0, 1), self._order)

    def derivative(self) -> "Series":
        if self._order == 0:
            return Series.zero(0)
        return Series([i * self._c[i] for i in range(1, self._order + 1)], self._order - 1)

    # -- equality and rendering ----------------------------------------
    def __eq__(self, other: object) -> bool:
        return isinstance(other, Series) and self._order == other._order and self._c == other._c

    def coeff_strings(self) -> list[str]:
        return [rational_str(c) for c in self._c]

    def __str__(self) -> str:
        parts = []
        for n, c in enumerate(self._c):
            if n == 0:
                parts.append(rational_str(c))
            elif c:
                var = "t" if n == 1 else f"t^{n}"
                parts.append(f"{rational_str(c)} {var}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Series(order={self._order}, {self})"


def _numerators(coeffs: tuple[Fraction, ...]) -> tuple[int, list[int]]:
    """The lcm L of the denominators, and each coefficient times L."""
    den = lcm(*(c.denominator for c in coeffs))
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


def _egf_recurrence(coeffs: tuple[Fraction, ...], p: int, q: int, s: int) -> list[Fraction]:
    """f_0..f_order solving (s + q u) f' = p u' f with f_0 = 1, u the terms k >= 1 of coeffs.
    Step i is Miller's, f_i = sum_{k=1..i} ((p+q)k - qi) c_k f_{i-k}/(s i), one integer over
    the lcm of its terms.  If every EGF number k! c_k past k = 0 is one A/L (n_k k! d_1 =
    n_1 d_k, tested up to the first mismatch), _difference_table runs it instead."""
    pairs = list(map(Fraction.as_integer_ratio, coeffs))
    if len(pairs) > 1:
        a, den = pairs[1]
        if all(n * factorial(k) * den == a * d for k, (n, d) in enumerate(pairs[2:], 2)):
            return _difference_table(len(pairs) - 1, p * a, s * den - q * a, s * den)
    out, f = [Fraction(1)], []
    for i in range(1, len(pairs)):
        f.append(out[-1].as_integer_ratio())
        terms = zip(range(i, 0, -1), pairs[i:0:-1], f)  # (k, c_k, f_{i-k}) for k = i..1
        out.append(sum_over_lcm((((p + q) * k - q * i) * cn * fn, s * i * cd * fd) for k, (cn, cd), (fn, fd) in terms))
    return out


def _difference_table(order: int, g: int, h: int, den: int) -> list[Fraction]:
    """f_0..f_order for u = A(e^t - 1)/L.  (s + q u) f' = p u' f times L e^(-t) reads
    D F_{n+1} = g F_n + h sum(d) in EGF numbers, den = D, g = pA, h = D - qA, for d the last
    anti-diagonal of the forward-difference table of F_1..F_n, newest first (Graham, Knuth &
    Patashnik, Concrete Mathematics, 5.3); each F_n is kept times D^order, an integer."""
    f, d = [den**order], []
    for _ in range(order):
        f.append((g * f[-1] + h * sum(d)) // den)
        d = [*accumulate((f[-1], *d), sub)]
    return [Fraction(n, f[0] * factorial(i)) for i, n in enumerate(f)]


def linear_combination(weights: Sequence[Fraction | int], terms: Sequence[Series], n: int) -> Series:
    """sum_k w_k s_k truncated at order n <= every s_k's order: one integer
    sum per coefficient over the lcm of every w_k s_k denominator."""
    parts = [(w.as_integer_ratio(), _numerators(s.coeffs[: n + 1])) for w, s in zip(weights, terms) if w]
    den = lcm(*(wd * d for (_, wd), (d, _) in parts))
    scaled = [(wn * (den // (wd * d)), nums) for (wn, wd), (d, nums) in parts]
    return Series([Fraction(sum(w * nums[i] for w, nums in scaled), den) for i in range(n + 1)], n)


def binomial_power(a: Series, r: Fraction | int) -> Series:
    """(1 + u)^r for a = 1 + u with any rational exponent r.

    The base must have constant term exactly 1; callers with a different unit
    constant factor it out first (a rational power of a general constant is
    not rational, so it cannot live inside this module).

    J.C.P. Miller's recurrence (Knuth, TAOCP Vol. 2, 4.7), O(order^2): a f' = r a' f
    gives i f_i = sum_{k=1..i} (k(r+1) - i) a_k f_{i-k}, _egf_recurrence at p, q, s = p, q, q
    for r = p/q.  A base 1 + A(e^t - 1)/L takes _difference_table; every other base takes
    the per-step loop.  Series.inverse is this at r = -1.
    """
    if a.coeffs[0] != 1:
        raise DomainError("binomial_power needs constant term 1 (normalize first)")
    p, q = Fraction(r).as_integer_ratio()
    return Series(_egf_recurrence(a.coeffs, p, q, q), a.order)


def expm1_over_t(order: int) -> Series:
    """(e^t - 1)/t = sum_k t^k/(k+1)! truncated."""
    return Series([Fraction(1, factorial(k + 1)) for k in range(order + 1)], order)
