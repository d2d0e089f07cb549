"""Dense univariate polynomials over exact rationals.

Coefficients are stored low degree first with no trailing zeros (the zero
polynomial is the empty tuple).  Values are immutable; every operation
returns a new polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable

from .rationals import _ratio, rational_str


def _strip(coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class Poly:
    __slots__ = ("_c",)

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        self._c = _strip([Fraction(c) for c in coeffs])

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def one() -> "Poly":
        return Poly((1,))

    @staticmethod
    def x() -> "Poly":
        return Poly((0, 1))

    @staticmethod
    def monomial(k: int, coeff: Fraction | int = 1) -> "Poly":
        if k < 0:
            raise ValueError("monomial degree must be >= 0")
        return Poly([0] * k + [coeff])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._c

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self._c) - 1

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self._c):
            return self._c[k]
        return Fraction(0)

    def __add__(self, other: "Poly | Fraction | int") -> "Poly":
        other = _as_poly(other)
        n = max(len(self._c), len(other._c))
        return Poly([self.coeff(i) + other.coeff(i) for i in range(n)])

    def __mul__(self, other: "Poly | Fraction | int") -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self._c])
        out = [Fraction(0)] * (len(self._c) + len(other._c))
        for i, a in enumerate(self._c):
            if a:
                for j, b in enumerate(other._c):
                    if b:
                        out[i + j] += a * b
        return Poly(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self._c == other._c

    def __call__(self, v: Fraction | int) -> Fraction:
        """Exact Horner evaluation in integers: for v = u/w and den the lcm of
        the coefficient denominators, sum_k (c_k den) u^k w^(d-k) over
        den w^d, made a Fraction once."""
        u, w = _ratio(v)
        den = lcm(*(c.denominator for c in self._c))
        acc, wk = 0, 1  # wk = w^(d-k)
        for c in reversed(self._c):
            acc = acc * u + c.numerator * (den // c.denominator) * wk
            wk *= w
        return Fraction(acc, den * w ** max(self.degree, 0))

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self._c)][1:])

    def coeff_strings(self) -> list[str]:
        return [rational_str(c) for c in self._c]

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts: list[str] = []
        for i, c in enumerate(self._c):
            if c == 0:
                continue
            if i == 0:
                term = rational_str(c)
            else:
                mag = abs(c)
                var = "x" if i == 1 else f"x^{i}"
                term = var if mag == 1 else f"{rational_str(mag)}{var}"
                term = ("-" if c < 0 else "") + term
            if parts and not term.startswith("-"):
                parts.append("+" + term)
            else:
                parts.append(term)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"


def _as_poly(v: "Poly | Fraction | int") -> Poly:
    if isinstance(v, Poly):
        return v
    return Poly((Fraction(v),))

