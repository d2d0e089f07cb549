"""Brute-force reference implementations used only as test oracles.

Everything here is deliberately naive (enumeration, defining recurrences,
polynomial integration) and independent of the package's computation paths.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import comb, factorial


def set_partitions(n: int):
    """Yield every partition of {0..n-1} as a list of blocks."""
    if n == 0:
        yield []
        return
    for part in set_partitions(n - 1):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [n - 1]] + part[i + 1 :]
        yield part + [[n - 1]]


def stirling2_row_by_enumeration(n: int) -> list[int]:
    row = [0] * (n + 1)
    for part in set_partitions(n):
        row[len(part)] += 1
    return row


def bell_by_enumeration(n: int) -> int:
    return sum(1 for _ in set_partitions(n))


def fubini_by_enumeration(n: int) -> int:
    """Count ordered set partitions by enumerating each block ordering."""
    total = 0
    for part in set_partitions(n):
        total += sum(1 for _ in permutations(range(len(part))))
    return total


def cycle_count(perm: tuple[int, ...]) -> int:
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycles += 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
    return cycles


def stirling1_row_by_enumeration(n: int) -> list[int]:
    row = [0] * (n + 1)
    for perm in permutations(range(n)):
        row[cycle_count(perm)] += 1
    if n == 0:
        row[0] = 1
    return row


def bernoulli_by_recurrence(n: int) -> list[Fraction]:
    """B_0..B_n from sum_{k<=m} C(m+1, k) B_k = 0 (so B_1 = -1/2)."""
    out = [Fraction(1)]
    for m in range(1, n + 1):
        acc = sum((comb(m + 1, k) * out[k] for k in range(m)), Fraction(0))
        out.append(-acc / (m + 1))
    return out


def bernoulli_higher_by_convolution(n: int, l: int) -> Fraction:
    """B_n^{(l)} by repeated binomial convolution of the order-1 values."""
    base = bernoulli_by_recurrence(n)
    values = list(base)
    for _ in range(l - 1):
        values = [
            sum((comb(k, j) * values[j] * base[k - j] for j in range(k + 1)), Fraction(0))
            for k in range(n + 1)
        ]
    return values[n]


def gregory_by_integration(n: int) -> Fraction:
    """c_n = integral over [0,1] of x(x-1)...(x-n+1)/n!, done exactly."""
    coeffs = [Fraction(1)]  # falling factorial, low degree first
    for i in range(n):
        coeffs = [Fraction(0)] + coeffs
        for d in range(len(coeffs) - 1):
            coeffs[d] -= i * coeffs[d + 1]
    total = sum(c / (d + 1) for d, c in enumerate(coeffs))
    return total / factorial(n)


def euler_zero_values(n: int) -> list[Fraction]:
    """E_k(0) for k <= n from the defining relation E_k(0) + E_k(1) = 2*0^k,
    combined with E_k(1) = E_k(0) + sum C(k,j) E_j(0) (binomial shift)."""
    out: list[Fraction] = []
    for k in range(n + 1):
        if k == 0:
            out.append(Fraction(1))
            continue
        # 2*E_k(0) = -sum_{j<k} C(k,j) E_j(0)
        out.append(-sum((comb(k, j) * out[j] for j in range(k)), Fraction(0)) / 2)
    return out


def convolve_coeffs(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1 or 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# -- naive Fraction kernels: the O(n^2) closed sums and O(n^3) series powers --

def stirling2_by_recurrence(n: int) -> list[int]:
    """Row n of {n, k} from {n, k} = k {n-1, k} + {n-1, k-1}."""
    row = [1]
    for m in range(1, n + 1):
        row = [(k * row[k] if k < m else 0) + (row[k - 1] if k else 0) for k in range(m + 1)]
    return row


def gen_binomial_by_product(r: Fraction, k: int) -> Fraction:
    """C(r, k) as a Fraction falling product over k!."""
    num = Fraction(1)
    for i in range(k):
        num *= Fraction(r) - i
    return num / factorial(k)


def general_geometric_coeffs_naive(n: int, alpha: Fraction) -> list[Fraction]:
    """Coefficients {n,k} C(a+k-1, k) k! of w_{n,a}(x)."""
    row = stirling2_by_recurrence(n)
    return [row[k] * gen_binomial_by_product(alpha + k - 1, k) * factorial(k) for k in range(n + 1)]


def apostol_euler_mantissa_naive(n: int, alpha: Fraction, lam: Fraction) -> Fraction:
    """sum_k {n,k} C(a+k-1, k) k! (-lam)^k / (lam+1)^k, term by term."""
    row = stirling2_by_recurrence(n)
    return sum(
        (row[k] * gen_binomial_by_product(alpha + k - 1, k) * factorial(k) * (-lam) ** k / (lam + 1) ** k
         for k in range(n + 1)),
        Fraction(0),
    )


def apostol_bernoulli_higher_naive(n: int, l: int, lam: Fraction) -> Fraction:
    """l! C(n,l) sum_k {n-l,k} C(l+k-1, k) k! (-lam)^k / (lam-1)^(l+k), term by term."""
    if n < l:
        return Fraction(0)
    row = stirling2_by_recurrence(n - l)
    acc = sum(
        (row[k] * gen_binomial_by_product(Fraction(l + k - 1), k) * factorial(k) * (-lam) ** k
         / (lam - 1) ** (l + k) for k in range(n - l + 1)),
        Fraction(0),
    )
    return factorial(l) * comb(n, l) * acc


def _powers_of(u: list[Fraction]):
    """u^0, u^1, ..., u^order of a coefficient list, truncated at its order."""
    order = len(u) - 1
    p = [Fraction(1)] + [Fraction(0)] * order
    for _ in range(order + 1):
        yield p
        p = convolve_coeffs(p, u)[: order + 1]


def binomial_power_by_sum(a: list[Fraction], r: Fraction) -> list[Fraction]:
    """(1 + u)^r = sum_j C(r, j) u^j for a = 1 + u, truncated at a's order."""
    u = [Fraction(0)] + list(a[1:])
    out = [Fraction(0)] * len(a)
    for j, p in enumerate(_powers_of(u)):
        c = gen_binomial_by_product(r, j)
        out = [o + c * v for o, v in zip(out, p)]
    return out


def exp_by_sum(u: list[Fraction]) -> list[Fraction]:
    """exp(u) = sum_j u^j / j! for u with zero constant term."""
    out = [Fraction(0)] * len(u)
    for j, p in enumerate(_powers_of(list(u))):
        out = [o + v / factorial(j) for o, v in zip(out, p)]
    return out
