"""Independent reference values for the polyfam families.

Standard library only; nothing here imports polyfam.  Every family is reached
by a route the package does not use:

- Stirling numbers of the second kind by the explicit alternating sum, and of
  the first kind by inverting that triangle (sum_k s(n,k) {k,m} = [n = m]);
- Bell numbers by the Bell (Aitken) triangle, Touchard and geometric
  polynomial values by their exponential-generating-function recurrences,
  ordered Bell numbers by their defining recurrence;
- Bernoulli numbers by their defining recurrence, higher orders by binomial
  convolution, Euler values E_n(0) from the Bernoulli numbers;
- Gregory coefficients by exact integration of the falling factorial;
- Apostol-Bernoulli and Apostol-Euler values by solving their defining
  generating-function relations coefficient by coefficient, with J.C.P.
  Miller's power recurrence for rational orders.

Series here are lists of ordinary power-series coefficients (t^n), and an
exponential value is n! times the coefficient of t^n.
"""

from __future__ import annotations

from fractions import Fraction as F
from math import comb, factorial
from operator import mul


# ---------------------------------------------------------------------------
# Stirling triangles
# ---------------------------------------------------------------------------

def stirling2_rows(depth: int) -> list[list[int]]:
    """Rows 0..depth of {n, k} = (1/k!) sum_j (-1)^(k-j) C(k, j) j^n."""
    signed_binomials = [[(-1) ** (k - j) * comb(k, j) for j in range(k + 1)] for k in range(depth + 1)]
    powers = [1] * (depth + 1)  # powers[j] = j^n for the current n
    rows = []
    for n in range(depth + 1):
        row = []
        for k in range(n + 1):
            total = sum(map(mul, signed_binomials[k], powers))
            value, rest = divmod(total, factorial(k))
            if rest:
                raise ArithmeticError(f"alternating sum for {{{n},{k}}} is not divisible by {k}!")
            row.append(value)
        rows.append(row)
        powers = [j ** (n + 1) for j in range(depth + 1)]
    return rows


def stirling1_unsigned_rows(second: list[list[int]]) -> list[list[int]]:
    """Rows of [n, k] from the inverse of the second-kind triangle."""
    depth = len(second) - 1
    columns = [[second[k][m] for k in range(depth + 1) if k >= m] for m in range(depth + 1)]
    rows = []
    for n in range(depth + 1):
        signed = [0] * (n + 1)
        signed[n] = 1
        for m in range(n - 1, -1, -1):
            # columns[m][i] = {m + i, m}
            signed[m] = -sum(map(mul, signed[m + 1:n + 1], columns[m][1:n - m + 1]))
        rows.append([(-1) ** (n - k) * s for k, s in enumerate(signed)])
    return rows


# ---------------------------------------------------------------------------
# Bell, Touchard, geometric
# ---------------------------------------------------------------------------

def bell_numbers(count: int) -> list[int]:
    """B_0..B_count from the Bell triangle: each row starts with the last
    entry of the row above, and each entry adds its left and upper-left."""
    row, out = [1], [1]
    for _ in range(count):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
        out.append(row[0])
    return out


def touchard_values(x: F, count: int) -> list[F]:
    """T_n(x) for n <= count from T_{n+1} = x sum_k C(n, k) T_k."""
    out = [F(1)]
    for n in range(count):
        out.append(x * sum(comb(n, k) * out[k] for k in range(n + 1)))
    return out


def geometric_values(x: F, count: int) -> list[F]:
    """w_n(x) for n <= count from w_n = x sum_{k>=1} C(n, k) w_{n-k}, which is
    1/(1 - x(e^t - 1)) solved coefficient by coefficient."""
    out = [F(1)]
    for n in range(1, count + 1):
        out.append(x * sum(comb(n, k) * out[n - k] for k in range(1, n + 1)))
    return out


def fubini_numbers(count: int) -> list[int]:
    """Ordered Bell numbers: a(0) = 1, a(n) = sum_{k>=1} C(n, k) a(n - k)."""
    out = [1]
    for n in range(1, count + 1):
        out.append(sum(comb(n, k) * out[n - k] for k in range(1, n + 1)))
    return out


def rising(alpha: F, k: int) -> F:
    out = F(1)
    for i in range(k):
        out *= alpha + i
    return out


def general_geometric_coeffs(second: list[list[int]], n: int, alpha: F) -> list[F]:
    """Coefficients of w_{n,alpha}(x) = sum_k {n, k} alpha^(k rising) x^k."""
    return [second[n][k] * rising(alpha, k) for k in range(n + 1)]


# ---------------------------------------------------------------------------
# power series helpers
# ---------------------------------------------------------------------------

def power_series(u: list[F], alpha: F) -> list[F]:
    """u^alpha for u[0] = 1 and rational alpha, by Miller's recurrence
    n f_n = sum_{k=1}^{n} ((alpha + 1) k - n) u_k f_{n-k}."""
    if u[0] != 1:
        raise ValueError("Miller's recurrence here needs constant term 1")
    f = [F(1)]
    for n in range(1, len(u)):
        f.append(sum(((alpha + 1) * k - n) * u[k] * f[n - k] for k in range(1, n + 1)) / n)
    return f


def egf_values(series: list[F]) -> list[F]:
    return [factorial(n) * c for n, c in enumerate(series)]


def binomial_convolution(a: list[F], b: list[F]) -> list[F]:
    """Product of two exponential generating functions, given by values."""
    return [sum(comb(n, k) * a[k] * b[n - k] for k in range(n + 1)) for n in range(min(len(a), len(b)))]


# ---------------------------------------------------------------------------
# Bernoulli, Euler, Gregory
# ---------------------------------------------------------------------------

def bernoulli_numbers(count: int) -> list[F]:
    """B_0..B_count from sum_{k=0}^{n} C(n+1, k) B_k = 0 (so B_1 = -1/2)."""
    out = [F(1)]
    for n in range(1, count + 1):
        out.append(-sum(comb(n + 1, k) * out[k] for k in range(n)) / (n + 1))
    return out


def bernoulli_higher_numbers(order: int, count: int) -> list[F]:
    """B_n^(order) for n <= count: the order-fold binomial convolution of B."""
    base = bernoulli_numbers(count)
    out = base
    for _ in range(order - 1):
        out = binomial_convolution(out, base)
    return out


def euler_zero_values(count: int) -> list[F]:
    """E_n(0) = -2 (2^(n+1) - 1) B_{n+1} / (n + 1)."""
    b = bernoulli_numbers(count + 1)
    return [-2 * (2 ** (n + 1) - 1) * b[n + 1] / (n + 1) for n in range(count + 1)]


def gregory_coefficients(count: int) -> list[F]:
    """c_n = (1/n!) integral_0^1 x(x-1)...(x-n+1) dx."""
    out = []
    poly = [F(1)]  # falling factorial x(x-1)...(x-n+1), low degree first
    for n in range(count + 1):
        out.append(sum(c / (k + 1) for k, c in enumerate(poly)) / factorial(n))
        # multiply by (x - n)
        poly = [(poly[k - 1] if k else 0) - n * (poly[k] if k < len(poly) else 0) for k in range(len(poly) + 1)]
    return out


def apostol_bernoulli_values(order: int, lam: F, count: int) -> list[F]:
    """B_n^(order)(lam) for n <= count and lam != 1.

    Order one solves (lam e^t - 1) g = t coefficient by coefficient; higher
    orders are binomial convolutions of order one.
    """
    lam = F(lam)
    if lam == 1:
        raise ValueError("Apostol-Bernoulli needs lambda != 1")
    c = [lam - 1] + [lam / factorial(k) for k in range(1, count + 1)]
    g: list[F] = []
    for n in range(count + 1):
        rhs = F(1 if n == 1 else 0) - sum(c[k] * g[n - k] for k in range(1, n + 1))
        g.append(rhs / c[0])
    first = egf_values(g)
    out = first
    for _ in range(order - 1):
        out = binomial_convolution(out, first)
    return out


def apostol_euler_mantissas(alpha: F, lam: F, count: int) -> list[F]:
    """M_n with E_n^(alpha)(lam) = (2/(lam+1))^alpha M_n, for n <= count.

    u = (lam+1)/(lam e^t + 1) is solved from (lam e^t + 1) u = lam + 1, then
    raised to the power alpha by Miller's recurrence.
    """
    lam = F(lam)
    if lam == -1:
        raise ValueError("Apostol-Euler needs lambda != -1")
    a = [lam + 1] + [lam / factorial(k) for k in range(1, count + 1)]
    u = [F(1)]
    for n in range(1, count + 1):
        u.append(-sum(a[k] * u[n - k] for k in range(1, n + 1)) / a[0])
    return egf_values(power_series(u, F(alpha)))


def general_geometric_values(x: F, alpha: F, count: int) -> list[F]:
    """w_{n,alpha}(x) for n <= count: (1 - x(e^t - 1))^(-alpha) by Miller."""
    u = [F(1)] + [-F(x) / factorial(k) for k in range(1, count + 1)]
    return egf_values(power_series(u, -F(alpha)))


# ---------------------------------------------------------------------------
# exact real powers m * b^e with rational b > 0 and e
# ---------------------------------------------------------------------------

def iroot(v: int, k: int) -> int | None:
    """The exact k-th root of v >= 0, or None when v is not a k-th power."""
    lo, hi = 0, 1
    while hi ** k <= v:
        hi *= 2
    while lo < hi - 1:
        mid = (lo + hi) // 2
        if mid ** k <= v:
            lo = mid
        else:
            hi = mid
    return lo if lo ** k == v else None


def rational_power(base: F, exponent: F) -> F | None:
    """base^exponent when it is rational (base > 0), else None."""
    root_num, root_den = iroot(base.numerator, exponent.denominator), iroot(base.denominator, exponent.denominator)
    if root_num is None or root_den is None:
        return None
    return F(root_num, root_den) ** exponent.numerator


def same_real(a: tuple[F, F, F], b: tuple[F, F, F]) -> bool:
    """Exact test of m1 * b1^e1 == m2 * b2^e2 for positive bases."""
    (m1, b1, e1), (m2, b2, e2) = a, b
    if b1 <= 0 or b2 <= 0:
        raise ValueError("real powers need positive bases")
    if m1 == 0 or m2 == 0:
        return m1 == m2
    if (m1 > 0) != (m2 > 0):
        return False
    d = e1.denominator * e2.denominator
    # raise both sides to the power d, which makes every exponent an integer
    return (m1 ** d) * b1 ** int(e1 * d) == (m2 ** d) * b2 ** int(e2 * d)


# ---------------------------------------------------------------------------
# self-check against published small values
# ---------------------------------------------------------------------------

PUBLISHED = {
    # OEIS A000110
    "bell": [1, 1, 2, 5, 15, 52, 203, 877, 4140],
    # OEIS A000670
    "fubini": [1, 1, 3, 13, 75, 541, 4683],
    # OEIS A000587 (Uppuluri-Carpenter numbers)
    "complementary-bell": [1, -1, 0, 1, 1, -2, -9, -9, 50, 267],
    "bernoulli": [F(1), F(-1, 2), F(1, 6), F(0), F(-1, 30), F(0), F(1, 42)],
    # Noerlund: B_n^(2)
    "bernoulli-order-2": [F(1), F(-1), F(5, 6), F(-1, 2), F(1, 10)],
    # OEIS A002206 / A002207
    "gregory": [F(1), F(1, 2), F(-1, 12), F(1, 24), F(-19, 720), F(3, 160)],
    # Euler polynomials at zero, E_n(0)
    "euler-zero": [F(1), F(-1, 2), F(0), F(1, 4), F(0), F(-1, 2)],
    "stirling2-row-5": [0, 1, 15, 25, 10, 1],
    "stirling1-row-5": [0, 24, 50, 35, 10, 1],
}


def self_check() -> list[str]:
    """Compare the reference code with published values; returns mismatches."""
    second = stirling2_rows(6)
    got = {
        "bell": bell_numbers(8),
        "fubini": fubini_numbers(6),
        "complementary-bell": touchard_values(F(-1), 9),
        "bernoulli": bernoulli_numbers(6),
        "bernoulli-order-2": bernoulli_higher_numbers(2, 4),
        "gregory": gregory_coefficients(5),
        "euler-zero": euler_zero_values(5),
        "stirling2-row-5": second[5],
        "stirling1-row-5": stirling1_unsigned_rows(second)[5],
    }
    problems = [f"{name}: {got[name]} != {want}" for name, want in PUBLISHED.items() if list(got[name]) != want]
    # the routes must agree with each other where they overlap
    cross = {
        "touchard(1) vs bell triangle": (touchard_values(F(1), 8), bell_numbers(8)),
        "geometric(1) vs fubini": (geometric_values(F(1), 6), fubini_numbers(6)),
        "apostol-euler(1, 1) vs E_n(0)": (apostol_euler_mantissas(F(1), F(1), 5), euler_zero_values(5)),
        "apostol-euler order 2 vs convolution": (
            apostol_euler_mantissas(F(2), F(2), 6),
            binomial_convolution(apostol_euler_mantissas(F(1), F(2), 6), apostol_euler_mantissas(F(1), F(2), 6)),
        ),
        "apostol-euler order 1/2 squared": (
            binomial_convolution(apostol_euler_mantissas(F(1, 2), F(1, 3), 6),
                                 apostol_euler_mantissas(F(1, 2), F(1, 3), 6)),
            apostol_euler_mantissas(F(1), F(1, 3), 6),
        ),
        "apostol-bernoulli B_1(lam) = 1/(lam-1)": (apostol_bernoulli_values(1, F(5), 1), [F(0), F(1, 4)]),
        "general geometric order 1 vs geometric": (general_geometric_values(F(2, 3), F(1), 6),
                                                   geometric_values(F(2, 3), 6)),
        "general geometric coefficients vs values": (
            [sum(c * F(2, 3) ** k for k, c in enumerate(general_geometric_coeffs(second, n, F(5, 2))))
             for n in range(7)],
            general_geometric_values(F(2, 3), F(5, 2), 6),
        ),
    }
    problems += [f"{name}: {a} != {b}" for name, (a, b) in cross.items() if list(a) != list(b)]
    return problems


if __name__ == "__main__":
    issues = self_check()
    print("\n".join(issues) if issues else "reference self-check: ok")
    raise SystemExit(1 if issues else 0)
