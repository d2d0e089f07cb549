"""Brute-force reference implementations used only as test oracles.

Everything here is deliberately naive (enumeration, defining recurrences,
polynomial integration) and independent of the package's computation paths,
except the library helpers that only the tests use (transforms, truncation,
Horner evaluation at a series) and the old checker bodies at the end, which
read the package's families.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import comb, factorial

from polyfam import families as fam
from polyfam.identities import GridConfig, SkipDomain
from polyfam.poly import Poly
from polyfam.rationals import sum_over_lcm
from polyfam.series import Series, binomial_power
from polyfam.stirling import stirling1_unsigned, stirling2


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


def exponential_poly_recurrence(n: int) -> Poly:
    """phi_n by phi_{k+1} = x (phi_k + phi_k'), from phi_0 = 1."""
    p = Poly.one()
    for _ in range(n):
        p = Poly.x() * (p + p.derivative())
    return p


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


# -- library helpers that only the tests use ---------------------------------

def stirling1_signed(n: int, k: int) -> int:
    """s(n, k) = (-1)^(n-k) [n, k]."""
    return (-1) ** (n - k) * stirling1_unsigned(n, k)


def stirling_transform(a) -> list[Fraction]:
    """b_n = sum_k {n, k} a_k, termwise over the input's index range."""
    seq = [Fraction(v) for v in a]
    return [sum((stirling2(n, k) * seq[k] for k in range(n + 1)), Fraction(0)) for n in range(len(seq))]


def inverse_stirling_transform(b) -> list[Fraction]:
    """a_n = sum_k (-1)^(n-k) [n, k] b_k; inverse of stirling_transform."""
    seq = [Fraction(v) for v in b]
    return [sum((stirling1_signed(n, k) * seq[k] for k in range(n + 1)), Fraction(0)) for n in range(len(seq))]


def bernoulli_higher_poly_in_x(n: int, l: int) -> Poly:
    """B_n^{(l)}(x) = sum_k C(n,k) B_k^{(l)} x^(n-k) as a polynomial."""
    acc = Poly.zero()
    for k in range(n + 1):
        acc = acc + Poly.monomial(n - k, comb(n, k) * fam.bernoulli_higher(k, l))
    return acc


def truncate(s: Series, order: int) -> Series:
    """s with its coefficients beyond t^order dropped."""
    if order > s.order:
        raise ValueError(f"cannot extend order {s.order} to {order}")
    return Series(s.coeffs[: order + 1], order)


def log1p_series(order: int) -> Series:
    """log(1 + t) = t - t^2/2 + t^3/3 - ... truncated."""
    if order < 1:
        raise ValueError("log(1+t) needs order >= 1")
    return Series([Fraction(0)] + [Fraction((-1) ** (k + 1), k) for k in range(1, order + 1)], order)


def eval_series_horner(p: Poly, s: Series) -> Series:
    """Horner evaluation of p at a truncated power series: deg p series products."""
    acc = Series.constant(0, s.order)
    for c in reversed(p.coeffs):
        acc = acc * s + c
    return acc


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


def apostol_euler_poly_mantissa_naive(n: int, alpha: Fraction, x0: Fraction, lam: Fraction) -> Fraction:
    """sum_k C(n,k) M_k x0^(n-k) over the naive mantissas, term by term."""
    return sum(
        (comb(n, k) * apostol_euler_mantissa_naive(k, alpha, lam) * Fraction(x0) ** (n - k) for k in range(n + 1)),
        Fraction(0),
    )


def apostol_bernoulli_poly_naive(n: int, l: int, x0: Fraction, lam: Fraction) -> Fraction:
    """sum_k C(n,k) B_k^{(l)}(lam) x0^(n-k) over the naive numbers, term by term."""
    return sum(
        (comb(n, k) * apostol_bernoulli_higher_naive(k, l, lam) * Fraction(x0) ** (n - k) for k in range(n + 1)),
        Fraction(0),
    )


def bernoulli_higher_poly_naive(n: int, l: int, x0: Fraction) -> Fraction:
    """sum_k C(n,k) B_k^{(l)} x0^(n-k), term by term (B_k^{(l)} from the series route)."""
    return sum(
        (comb(n, k) * fam.bernoulli_higher(k, l) * Fraction(x0) ** (n - k) for k in range(n + 1)),
        Fraction(0),
    )


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


def inverse_by_recurrence(c: list[Fraction]) -> list[Fraction]:
    """1/c from c_0 f_i = -sum_{k=1..i} c_k f_{i-k}, one Fraction operation per term."""
    out = [1 / Fraction(c[0])]
    for i in range(1, len(c)):
        acc = Fraction(0)
        for k in range(1, i + 1):
            acc += c[k] * out[i - k]
        out.append(-acc / c[0])
    return out


def exp_by_sum(u: list[Fraction]) -> list[Fraction]:
    """exp(u) = sum_j u^j / j! for u with zero constant term."""
    out = [Fraction(0)] * len(u)
    for j, p in enumerate(_powers_of(list(u))):
        out = [o + v / factorial(j) for o, v in zip(out, p)]
    return out


# -- the per-step series recurrences, one for exp and one for powers -----------
# Step i sums its terms, the step's factor folded into each, as one integer over
# the lcm of their own denominators, in ordinary coefficients.  series runs one
# such loop for both, weights ((p+q)k - qi)/(s i), on every base off the
# difference table's form; on those bases the independent references are
# exp_by_sum and binomial_power_by_sum.

def exp_by_steps(u: Series) -> list[Fraction]:
    """exp(u) from f' = u'f: step i sums (k u_k / i) f_{i-k} over k = 1..i."""
    ku = [(k * num, den) for k, (num, den) in enumerate(map(Fraction.as_integer_ratio, u.coeffs))]
    out, f = [Fraction(1)], []
    for i in range(1, u.order + 1):
        f.append(out[-1].as_integer_ratio())
        out.append(sum_over_lcm((un * fn, i * ud * fd) for (un, ud), (fn, fd) in zip(ku[i:0:-1], f)))
    return out


def binomial_power_by_steps(a: Series, r: Fraction) -> list[Fraction]:
    """(1 + u)^r by Miller's recurrence: for r = p/q step i sums the terms
    a_k f_{i-k}, weighted (k(p+q) - iq)/(iq), over k = 1..i."""
    p, q = Fraction(r).as_integer_ratio()
    c = list(map(Fraction.as_integer_ratio, a.coeffs))
    out, f = [Fraction(1)], []
    for i in range(1, a.order + 1):
        f.append(out[-1].as_integer_ratio())
        terms = zip(range(i, 0, -1), c[i:0:-1], f)  # (k, a_k, f_{i-k}) for k = i..1
        out.append(sum_over_lcm(((k * (p + q) - i * q) * an * fn, i * q * ad * fd) for k, (an, ad), (fn, fd) in terms))
    return out


# -- the Apostol-type series builders that the geometric series replaced ------
# Each inverts lam e^t -+ 1 afresh, instead of reading (1 - x(e^t - 1))^(-1),
# by the plain recurrence: Series.inverse is binomial_power at r = -1, which
# would hand these bases to the builders' own difference table.

def _inverse(s: Series) -> Series:
    return Series(inverse_by_recurrence(list(s.coeffs)), s.order)


def gf_apostol_bernoulli_by_inverse(l: int, lam: Fraction, order: int) -> Series:
    """(t/(lam e^t - 1))^l."""
    return (Series.t(order) * _inverse(Series.exp_t(1, order) * lam - 1)) ** l


def gf_apostol_euler_by_inverse(alpha: int, lam: Fraction, order: int) -> Series:
    """(2/(lam e^t + 1))^alpha."""
    g = _inverse(Series.exp_t(1, order) * lam + 1) * 2
    return g**alpha if alpha >= 0 else _inverse(g) ** -alpha


# -- the power-by-squaring builders that one general geometric series replaced --
# Each raises a product with G(x) = 1/(1 - x(e^t - 1)), its base built from e^t,
# to an integer power by repeated squaring.

def _geometric_from_exp_t(x: Fraction, order: int) -> Series:
    """1/(1 - x(e^t - 1))."""
    return binomial_power(Series.one(order) - (Series.exp_t(1, order) - 1) * x, -1)


def gf_apostol_bernoulli_by_squaring(l: int, lam: Fraction, order: int) -> Series:
    """(t G(x)/(lam-1))^l at x = -lam/(lam-1)."""
    return (Series.t(order) * _geometric_from_exp_t(-lam / (lam - 1), order) * (1 / (lam - 1))) ** l


def gf_apostol_euler_by_squaring(alpha: int, lam: Fraction, order: int) -> Series:
    """(2/(lam+1) G(x))^alpha at x = -lam/(lam+1)."""
    return (_geometric_from_exp_t(-lam / (lam + 1), order) * (2 / (lam + 1))) ** alpha


# -- the Fraction checker bodies that the identity checkers replaced ----------
# Each takes a grid point and returns its (label, lhs, rhs) pairs term by term,
# reading the same family values as the package's checkers; what they check is
# the checkers' own arithmetic: integer sums, carried rising factorials and
# pairs served from the per-half caches.

F = Fraction


def _bern(n, l, lam):
    return fam.bernoulli_higher(n, l) if lam == 1 else fam.apostol_bernoulli_higher(n, l, lam)


def _bern_poly(n, l, x0, lam):
    return fam.bernoulli_higher_poly(n, l, F(x0)) if lam == 1 else fam.apostol_bernoulli_poly(n, l, F(x0), lam)


def _need_euler_domain(lam):
    if lam == -1:
        raise SkipDomain("lambda=-1 is a pole of the Euler-type families")


def chk_w_general_recurrence(pt):
    n, m, alpha = pt["n"], pt["m"], F(pt["alpha"])
    lhs = fam.general_geometric(n + m, alpha)
    rhs = Poly.zero()
    for k in range(m + 1):
        s = stirling2(m, k)
        if not s:
            continue
        base = s * gen_binomial_by_product(alpha + k - 1, k) * factorial(k)
        for j in range(n + 1):
            coef = base * comb(n, j) * F(k) ** (n - j)
            if coef:
                rhs = rhs + Poly.monomial(k, coef) * fam.general_geometric(j, alpha + k)
    return [("", lhs, rhs)]


def chk_apostol_euler_recurrence(pt):
    n, m, alpha, lam = pt["n"], pt["m"], F(pt["alpha"]), F(pt["lambda"])
    _need_euler_domain(lam)
    b = fam.euler_prefactor_base(lam)
    lhs = fam.apostol_euler_mantissa(n + m, alpha, lam)
    rhs = F(0)
    for k in range(m + 1):
        s = stirling2(m, k)
        if not s:
            continue
        base = s * gen_binomial_by_product(alpha + k - 1, k) * (-lam) ** k * factorial(k) / 2**k * b**k
        for j in range(n + 1):
            rhs += base * comb(n, j) * F(k) ** (n - j) * fam.apostol_euler_mantissa(j, alpha + k, lam)
    return [("", lhs, rhs)]


def chk_apostol_bernoulli_recurrence(pt):
    n, m, l, lam = pt["n"], pt["m"], pt["l"], F(pt["lambda"])
    if lam != 1:
        lhs = fam.apostol_bernoulli_higher(n + m + l, l, lam) / (comb(n + m + l, l) * l)
        rhs = F(0)
        for k in range(m + 1):
            s = stirling2(m, k)
            if not s:
                continue
            for j in range(n + 1):
                rhs += (
                    s
                    * comb(n, j)
                    * (-lam) ** k
                    * F(k) ** (n - j)
                    / ((l + k) * comb(l + k + j, j))
                    * fam.apostol_bernoulli_higher(l + k + j, l + k, lam)
                )
        return [("", lhs, rhs)]
    lhs = fam.bernoulli_higher(n + m + l, l) / (comb(n + m + l, l) * l)
    rhs = F(0)
    for k in range(m + 1):
        s = stirling2(m, k)
        if s:
            rhs += s * F(-1) ** k / ((l + k) * comb(n + l + k, n)) * fam.bernoulli_higher_poly(n + l + k, k + l, F(k))
    return [("classical-limit", lhs, rhs)]


def chk_apostol_bernoulli_diag_recurrence(pt):
    m, l, lam = pt["m"], pt["l"], F(pt["lambda"])
    if lam == 1:
        raise SkipDomain("lambda=1 not in domain; use bernoulli-higher")
    lhs = fam.apostol_bernoulli_higher(m + l, l, lam)
    rhs = F(0)
    for k in range(m + 1):
        s = stirling2(m, k)
        if s:
            rhs += s * (-lam) ** k / (l + k) * fam.apostol_bernoulli_higher(l + k, l + k, lam)
    rhs *= l * comb(m + l, l)
    return [("", lhs, rhs)]


def chk_w_connections(pt):
    n, alpha, l, lam = pt["n"], F(pt["alpha"]), pt["l"], F(pt["lambda"])
    pairs = []
    if lam != -1:
        pairs.append((
            "euler-connection",
            fam.general_geometric(n, alpha)(-lam / (lam + 1)),
            fam.apostol_euler_mantissa(n, alpha, lam),
        ))
    if lam != 1:
        pairs.append((
            "bernoulli-connection",
            fam.general_geometric(n, l)(-lam / (lam - 1)),
            (lam - 1) ** l / factorial(l) / comb(n + l, l) * fam.apostol_bernoulli_higher(n + l, l, lam),
        ))
    if alpha == 1 and l == 1:
        pairs.append(("euler-value", fam.geometric_poly(n)(F(-1, 2)), fam.euler_classical(n)))
    if not pairs:
        raise SkipDomain("no connection defined at this parameter point")
    return pairs


def chk_poly_shift_prop(pt):
    n, m, l, alpha, lam = pt["n"], pt["m"], pt["l"], F(pt["alpha"]), F(pt["lambda"])
    _need_euler_domain(lam)
    b = fam.euler_prefactor_base(lam)
    lhs_e = fam.apostol_euler_mantissa(n + m, alpha, lam)
    rhs_e = F(0)
    for k in range(m + 1):
        s = stirling2(m, k)
        if s:
            rhs_e += (
                s
                * gen_binomial_by_product(alpha + k - 1, k)
                * (-lam / 2) ** k
                * factorial(k)
                * b**k
                * fam.apostol_euler_poly_mantissa(n, alpha + k, F(k), lam)
            )
    lhs_b = _bern(n + m + l, l, lam) / comb(n + m + l, l)
    rhs_b = F(0)
    for k in range(m + 1):
        s = stirling2(m, k)
        if s:
            rhs_b += s * l * (-lam) ** k / ((l + k) * comb(n + l + k, n)) * _bern_poly(n + l + k, k + l, F(k), lam)
    return [("euler-shift", lhs_e, rhs_e), ("bernoulli-shift", lhs_b, rhs_b)]


def chk_poly_shift_theorem(pt):
    n, m, l, alpha, lam = pt["n"], pt["m"], pt["l"], F(pt["alpha"]), F(pt["lambda"])
    _need_euler_domain(lam)
    if lam == 0:
        raise SkipDomain("lambda=0: reciprocal parameter undefined")
    b = fam.euler_prefactor_base(lam)
    pairs = []
    lhs_e = b**m * fam.apostol_euler_poly_mantissa(n, alpha + m, F(m), lam)
    rhs_e = (F(2) / lam) ** m / factorial(m) / gen_binomial_by_product(alpha + m - 1, m) * sum(
        (F(-1) ** k * stirling1_unsigned(m, k) * fam.apostol_euler_mantissa(n + k, alpha, lam) for k in range(m + 1)),
        F(0),
    )
    pairs.append(("euler-shift", lhs_e, rhs_e))
    if lam == 1:
        refl = F(-1) ** n * fam.apostol_euler_poly_mantissa(n, alpha + m, alpha, F(1))
        pairs.append(("euler-reflection", fam.apostol_euler_poly_mantissa(n, alpha + m, F(m), F(1)), refl))
    elif alpha.denominator == 1:
        order_a = int(alpha) + m
        plain = b**order_a * fam.apostol_euler_poly_mantissa(n, F(order_a), F(m), lam)
        b_inv = fam.euler_prefactor_base(1 / lam)
        refl = (F(-1) ** n * lam ** (-order_a) * b_inv**order_a
                * fam.apostol_euler_poly_mantissa(n, F(order_a), alpha, 1 / lam))
        pairs.append(("euler-reflection", plain, refl))
    lhs_b = _bern_poly(n + m + l, m + l, F(m), lam)
    rhs_b = F(l + m) / (l * lam**m) * comb(n + m + l, n) * sum(
        (F(-1) ** k * stirling1_unsigned(m, k) / comb(n + l + k, l) * _bern(n + l + k, l, lam) for k in range(m + 1)),
        F(0),
    )
    pairs.append(("bernoulli-shift", lhs_b, rhs_b))
    refl_b = F(-1) ** (n + m + l) * lam ** (-(m + l)) * _bern_poly(n + m + l, m + l, F(l), 1 / lam)
    pairs.append(("bernoulli-reflection", lhs_b, refl_b))
    return pairs


def chk_finite_sums(pt):
    m, l, alpha, lam = pt["m"], pt["l"], F(pt["alpha"]), F(pt["lambda"])
    _need_euler_domain(lam)
    pairs = []
    lhs_e = sum(
        (F(-1) ** k * stirling1_unsigned(m, k) * fam.apostol_euler_mantissa(k, alpha, lam) for k in range(m + 1)),
        F(0),
    )
    rhs_e = lam**m * factorial(m) / (lam + 1) ** m * gen_binomial_by_product(alpha + m - 1, m)
    pairs.append(("euler-sum", lhs_e, rhs_e))
    if lam != 1:
        lhs_b = sum(
            (F(-1) ** k * stirling1_unsigned(m, k) / comb(l + k, l) * fam.apostol_bernoulli_higher(l + k, l, lam)
             for k in range(m + 1)),
            F(0),
        )
        rhs_b = l * lam**m * factorial(m + l - 1) / (lam - 1) ** (m + l)
        pairs.append(("bernoulli-sum", lhs_b, rhs_b))
    return pairs


def chk_bernoulli_higher_recurrence(pt):
    m, l = pt["m"], pt["l"]
    lhs1 = fam.bernoulli_higher(m + l, l)
    rhs1 = F(0)
    for k in range(m + 1):
        s = stirling2(m, k)
        if s:
            rhs1 += s * F(-1) ** k / (l + k) * fam.bernoulli_higher_poly(l + k, l + k, k)
    rhs1 *= l * comb(m + l, l)
    lhs2 = fam.bernoulli_higher_poly(m + l, m + l, m)
    rhs2 = F(0)
    for k in range(m + 1):
        s = stirling1_unsigned(m, k)
        if s:
            rhs2 += F(-1) ** k * s / comb(k + l, l) * fam.bernoulli_higher(k + l, l)
    rhs2 *= F(l + m, l)
    return [("diagonal-sum", lhs1, rhs1), ("inverse-transform", lhs2, rhs2)]


def chk_diag_bernoulli_values(pt):
    m, l = pt["m"], pt["l"]
    n = m + l
    pairs = []
    rhs = F(l + m, l) * sum(
        (F(-1) ** k * stirling1_unsigned(m, k) / comb(l + k, l) * fam.bernoulli_higher(k + l, l)
         for k in range(m + 1)),
        F(0),
    )
    pairs.append(("shifted-diagonal", fam.bernoulli_higher_poly(n, n, m), rhs))
    pairs.append(("reflection", fam.bernoulli_higher_poly(n, n, n - l), F(-1) ** n * fam.bernoulli_higher_poly(n, n, l)))
    pairs.append(("second-kind-link", fam.bernoulli_higher_poly(n, n, 1), factorial(n) * fam.bernoulli_second_kind(n)))
    if n >= 2:
        pairs.append(("order-drop", fam.bernoulli_higher_poly(n, n, 1), fam.bernoulli_higher(n, n - 1) / (1 - n)))
    return pairs


def chk_aux_euler_reflection(pt):
    n, alpha, lam, x = pt["n"], F(pt["alpha"]), F(pt["lambda"]), F(pt["x"])
    _need_euler_domain(lam)
    if lam == 0:
        raise SkipDomain("lambda=0: reciprocal parameter undefined")
    if lam == 1:
        lhs = fam.apostol_euler_poly_mantissa(n, alpha, alpha - x, F(1))
        rhs = F(-1) ** n * fam.apostol_euler_poly_mantissa(n, alpha, x, F(1))
        return [("", lhs, rhs)]
    if alpha.denominator != 1:
        raise SkipDomain("non-integer order with lambda != 1: prefactor powers are not rationally comparable")
    a = int(alpha)
    lhs = fam.euler_prefactor_base(lam) ** a * fam.apostol_euler_poly_mantissa(n, alpha, alpha - x, lam)
    rhs = (F(-1) ** n * lam ** (-a) * fam.euler_prefactor_base(1 / lam) ** a
           * fam.apostol_euler_poly_mantissa(n, alpha, x, 1 / lam))
    return [("", lhs, rhs)]


def chk_spivey(pt):
    n, m = pt["n"], pt["m"]
    lhs = fam.exponential_poly(n + m)
    rhs = Poly.zero()
    for k in range(n + 1):
        phi_k = fam.exponential_poly(k)
        for j in range(m + 1):
            coef = comb(n, k) * stirling2(m, j) * F(j) ** (n - k)
            if coef:
                rhs = rhs + Poly.monomial(j, coef) * phi_k
    return [("", lhs, rhs)]


def chk_w_explicit(pt):
    n, m = pt["n"], pt["m"]
    lhs = fam.geometric_poly(n + m)
    rhs = Poly.zero()
    for k in range(m + 1):
        s = stirling2(m, k)
        if not s:
            continue
        for j in range(n + 1):
            c = s * comb(n, j) * F(k) ** (n - j)
            if not c:
                continue
            for i in range(j + 1):
                s2 = stirling2(j, i)
                if s2:
                    rhs = rhs + Poly.monomial(k + i, c * s2 * factorial(i + k))
    return [("", lhs, rhs)]


def chk_fubini_explicit(pt):
    n, m = pt["n"], pt["m"]
    lhs = fam.fubini(n + m)
    rhs = F(0)
    for k in range(m + 1):
        for j in range(n + 1):
            for i in range(j + 1):
                rhs += stirling2(m, k) * comb(n, j) * stirling2(j, i) * F(k) ** (n - j) * factorial(i + k)
    return [("", lhs, rhs)]


def chk_gf_apostol_bernoulli_shift(pt):
    """At the default order, with 1/(lam e^t - 1) built afresh and the
    polynomial evaluated by Horner at its argument series."""
    m, l, lam = pt["m"], pt["l"], F(pt["lambda"])
    order = GridConfig().order
    if lam != 1:
        e = Series.exp_t(1, order)
        inverse = (e * lam - 1).inverse()
        rhs = inverse**l * factorial(l) * eval_series_horner(fam.general_geometric(m, l), e * (-lam) * inverse)
        lhs = Series([_bern(n + m + l, l, lam) / comb(n + m + l, l) / factorial(n) for n in range(order + 1)], order)
        return [("", lhs, rhs)]
    shift = l + m
    if order < shift + 1:
        raise SkipDomain("series order too small for the pole-cleared comparison")
    r_series = Series.zero(order)
    for k, c in enumerate(fam.general_geometric(m, l).coeffs):
        if c:
            term = (
                (Series.t(order) ** (m - k))
                * Series.exp_t(k, order)
                * fam.gf_bernoulli_higher(l + k, order)
                * (c * F(-1) ** k)
            )
            r_series = r_series + term
    r_series = r_series * factorial(l)
    reduced = order - shift
    lhs = Series(
        [fam.bernoulli_higher(n + m + l, l) / (comb(n + m + l, l) * factorial(n)) for n in range(reduced + 1)],
        reduced,
    )
    rhs = Series([r_series.coeff(n + shift) for n in range(reduced + 1)], reduced)
    return [("pole-cleared", lhs, rhs)]


def chk_gf_phi_base(pt):
    """At the default order, with e^{x(e^t - 1)} built afresh."""
    x, order = F(pt["x"]), GridConfig().order
    lhs = Series([fam.exponential_poly(n)(x) / factorial(n) for n in range(order + 1)], order)
    return [("", lhs, ((Series.exp_t(1, order) - 1) * x).exp())]


def chk_gf_w_base(pt):
    """At the default order, with (1 - x(e^t - 1))^(-alpha) built afresh."""
    alpha, x, order = F(pt["alpha"]), F(pt["x"]), GridConfig().order
    if alpha <= 0:
        raise SkipDomain("alpha <= 0: general geometric polynomials need alpha > 0")
    lhs = Series([fam.general_geometric(n, alpha)(x) / factorial(n) for n in range(order + 1)], order)
    return [("", lhs, binomial_power(Series.one(order) - (Series.exp_t(1, order) - 1) * x, -alpha))]


def chk_gf_phi_shift(pt):
    """At the default order, with x e^t built afresh and phi_m evaluated by
    Horner at it, times e^{x(e^t - 1)}."""
    m, x, order = pt["m"], F(pt["x"]), GridConfig().order
    e = Series.exp_t(1, order)
    rhs = ((e - 1) * x).exp() * eval_series_horner(fam.exponential_poly(m), e * x)
    lhs = Series([fam.exponential_poly(n + m)(x) / factorial(n) for n in range(order + 1)], order)
    return [("", lhs, rhs)]


def chk_gf_w_shift(pt):
    """At the default order, with x e^t G built afresh, G = 1/(1 - x(e^t - 1)),
    and w_{m,alpha} evaluated by Horner at it, times G^alpha."""
    m, alpha, x, order = pt["m"], F(pt["alpha"]), F(pt["x"]), GridConfig().order
    if alpha <= 0:
        raise SkipDomain("alpha <= 0: general geometric polynomials need alpha > 0")
    e = Series.exp_t(1, order)
    argument = e * x * _geometric_from_exp_t(x, order)
    rhs = binomial_power(Series.one(order) - (e - 1) * x, -alpha) * eval_series_horner(
        fam.general_geometric(m, alpha), argument)
    lhs = Series([fam.general_geometric(n + m, alpha)(x) / factorial(n) for n in range(order + 1)], order)
    return [("", lhs, rhs)]


def chk_gf_apostol_euler_shift(pt):
    """At the default order, with 1/(lam e^t + 1) built afresh and the
    polynomial evaluated by Horner at its argument series."""
    m, alpha, lam = pt["m"], F(pt["alpha"]), F(pt["lambda"])
    order = GridConfig().order
    _need_euler_domain(lam)
    if alpha <= 0:
        raise SkipDomain("alpha <= 0: general geometric polynomials need alpha > 0")
    e = Series.exp_t(1, order)
    inverse = (e * lam + 1).inverse()
    rhs = binomial_power(inverse * (lam + 1), alpha) * eval_series_horner(
        fam.general_geometric(m, alpha), e * (-lam) * inverse)
    lhs = Series([fam.apostol_euler_mantissa(n + m, alpha, lam) / factorial(n) for n in range(order + 1)], order)
    return [("", lhs, rhs)]


OLD_CHECKERS = {
    "spivey": chk_spivey,
    "w-explicit": chk_w_explicit,
    "fubini-explicit": chk_fubini_explicit,
    "gf-phi-base": chk_gf_phi_base,
    "gf-phi-shift": chk_gf_phi_shift,
    "gf-w-base": chk_gf_w_base,
    "gf-w-shift": chk_gf_w_shift,
    "gf-apostol-euler-shift": chk_gf_apostol_euler_shift,
    "gf-apostol-bernoulli-shift": chk_gf_apostol_bernoulli_shift,
    "w-general-recurrence": chk_w_general_recurrence,
    "apostol-euler-recurrence": chk_apostol_euler_recurrence,
    "w-connections": chk_w_connections,
    "poly-shift-prop": chk_poly_shift_prop,
    "poly-shift-theorem": chk_poly_shift_theorem,
    "finite-sums": chk_finite_sums,
    "bernoulli-higher-recurrence": chk_bernoulli_higher_recurrence,
    "diag-bernoulli-values": chk_diag_bernoulli_values,
    "aux-euler-reflection": chk_aux_euler_reflection,
}

# the checkers whose sums run over the integer family rows: each Euler-side sum
# reads integer numerators, each Bernoulli-side sum runs over one lcm
OLD_ROW_CHECKERS = {
    "apostol-euler-recurrence": chk_apostol_euler_recurrence,
    "apostol-bernoulli-recurrence": chk_apostol_bernoulli_recurrence,
    "apostol-bernoulli-diag-recurrence": chk_apostol_bernoulli_diag_recurrence,
    "poly-shift-prop": chk_poly_shift_prop,
    "poly-shift-theorem": chk_poly_shift_theorem,
    "finite-sums": chk_finite_sums,
}
