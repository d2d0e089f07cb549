"""The three workloads: their operations, drawn from a seed, and their checks.

A workload yields one round of CLI operations (argv lists).  run.py runs a
round in one fresh process, and runs it again in a second fresh process: for
``verify`` that second process passes ``--jobs 2``; ``table`` and ``series``
have no parallel path, so there it repeats the same operations.  Each
operation's output is checked against reference.py and against the
properties below; checks that need extra CLI calls (the ``--perturb``
negative control, the dual-route comparison) run once per run, untimed.

Numerals go on the command line as ``--flag=value`` because argparse rejects
``--flag -3``.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from fractions import Fraction as F
from functools import lru_cache
from math import comb, factorial

import reference as ref

# ---------------------------------------------------------------------------
# parsing printed values
# ---------------------------------------------------------------------------

_SCALED = re.compile(r"^(-?\d+(?:/\d+)?)\*\((-?\d+(?:/\d+)?)\)\^\((-?\d+(?:/\d+)?)\)$")
_POLY_TERM = re.compile(r"([+-]?)(\d+(?:/\d+)?)?(?:(x)(?:\^(\d+))?)?")


def parse_scaled(text: str) -> tuple[F, F, F]:
    """``p/q`` or ``m*(b)^(e)`` as (mantissa, base, exponent)."""
    m = _SCALED.match(text)
    if m:
        return F(m.group(1)), F(m.group(2)), F(m.group(3))
    return F(text), F(1), F(0)


def parse_poly(text: str) -> dict[int, F]:
    """The CLI's polynomial form, e.g. ``-1/2+x-3x^2``, as degree -> coeff."""
    out: dict[int, F] = {}
    if text == "0":
        return out
    pos = 0
    while pos < len(text):
        m = _POLY_TERM.match(text, pos)
        sign, coef, x, exp = m.groups()
        if m.end() == pos or (coef is None and x is None):
            raise ValueError(f"cannot parse polynomial {text!r}")
        deg = int(exp or 1) if x else 0
        if deg in out:
            raise ValueError(f"repeated degree {deg} in {text!r}")
        out[deg] = (F(coef) if coef else F(1)) * (-1 if sign == "-" else 1)
        pos = m.end()
    return out


def parse_series(text: str) -> dict[int, F]:
    """The CLI's series form, e.g. ``1 + -1/2 t + 3 t^2``, as index -> coeff."""
    out: dict[int, F] = {}
    for i, part in enumerate(text.split(" + ")):
        if i == 0:
            out[0] = F(part)
            continue
        coef, var = part.split(" ")
        out[1 if var == "t" else int(var[2:])] = F(coef)
    return out


def parse_labeled(text: str) -> dict[str, str]:
    if "=" not in text:
        return {"": text}
    return dict(part.split("=", 1) for part in text.split("; "))


def scaled_value_problem(text: str, mantissa: F, base: F, alpha: F) -> str | None:
    """Check a printed value against mantissa * base^alpha.

    A value that is rational must print as the canonical rational; an
    irrational one must denote the same real number.
    """
    if mantissa == 0:
        power = F(0)
    elif alpha.denominator == 1:
        power = base ** alpha.numerator
    elif base > 0:
        power = ref.rational_power(base, alpha)
    else:
        return f"no real value for ({base})^({alpha})"
    if power is not None:
        want = str(mantissa * power)
        return None if text == want else f"printed {text!r}, value is the rational {want}"
    try:
        got = parse_scaled(text)
    except ValueError:
        return f"cannot parse {text!r}"
    if got[1] <= 0 or not ref.same_real(got, (mantissa, base, alpha)):
        return f"printed {text!r}, value is {mantissa}*({base})^({alpha})"
    return None


def _rat(text: str, want: F) -> str | None:
    return None if text == str(want) else f"printed {text!r}, reference {want}"


def _coeff_list(text_list: list[str], want: list) -> str | None:
    want = list(want)
    while want and want[-1] == 0:
        want.pop()
    if [F(c) for c in text_list] != want:
        return f"coefficients {text_list[:6]}... differ from the reference"
    return None


# ---------------------------------------------------------------------------
# reference tables, memoised per run
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def s2_rows(depth: int) -> list[list[int]]:
    return ref.stirling2_rows(depth)


@lru_cache(maxsize=None)
def s1_rows(depth: int) -> list[list[int]]:
    return ref.stirling1_unsigned_rows(s2_rows(depth))


@lru_cache(maxsize=None)
def euler_mantissas(alpha: F, lam: F, count: int) -> list[F]:
    return ref.apostol_euler_mantissas(alpha, lam, count)


@lru_cache(maxsize=None)
def bern_values(order: int, lam: F, count: int) -> list[F]:
    """B_n^(order)(lam), with lam = 1 the classical higher-order numbers."""
    if lam == 1:
        return ref.bernoulli_higher_numbers(order, count)
    return ref.apostol_bernoulli_values(order, lam, count)


def euler_base(lam: F) -> F:
    return 2 / (lam + 1)


# ---------------------------------------------------------------------------
# the default grid
# ---------------------------------------------------------------------------

class Grid:
    """The default GridConfig's fields, read once from polyfam."""

    def __init__(self, config) -> None:
        self.nmax, self.mmax, self.nm_sum = config.nmax, config.mmax, config.nm_sum
        self.gf_mmax, self.order = config.gf_mmax, config.order
        self.ls = tuple(config.ls)
        self.int_alphas = tuple(F(a) for a in config.int_alphas)
        self.frac_alphas = tuple(F(a) for a in config.frac_alphas)
        self.alphas = self.int_alphas + self.frac_alphas
        self.lambdas = tuple(F(v) for v in config.lambdas)
        self.xs = tuple(F(v) for v in config.xs)

    def axis(self, name: str) -> list[dict]:
        if name == "nm":
            return [{"n": n, "m": m} for n in range(self.nmax + 1) for m in range(self.mmax + 1)
                    if n + m <= self.nm_sum]
        values = {
            "n": ("n", range(self.nmax + 1)), "m": ("m", range(self.mmax + 1)),
            "gm": ("m", range(self.gf_mmax + 1)), "l": ("l", self.ls),
            "alpha": ("alpha", self.alphas), "int_alpha": ("alpha", [int(a) for a in self.int_alphas]),
            "lambda": ("lambda", self.lambdas), "x": ("x", self.xs),
        }
        key, vals = values[name]
        return [{key: v} for v in vals]

    def points(self, axes: tuple[str, ...]) -> list[dict]:
        out = []
        for combo in itertools.product(*(self.axis(a) for a in axes)):
            pt = {}
            for part in combo:
                pt.update(part)
            out.append(pt)
        return out


# Each identity's grid, as the product of the axes its parameters range over.
IDENTITY_AXES = {
    "spivey": ("nm",),
    "gf-phi-shift": ("gm", "x"),
    "gf-phi-base": ("x",),
    "gf-w-shift": ("gm", "alpha", "x"),
    "gf-w-base": ("alpha", "x"),
    "gf-apostol-euler-shift": ("gm", "alpha", "lambda"),
    "gf-apostol-bernoulli-shift": ("gm", "l", "lambda"),
    "w-general-recurrence": ("nm", "alpha"),
    "w-explicit": ("nm",),
    "fubini-explicit": ("nm",),
    "apostol-euler-recurrence": ("nm", "alpha", "lambda"),
    "apostol-euler-explicit": ("m", "alpha", "lambda"),
    "apostol-bernoulli-recurrence": ("nm", "l", "lambda"),
    "bernoulli-higher-recurrence": ("m", "l"),
    "apostol-bernoulli-diag-recurrence": ("m", "l", "lambda"),
    "apostol-bernoulli-explicit": ("n", "l", "lambda"),
    "apostol-bernoulli-classical": ("n", "lambda"),
    "w-connections": ("n", "alpha", "l", "lambda"),
    "poly-shift-prop": ("nm", "l", "alpha", "lambda"),
    "poly-shift-theorem": ("nm", "l", "alpha", "lambda"),
    "finite-sums": ("m", "l", "alpha", "lambda"),
    "diag-bernoulli-values": ("m", "l"),
    "aux-wang": ("n", "alpha", "lambda", "x"),
    "aux-srivastava-luo": ("n", "int_alpha", "lambda", "x"),
    "aux-euler-reflection": ("n", "alpha", "lambda", "x"),
}

# The documented domain rules: where a point must be reported skipped-domain.
EULER_SIDE = {"gf-apostol-euler-shift", "apostol-euler-recurrence", "apostol-euler-explicit", "poly-shift-prop",
              "poly-shift-theorem", "finite-sums", "aux-wang", "aux-euler-reflection"}
BERNOULLI_SIDE = {"apostol-bernoulli-diag-recurrence", "apostol-bernoulli-explicit", "apostol-bernoulli-classical"}
RECIPROCAL = {"poly-shift-theorem", "aux-euler-reflection"}
REFLECTION = {"aux-euler-reflection"}


def must_skip(identity_id: str, params: dict) -> bool:
    lam = F(params["lambda"]) if "lambda" in params else None
    alpha = F(params["alpha"]) if "alpha" in params else None
    return ((identity_id in EULER_SIDE and lam == -1)
            or (identity_id in BERNOULLI_SIDE and lam == 1)
            or (identity_id in RECIPROCAL and lam == 0)
            or (identity_id in REFLECTION and alpha is not None and alpha.denominator != 1 and lam != 1))


def param_key(params: dict) -> tuple:
    return tuple(sorted((k, str(v)) for k, v in params.items()))


# ---------------------------------------------------------------------------
# verify-catalog
# ---------------------------------------------------------------------------

VERIFY_COUNT = 24  # reference length for sampled values; covers n + m + l on the default grid
SAMPLES_PER_IDENTITY = 8


def _sample_expectations(identity_id: str, p: dict, order: int) -> list[tuple[str, str, str, object]]:
    """(side, label, kind, reference) for the closed values a report prints."""
    g = {k: F(v) for k, v in p.items()}
    n, m, l = int(g.get("n", 0)), int(g.get("m", 0)), int(g.get("l", 0))
    alpha, lam, x = g.get("alpha"), g.get("lambda"), g.get("x")
    c = VERIFY_COUNT
    if identity_id == "fubini-explicit":
        return [("lhs", "", "num", F(ref.fubini_numbers(n + m)[n + m]))]
    if identity_id == "spivey":
        return [("lhs", "", "poly", s2_rows(c)[n + m])]
    if identity_id == "w-explicit":
        return [("lhs", "", "poly", [s * factorial(k) for k, s in enumerate(s2_rows(c)[n + m])])]
    if identity_id == "w-general-recurrence":
        return [("lhs", "", "poly", ref.general_geometric_coeffs(s2_rows(c), n + m, alpha))]
    if identity_id == "apostol-euler-recurrence":
        return [("lhs", "", "num", euler_mantissas(alpha, lam, c)[n + m])]
    if identity_id == "apostol-euler-explicit":
        out = [("lhs", "mantissa-series", "num", euler_mantissas(alpha, lam, c)[m])]
        if alpha.denominator == 1:
            out.append(("lhs", "plain-series", "num", euler_base(lam) ** int(alpha) * euler_mantissas(alpha, lam, c)[m]))
        return out
    if identity_id == "apostol-bernoulli-explicit":
        return [("lhs", "closed-sum-vs-series", "num", bern_values(l, lam, c)[n])]
    if identity_id == "apostol-bernoulli-classical":
        if n == 0:
            return [("lhs", "vanishing-start", "num", F(0))]
        return [("lhs", "geometric-eval", "num", bern_values(1, lam, c)[n])]
    if identity_id == "apostol-bernoulli-diag-recurrence":
        return [("lhs", "", "num", bern_values(l, lam, c)[m + l])]
    if identity_id == "apostol-bernoulli-recurrence":
        top = n + m + l
        return [("lhs", "" if lam != 1 else "classical-limit", "num", bern_values(l, lam, c)[top] / (comb(top, l) * l))]
    if identity_id == "bernoulli-higher-recurrence":
        return [("lhs", "diagonal-sum", "num", bern_values(l, F(1), c)[m + l])]
    if identity_id == "diag-bernoulli-values":
        top = m + l
        out = [("rhs", "second-kind-link", "num", factorial(top) * ref.gregory_coefficients(top)[top])]
        if top >= 2:
            out.append(("rhs", "order-drop", "num", bern_values(top - 1, F(1), c)[top] / (1 - top)))
        return out
    if identity_id == "w-connections":
        out = []
        if lam != -1:
            out.append(("rhs", "euler-connection", "num", euler_mantissas(alpha, lam, c)[n]))
        if lam != 1:
            out.append(("rhs", "bernoulli-connection", "num",
                        (lam - 1) ** l / factorial(l) / comb(n + l, l) * bern_values(l, lam, c)[n + l]))
        if alpha == 1 and l == 1:
            out.append(("rhs", "euler-value", "num", ref.euler_zero_values(n)[n]))
        return out
    if identity_id == "gf-phi-base":
        vals = ref.touchard_values(x, order)
        return [("lhs", "", "series", [v / factorial(k) for k, v in enumerate(vals)])]
    if identity_id == "gf-w-base":
        vals = ref.general_geometric_values(x, alpha, order)
        return [("lhs", "", "series", [v / factorial(k) for k, v in enumerate(vals)])]
    return []


SAMPLED_IDENTITIES = ("fubini-explicit", "spivey", "w-explicit", "w-general-recurrence", "apostol-euler-recurrence",
                      "apostol-euler-explicit", "apostol-bernoulli-explicit", "apostol-bernoulli-classical",
                      "apostol-bernoulli-diag-recurrence", "apostol-bernoulli-recurrence",
                      "bernoulli-higher-recurrence", "diag-bernoulli-values", "w-connections", "gf-phi-base",
                      "gf-w-base")


def _compare_printed(kind: str, text: str, want) -> str | None:
    if kind == "num":
        return _rat(text, want)
    got = parse_poly(text) if kind == "poly" else parse_series(text)
    want_map = {k: F(v) for k, v in enumerate(want) if v != 0}
    if kind == "series":
        want_map.setdefault(0, F(0))
    return None if got == want_map else f"printed {text[:60]!r}... differs from the reference"


class VerifyCatalog:
    name = "verify-catalog"
    known_faults: frozenset[int] = frozenset()

    def __init__(self, seed: int, grid: Grid, registry_ids) -> None:
        self.seed, self.grid = seed, grid
        self.registry_ids = sorted(registry_ids)
        self.ops = [["verify", "--all", "--format", "json", "--jobs", "1"]]
        self.second_ops = [["verify", "--all", "--format", "json", "--jobs", "2"]]

    def check_op(self, index: int, rc, out: str) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}, expected 0"]
        payload = json.loads(out)
        problems = []
        summary, reports = payload["summary"], payload["reports"]
        if summary["fail"] != 0:
            problems.append(f"{summary['fail']} points fail")
        by_id: dict[str, list[dict]] = {}
        for r in reports:
            by_id.setdefault(r["id"], []).append(r)
        if sorted(by_id) != sorted(IDENTITY_AXES) or self.registry_ids != sorted(IDENTITY_AXES):
            problems.append(f"identity ids {sorted(by_id)} differ from the 25 the benchmark knows")
        total = 0
        for identity_id, axes in IDENTITY_AXES.items():
            got = by_id.get(identity_id, [])
            want = sorted(param_key(p) for p in self.grid.points(axes))
            total += len(want)
            if sorted(param_key(r["params"]) for r in got) != want:
                problems.append(f"{identity_id}: {len(got)} points, grid has {len(want)}")
            for r in got:
                skip = must_skip(identity_id, r["params"])
                status = r["status"]
                if (status == "skipped-domain") != skip or status not in ("pass", "skipped-domain"):
                    problems.append(f"{identity_id} {r['params']}: {status}, domain rules say "
                                    f"{'skipped-domain' if skip else 'pass'}")
                    break
        if summary["pass"] + summary["skipped"] != total or len(reports) != total:
            problems.append(f"pass {summary['pass']} + skipped {summary['skipped']} != grid size {total}")
        rng = random.Random(f"verify-catalog:{self.seed}")
        for identity_id in SAMPLED_IDENTITIES:
            candidates = [r for r in by_id.get(identity_id, []) if r["status"] == "pass"]
            for r in rng.sample(candidates, min(SAMPLES_PER_IDENTITY, len(candidates))):
                sides = {"lhs": parse_labeled(r["lhs"]), "rhs": parse_labeled(r["rhs"])}
                for side, label, kind, want in _sample_expectations(identity_id, r["params"], self.grid.order):
                    text = sides[side].get(label)
                    why = "missing" if text is None else _compare_printed(kind, text, want)
                    if why:
                        problems.append(f"{identity_id} {r['params']} {side} {label!r}: {why}")
        return problems

    def check_run(self, first_outputs: list[str], run_ops) -> list[str]:
        """--perturb on a reduced grid must report every checked point as fail."""
        argv = ["verify", "--all", "--perturb", "--format", "json", "--nmax", "2", "--mmax", "2",
                "--gf-mmax", "1", "--order", "6"]
        (rc, out), = run_ops([argv])
        if rc != 1:
            return [f"--perturb exit code {rc}, expected 1"]
        reports = json.loads(out)["reports"]
        checked = [r for r in reports if r["status"] != "skipped-domain"]
        ids = {r["id"] for r in checked}
        problems = [f"--perturb: {r['id']} {r['params']} reported {r['status']}" for r in checked
                    if r["status"] != "fail"][:5]
        if ids != set(IDENTITY_AXES):
            problems.append(f"--perturb checked only {len(ids)} identities")
        return problems


# ---------------------------------------------------------------------------
# family tables and generating series: one mapping for both routes
# ---------------------------------------------------------------------------

TRIANGLE_N = 240   # Stirling triangles, rendered whole
CLOSED_N = 80      # closed Stirling-sum families
SERIES_BACKED_N = 24  # Bernoulli families whose table is computed from a series
SERIES_ORDER = 64

# family id -> (index, parameters it takes)
TABLES = {
    "exponential-poly": (CLOSED_N, ()),
    "bell": (CLOSED_N, ()),
    "complementary-bell": (CLOSED_N, ()),
    "geometric-poly": (CLOSED_N, ()),
    "fubini": (CLOSED_N, ()),
    "general-geometric": (CLOSED_N, ("alpha",)),
    "euler-classical": (CLOSED_N, ()),
    "euler-higher": (CLOSED_N, ("alpha",)),
    "apostol-euler": (CLOSED_N, ("lambda",)),
    "apostol-euler-higher": (CLOSED_N, ("alpha", "lambda")),
    "bernoulli-classical": (SERIES_BACKED_N, ()),
    "bernoulli-higher": (SERIES_BACKED_N, ("l",)),
    "apostol-bernoulli": (CLOSED_N, ("lambda",)),
    "apostol-bernoulli-higher": (CLOSED_N, ("l", "lambda")),
    "bernoulli-second-kind": (SERIES_BACKED_N, ()),
    "stirling2": (TRIANGLE_N, ()),
    "stirling1-unsigned": (TRIANGLE_N, ()),
}

# Parameter values at which a family's table is another family's table of the
# same round, read back from polyfam's lru_caches (apostol_euler_mantissa,
# apostol_bernoulli_higher, _bernoulli_series) at almost no cost: euler-higher
# at alpha = 1 is euler-classical, apostol-euler at lambda = 1 is euler-higher
# at alpha = 1, and so on.  Drawing them would make a round's cost depend on
# the seed (a collapsed op takes almost no time), so they are not drawn;
# verify-catalog still covers them.
REDUCES_TO_EARLIER = {
    "euler-higher": {"alpha": F(1)},
    "apostol-euler": {"lambda": F(1)},
    "apostol-euler-higher": {"alpha": F(1), "lambda": F(1)},
    "bernoulli-higher": {"l": 1},
    "apostol-bernoulli-higher": {"l": 1},
}

# The one operation that fails today: (1/4)^(1/2) is the rational 1/2, but
# families.scaled() prints it as 1*(1/4)^(1/2).  Its inputs do not depend on
# the seed.
KNOWN_FAULT_TABLE = ["table", "--family", "apostol-euler-higher", "--n", str(CLOSED_N), "--format", "json",
                     "--alpha=1/2", "--lambda=7"]


def _valid(params: dict) -> bool:
    """Parameter domain of the drawn inputs.

    Apostol-Bernoulli needs lambda != 1 and Apostol-Euler lambda != -1.  An
    Euler-type value of fractional order at lambda < -1 has a negative
    prefactor base; its output is not yet defined, so it is not drawn.
    """
    lam, alpha = params.get("lambda"), params.get("alpha")
    if lam is None:
        return True
    if params.get("kind") == "bernoulli":
        return lam != 1
    return lam != -1 and not (alpha is not None and alpha.denominator != 1 and lam < -1)


def _flags(params: dict) -> list[str]:
    names = {"alpha": "--alpha", "l": "--l", "lambda": "--lambda", "x": "--x"}
    return [f"{names[k]}={v}" for k, v in params.items() if k in names]


def _draw(rng: random.Random, grid: Grid, needs: tuple[str, ...], kind: str, alphas=None,
          fixed: dict | None = None, exclude: dict | None = None) -> dict | None:
    """One valid parameter combination (agreeing with ``fixed``, and taking
    none of the values in ``exclude``), or None."""
    pools = {"alpha": alphas or grid.alphas, "l": grid.ls, "lambda": grid.lambdas, "x": grid.xs}
    combos = [dict(zip(needs, c), kind=kind) for c in itertools.product(*(pools[k] for k in needs))]
    combos = [c for c in combos if _valid(c) and all(c[k] == v for k, v in (fixed or {}).items())
              and not any(c.get(k) == v for k, v in (exclude or {}).items())]
    if not combos:
        return None
    pick = rng.choice(combos)
    pick.pop("kind")
    return pick


def _kind(name: str) -> str:
    return "bernoulli" if "bernoulli" in name else "euler"


# The matching generating series of each table family, at the same parameters:
# family -> (series id, fixed series parameters, variable of a polynomial table)
DUAL = {
    "exponential-poly": ("exp-bell", {}, "x"),
    "bell": ("exp-bell", {"x": F(1)}, None),
    "complementary-bell": ("exp-bell", {"x": F(-1)}, None),
    "geometric-poly": ("geometric", {}, "x"),
    "fubini": ("geometric", {"x": F(1)}, None),
    "general-geometric": ("general-geometric", {}, "x"),
    "euler-classical": ("apostol-euler", {"alpha": F(1), "lambda": F(1)}, None),
    "euler-higher": ("apostol-euler", {"lambda": F(1)}, None),
    "apostol-euler": ("apostol-euler", {"alpha": F(1)}, None),
    "apostol-euler-higher": ("apostol-euler", {}, None),
    "bernoulli-classical": ("bernoulli-higher", {"l": 1}, None),
    "bernoulli-higher": ("bernoulli-higher", {}, None),
    "apostol-bernoulli": ("apostol-bernoulli", {"l": 1}, None),
    "apostol-bernoulli-higher": ("apostol-bernoulli", {}, None),
    "bernoulli-second-kind": ("bernoulli-second-kind", {}, None),
}


def table_argv(family: str, n: int, params: dict) -> list[str]:
    return ["table", "--family", family, "--n", str(n), "--format", "json"] + _flags(params)


def series_argv(gf: str, order: int, params: dict) -> list[str]:
    return ["series", "--gf", gf, "--order", str(order), "--format", "json"] + _flags(params)


def _table_reference(family: str, n_max: int, params: dict):
    """(kind, per-index reference) for a family table up to n_max."""
    alpha, lam, l = params.get("alpha"), params.get("lambda"), params.get("l")
    if family == "stirling2":
        return "ints", s2_rows(n_max)
    if family == "stirling1-unsigned":
        return "ints", s1_rows(n_max)
    if family == "exponential-poly":
        return "coeffs", s2_rows(n_max)
    if family == "geometric-poly":
        return "coeffs", [[s * factorial(k) for k, s in enumerate(row)] for row in s2_rows(n_max)]
    if family == "general-geometric":
        return "coeffs", [ref.general_geometric_coeffs(s2_rows(n_max), n, alpha) for n in range(n_max + 1)]
    rational = {
        "bell": lambda: ref.bell_numbers(n_max),
        "complementary-bell": lambda: ref.touchard_values(F(-1), n_max),
        "fubini": lambda: ref.fubini_numbers(n_max),
        "euler-classical": lambda: ref.euler_zero_values(n_max),
        "bernoulli-classical": lambda: bern_values(1, F(1), n_max),
        "bernoulli-higher": lambda: bern_values(l, F(1), n_max),
        "apostol-bernoulli": lambda: bern_values(1, lam, n_max),
        "apostol-bernoulli-higher": lambda: bern_values(l, lam, n_max),
        "bernoulli-second-kind": lambda: ref.gregory_coefficients(n_max),
    }
    if family in rational:
        return "rational", rational[family]()
    euler = {"euler-higher": (alpha, F(1)), "apostol-euler": (F(1), lam), "apostol-euler-higher": (alpha, lam)}
    if family in euler:
        a, lm = euler[family]
        return "scaled", [(m, euler_base(lm), a) for m in euler_mantissas(a, lm, n_max)]
    return None, None


def check_table(family: str, n_max: int, params: dict, rc, out: str) -> list[str]:
    """Every printed table value equals the reference."""
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    payload = json.loads(out)
    rows = payload["rows"]
    if payload["family"] != family or [r["n"] for r in rows] != list(range(n_max + 1)):
        return [f"{family}: wrong family or rows"]
    kind, want = _table_reference(family, n_max, params)
    if kind is None:
        return [f"no reference for family {family}"]
    for n, row in enumerate(r["value"] for r in rows):
        if kind == "ints":
            why = None if [int(v) for v in row] == want[n] else "row differs from the reference"
        elif kind == "coeffs":
            why = _coeff_list(row, want[n])
        elif kind == "rational":
            why = _rat(row, F(want[n]))
        else:
            why = scaled_value_problem(row, *want[n])
        if why:
            return [f"{family} {params} n={n}: {why}"]
    return []


def _series_reference(gf: str, order: int, params: dict) -> tuple[list[F], tuple[F, F, F] | None]:
    """(egf values, prefactor as mantissa/base/exponent or None)."""
    x, alpha, lam, l = params.get("x"), params.get("alpha"), params.get("lambda"), params.get("l")
    if gf == "exp-bell":
        return ref.touchard_values(x, order), None
    if gf == "geometric":
        return ref.geometric_values(x, order), None
    if gf == "general-geometric":
        return ref.general_geometric_values(x, alpha, order), None
    if gf == "apostol-euler":
        mant = euler_mantissas(alpha, lam, order)
        if alpha.denominator == 1:
            return [euler_base(lam) ** int(alpha) * v for v in mant], None
        return mant, (F(1), euler_base(lam), alpha)
    if gf == "apostol-bernoulli":
        return bern_values(l, lam, order), None
    if gf == "bernoulli-higher":
        return bern_values(l, F(1), order), None
    if gf == "bernoulli-second-kind":
        return ref.egf_values(ref.gregory_coefficients(order)), None
    raise KeyError(gf)


def check_series(gf: str, order: int, params: dict, rc, out: str) -> list[str]:
    """The requested order, egf = n! coeff, and every value equal to the reference."""
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    payload = json.loads(out)
    coeffs, egf = payload["coeffs"], payload["egf"]
    if payload["gf"] != gf or payload["order"] != order or len(coeffs) != order + 1 or len(egf) != order + 1:
        return [f"{gf}: order {payload['order']} with {len(egf)} values, requested {order}"]
    if any(F(e) != factorial(n) * F(c) for n, (c, e) in enumerate(zip(coeffs, egf))):
        return [f"{gf} {params}: egf is not n! times the coefficients"]
    want, prefactor = _series_reference(gf, order, params)
    for n, (text, value) in enumerate(zip(egf, want)):
        if F(text) != value:
            return [f"{gf} {params} n={n}: printed {text}, reference {value}"]
    if prefactor is not None:
        why = scaled_value_problem(payload.get("prefactor", ""), *prefactor)
        if why:
            return [f"{gf} {params} prefactor: {why}"]
    elif "prefactor" in payload:
        return [f"{gf} {params}: unexpected prefactor {payload['prefactor']}"]
    return []


def dual_route(family: str, table_out: str, series_out: str, x: F | None) -> list[str]:
    """The paper's dual-route property: the table equals the series' egf list
    (times its prefactor) at the same parameters, over the common indices."""
    rows = [r["value"] for r in json.loads(table_out)["rows"]]
    payload = json.loads(series_out)
    if family == "bernoulli-second-kind":
        series_vals = [(F(c), F(1), F(0)) for c in payload["coeffs"]]
    else:
        pm, pb, pe = parse_scaled(payload.get("prefactor", "1"))
        series_vals = [(F(e) * pm, pb, pe) for e in payload["egf"]]
    for n, (row, sv) in enumerate(zip(rows, series_vals)):
        if isinstance(row, list):
            tv = (sum((F(c) * x ** k for k, c in enumerate(row)), F(0)), F(1), F(0))
        else:
            tv = parse_scaled(row)
        if tv[1] <= 0 or sv[1] <= 0 or not ref.same_real(tv, sv):
            return [f"dual route {family}: table n={n} {row!r} != series {sv}"]
    if min(len(rows), len(series_vals)) < 2:
        return [f"dual route {family}: nothing to compare"]
    return []


class FamilyTables:
    name = "family-tables"

    def __init__(self, seed: int, grid: Grid, families) -> None:
        rng = random.Random(f"family-tables:{seed}")
        self.unknown = [f for f in families if f not in TABLES]
        self.entries = []  # (family, n, params)
        for family in families:
            if family not in TABLES:
                continue
            n, needs = TABLES[family]
            params = _draw(rng, grid, needs, _kind(family), exclude=REDUCES_TO_EARLIER.get(family)) if needs else {}
            self.entries.append((family, n, params))
        self.xs = {family: rng.choice(grid.xs) for family, _, _ in self.entries}
        self.ops = [table_argv(f, n, p) for f, n, p in self.entries] + [KNOWN_FAULT_TABLE]
        self.second_ops = self.ops
        self.known_faults = frozenset({len(self.ops) - 1})

    def check_op(self, index: int, rc, out: str) -> list[str]:
        if index == len(self.entries):
            return check_table("apostol-euler-higher", CLOSED_N, {"alpha": F(1, 2), "lambda": F(7)}, rc, out)
        return check_table(*self.entries[index], rc, out)

    def check_run(self, first_outputs: list[str], run_ops) -> list[str]:
        problems = [f"no reference for family {f}" for f in self.unknown]
        pairs = []
        for i, (family, n, params) in enumerate(self.entries):
            if family in DUAL:
                gf, fixed, var = DUAL[family]
                x = self.xs[family] if var else None
                series_params = {**params, **fixed, **({"x": x} if var else {})}
                pairs.append((i, family, series_argv(gf, n, series_params), x))
        results = run_ops([argv for _, _, argv, _ in pairs])
        for (i, family, argv, x), (rc, out) in zip(pairs, results):
            problems += [f"{' '.join(argv)}: exit code {rc}"] if rc != 0 else dual_route(
                family, first_outputs[i], out, x)
        return problems


# series id -> (parameters it takes, pool of alpha values, one op per lambda)
SERIES = [
    ("exp-bell", ("x",), None, False),
    ("geometric", ("x",), None, False),
    ("general-geometric", ("x", "alpha"), None, False),
    # integer order: the plain series route
    ("apostol-euler", ("alpha", "lambda"), "int", False),
    # fractional order: the mantissa series and its prefactor.  Its cost
    # depends on lambda far more than any other op's cost on its parameters
    # (at order 64, 0.17 s at lambda = 1 against 0.3-0.4 s elsewhere), so it
    # runs at every valid lambda of the grid, with alpha drawn for each, and
    # one seed's round costs about what another's does.
    ("apostol-euler", ("alpha", "lambda"), "frac", True),
    ("apostol-bernoulli", ("l", "lambda"), None, False),
    ("bernoulli-higher", ("l",), None, False),
    ("bernoulli-second-kind", (), None, False),
]

# general-geometric at alpha = 1 is the geometric series, cached by
# gf_general_geometric (see REDUCES_TO_EARLIER)
SERIES_REDUCES_TO_EARLIER = {"general-geometric": {"alpha": F(1)}}

# series id -> matching table family; a polynomial family is evaluated at x
SERIES_DUAL = {"exp-bell": "exponential-poly", "geometric": "geometric-poly",
               "general-geometric": "general-geometric", "apostol-euler": "apostol-euler-higher",
               "apostol-bernoulli": "apostol-bernoulli-higher", "bernoulli-higher": "bernoulli-higher",
               "bernoulli-second-kind": "bernoulli-second-kind"}


class DeepSeries:
    name = "deep-series"
    known_faults: frozenset[int] = frozenset()

    def __init__(self, seed: int, grid: Grid) -> None:
        rng = random.Random(f"deep-series:{seed}")
        self.entries = []  # (gf, params)
        for gf, needs, alpha_pool, every_lambda in SERIES:
            alphas = {"int": grid.int_alphas, "frac": grid.frac_alphas}.get(alpha_pool)
            for fixed in ([{"lambda": lam} for lam in grid.lambdas] if every_lambda else [{}]):
                params = _draw(rng, grid, needs, _kind(gf), alphas, fixed,
                               SERIES_REDUCES_TO_EARLIER.get(gf)) if needs else {}
                if params is not None:
                    self.entries.append((gf, params))
        self.ops = [series_argv(gf, SERIES_ORDER, p) for gf, p in self.entries]
        self.second_ops = self.ops

    def check_op(self, index: int, rc, out: str) -> list[str]:
        gf, params = self.entries[index]
        return check_series(gf, SERIES_ORDER, params, rc, out)

    def check_run(self, first_outputs: list[str], run_ops) -> list[str]:
        argvs = []
        for gf, params in self.entries:
            table_params = {k: v for k, v in params.items() if k != "x"}
            argvs.append(table_argv(SERIES_DUAL[gf], SERIES_ORDER, table_params))
        problems = []
        for (gf, params), argv, out, (rc, table_out) in zip(self.entries, argvs, first_outputs, run_ops(argvs)):
            if rc != 0:
                problems.append(f"{' '.join(argv)}: exit code {rc}")
            else:
                problems += dual_route(SERIES_DUAL[gf], table_out, out, params.get("x"))
        return problems
