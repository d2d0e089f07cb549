"""Command-line front end: family tables, identity verification, series.

Exit codes: 0 all checks pass (or table/series emitted), 1 at least one
identity failed, 2 usage or domain error.  All numeric I/O is exact rational
strings; nothing here ever touches floating point.
"""

from __future__ import annotations

import argparse
import csv
import re
import sys
from dataclasses import replace
from fractions import Fraction
from functools import cache
from itertools import accumulate, count, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import mul

from . import families as fam
from .identities import REGISTRY, GridConfig, run_all
from .poly import Poly
from .rationals import DomainError, parse_rational, rational_str


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _rational_list(text: str) -> list[Fraction]:
    """Comma-separated rationals, a repeated value kept once (the first); an
    empty part is an error, not an empty axis."""
    parts = text.split(",")
    if not all(part.strip() for part in parts):
        raise DomainError(f"empty value in list {text!r}")
    return list(dict.fromkeys(map(parse_rational, parts)))


def _int_list(text: str) -> list[int]:
    values = _rational_list(text)
    if any(v.denominator != 1 for v in values):
        raise DomainError(f"not a list of integers: {text!r}")
    return [int(v) for v in values]


@cache  # one parser per process: parse_args keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="polyfam", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
        p.add_argument("--config", help="flat key=value file mirroring the flags")
        return p

    def values(p: argparse.ArgumentParser) -> None:
        p.add_argument("--alpha", type=str, default=None)
        p.add_argument("--l", type=int, default=None)
        p.add_argument("--lambda", dest="lam", type=str, default=None)

    t = command("table", "emit n -> value rows for a family")
    t.add_argument("--family", required=True)
    t.add_argument("--n", type=int, default=8, help="largest index to emit")
    values(t)

    v = command("verify", "run identity checks over a grid")
    v.add_argument("--jobs", type=int, default=1,
                   help="worker processes; at N > 1 whole identities run in min(N, ids) processes, same output")
    v.add_argument("--all", action="store_true", help="run every registered identity")
    v.add_argument("--id", action="append", default=None, help="identity id (repeatable)")
    v.add_argument("--list", action="store_true", help="list identity ids and exit")
    v.add_argument("--nmax", type=int, default=None)
    v.add_argument("--mmax", type=int, default=None)
    v.add_argument("--nm-sum", type=int, default=None)
    v.add_argument("--gf-mmax", type=int, default=None)
    v.add_argument("--l", type=str, default=None, help="comma-separated orders")
    v.add_argument("--alpha", type=str, default=None, help="comma-separated rational orders")
    v.add_argument("--lambda", dest="lam", type=str, default=None, help="comma-separated rationals")
    v.add_argument("--x", type=str, default=None, help="comma-separated rational sample points")
    v.add_argument("--order", type=int, default=None, help="series truncation order")
    v.add_argument("--perturb", action="store_true",
                   help="negative control: inject an off-by-one error into every check")
    v.add_argument("--lambda-certify", action="store_true",
                   help="replace the lambda grid with enough points to certify rational-function identities")
    v.add_argument("--timing", action="store_true", help="record per-point wall time (non-deterministic output)")

    s = command("series", "print a generating series")
    s.add_argument("--gf", required=True, help=f"one of: {', '.join(fam.SERIES)}")
    s.add_argument("--x", type=str, default=None)
    values(s)
    s.add_argument("--order", type=int, default=8)
    return parser


# reads --config the way the subcommand's parser will, abbreviations included;
# a malformed one is left for that parser to report
_CONFIG_PARSER = argparse.ArgumentParser(add_help=False, exit_on_error=False)
_CONFIG_PARSER.add_argument("--config")


def _apply_config(argv: list[str]) -> list[str]:
    """Prepend config-file values so explicit flags override them."""
    try:
        path = _CONFIG_PARSER.parse_known_args(argv[1:])[0].config
    except argparse.ArgumentError:
        return argv
    if path is None:
        return argv
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except UnicodeDecodeError as exc:
        raise UsageError(f"config file {path} is not UTF-8 text: {exc}") from None
    injected: list[str] = []
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line is not key=value: {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if value.lower() in ("true", "yes", "on"):
            injected.append(f"--{key}")
        elif value.lower() not in ("false", "no", "off"):
            injected.extend([f"--{key}", value])
    # insert after the subcommand so explicit flags win over config values
    return argv[:2] + injected + argv[2:]


# argparse takes a token such as -1/2 or -3,1/2 for an option, so a flag
# followed by one gets it joined on as --flag=value
_NEGATIVE_RATIONALS = re.compile(r"^-\d+(/\d+)?(,[+-]?\d+(/\d+)?)*$")


def _join_negative_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    for arg in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and _NEGATIVE_RATIONALS.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _cell(value, as_json: bool):
    """One table cell in the one form its format prints; json takes a list
    of strings for a polynomial or a triangle row."""
    if isinstance(value, Poly):
        return value.coeff_strings() if as_json else str(value)
    if isinstance(value, tuple):  # triangle row
        return list(map(str, value)) if as_json else " ".join(map(str, value))
    return str(value) if isinstance(value, fam.ScaledRational) else rational_str(value)


def _real(value):
    """value, unless it is a formal power of a negative base at a fractional
    exponent, (2/(lam+1))^alpha at lam < -1 and non-integer alpha: that is
    not a real number, so it is refused rather than printed as one."""
    if isinstance(value, fam.ScaledRational) and value.base < 0:
        raise DomainError(f"no real value: (2/(lambda+1))^alpha leaves the factor ({rational_str(value.base)})"
                          f"^({rational_str(value.exponent)}); lambda < -1 needs an integer alpha")
    return value


def _write_csv(rows: list[list[str]]) -> None:
    csv.writer(sys.stdout, lineterminator="\n").writerows(rows)


_JSON_BLOCK = 4096  # pieces joined per write


class _Rendered(tuple):
    """A JSON array of texts _json rendered at its item depth, for _write_json's top levels only."""


def _json(value, pad: str = "") -> str:
    """json.dumps(value, indent=2) of a dict with str keys, list, str, int, bool or None
    written at indent pad; any other type, float and Fraction included, raises TypeError."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, dict):
        brackets, entries = "{}", [f"{encode_basestring_ascii(key)}: {_json(v, inner)}" for key, v in value.items()]
    elif isinstance(value, list):
        brackets, entries = "[]", [_json(v, inner) for v in value]
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(entries) + f"\n{pad}{brackets[1]}" if entries else brackets


def _pieces(value, pad: str, levels: int):
    """_json(value, pad) as texts to concatenate: a dict or list in the top
    `levels` levels cut at its entries, a _Rendered array at its item texts."""
    if not levels or not isinstance(value, (dict, list, _Rendered)):
        yield _json(value, pad)
        return
    inner, brackets = pad + "  ", "{}" if isinstance(value, dict) else "[]"
    sep = f"{brackets[0]}\n{inner}"
    for key, v in value.items() if brackets == "{}" else zip(repeat(None), value):
        yield f"{sep}{encode_basestring_ascii(key)}: " if brackets == "{}" else sep
        yield from (v,) if type(value) is _Rendered else _pieces(v, inner, levels - 1)
        sep = f",\n{inner}"
    yield f"\n{pad}{brackets[1]}" if value else brackets


def _write_json(obj) -> None:
    """Write json.dumps(obj, indent=2) and a newline to stdout, _JSON_BLOCK pieces a write, cut at the
    entries of its top three levels, which hold each payload's bulk: verify's reports, a table's rows."""
    pieces = _pieces(obj, "", 3)
    while block := list(islice(pieces, _JSON_BLOCK)):
        sys.stdout.write("".join(block))
    sys.stdout.write("\n")


def _report_json(report) -> str:
    """One report as the verify payload's "reports" array holds it, two levels deep."""
    return _json(report.to_dict(), "    ")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _value_flags(args) -> dict:
    """The value flags given to `table` or `series`, as the keywords of
    family_value/series_value, in the order x, alpha, l, lambda; the
    rationals parsed exactly."""
    given = {key: getattr(args, key, None) for key in ("x", "alpha", "l", "lam")}
    return {key: value if key == "l" else parse_rational(value) for key, value in given.items() if value is not None}


def _param_obj(flags: dict, spec: fam.Spec) -> dict:
    """The JSON `params` object: the value flags the spec reads, in the order of its needs."""
    return {need: rational_str(flags["lam" if need == "lambda" else need]) for need in spec.needs}


def cmd_table(args) -> int:
    if args.n < 0:
        raise UsageError("--n must be >= 0")
    flags = _value_flags(args)
    values = [_real(fam.family_value(args.family, n, **flags)) for n in range(args.n + 1)]
    if args.format == "json":
        payload = {
            "family": args.family,
            "params": _param_obj(flags, fam.FAMILIES[args.family]),
            "rows": [{"n": n, "value": _cell(v, True)} for n, v in enumerate(values)],
        }
        _write_json(payload)
    elif args.format == "csv":
        _write_csv([[str(n), _cell(v, False)] for n, v in enumerate(values)])
    else:
        for n, v in enumerate(values):
            sys.stdout.write(f"{n}\t{_cell(v, False)}\n")
    return 0


_GRID_INTS = ("nmax", "mmax", "nm_sum", "gf_mmax", "order")


def _grid_from_args(args) -> GridConfig:
    grid = GridConfig()
    updates = {key: getattr(args, key) for key in _GRID_INTS if getattr(args, key) is not None}
    for key, value in updates.items():
        if value < 0:
            raise UsageError(f"--{key.replace('_', '-')} must be >= 0")
    if args.nm_sum is None and (args.nmax is not None or args.mmax is not None):
        updates["nm_sum"] = updates.get("nmax", grid.nmax) + updates.get("mmax", grid.mmax)
    if args.l is not None:
        updates["ls"] = tuple(_int_list(args.l))
        if min(updates["ls"]) < 1:
            raise UsageError("--l must be >= 1")
    if args.alpha is not None:
        alphas = _rational_list(args.alpha)
        updates["int_alphas"] = tuple(int(a) for a in alphas if a.denominator == 1)
        updates["frac_alphas"] = tuple(a for a in alphas if a.denominator != 1)
    if args.lam is not None:
        updates["lambdas"] = tuple(_rational_list(args.lam))
    if args.x is not None:
        updates["xs"] = tuple(_rational_list(args.x))
    return replace(grid, certify=args.lambda_certify, **updates)


def cmd_verify(args) -> int:
    if args.list:
        for identity_id in sorted(REGISTRY):
            sys.stdout.write(f"{identity_id}\t{REGISTRY[identity_id].description}\n")
        return 0
    if not args.all and not args.id:
        raise UsageError("choose identities with --all or --id")
    if args.jobs < 1:
        raise UsageError("--jobs must be >= 1")
    ids = None if args.all else args.id
    if ids is not None:
        unknown = [i for i in dict.fromkeys(ids) if i not in REGISTRY]
        if unknown:
            raise UsageError(f"unknown identity id: {', '.join(unknown)}")
    grid = _grid_from_args(args)
    summary, reports, bounds = run_all(grid, ids, perturb=args.perturb, timing=args.timing, jobs=args.jobs,
                                       render=_report_json if args.format == "json" else None)
    if args.format == "json":
        payload = {"summary": summary.to_dict(), "reports": _Rendered(reports)}
        if bounds:
            payload["lambda_certification"] = {
                identity_id: {"degree_bound": bound, "lambda_points": 2 * bound + 2}
                for identity_id, bound in sorted(bounds.items())
            }
        _write_json(payload)
    elif args.format == "csv":
        rows = [["id", "params", "status", "lhs", "rhs", "micros"]]
        for r in reports:
            params = " ".join(f"{k}={v}" for k, v in r.params.items())
            rows.append([r.id, params, r.status, r.lhs, r.rhs, str(r.micros)])
        _write_csv(rows)
        sys.stdout.write(f"# pass={summary.passed} fail={summary.failed} skipped={summary.skipped}\n")
    else:
        for r in reports:
            params = " ".join(f"{k}={v}" for k, v in r.params.items())
            line = f"{r.status:<14} {r.id} [{params}]"
            if r.status == "fail":
                line += f" lhs={r.lhs} rhs={r.rhs}"
            if r.status == "skipped-domain":
                line += f" ({r.reason})"
            sys.stdout.write(line + "\n")
        for identity_id, bound in sorted(bounds.items()):
            sys.stdout.write(f"certified-degree {identity_id}: D={bound} at {2 * bound + 2} lambda points\n")
        sys.stdout.write(f"pass={summary.passed} fail={summary.failed} skipped={summary.skipped}\n")
    return 1 if summary.failed else 0


def cmd_series(args) -> int:
    if args.order < 0:
        raise UsageError("--order must be >= 0")
    flags = _value_flags(args)
    series, prefactor = fam.series_value(args.gf, args.order, **flags)
    prefactor = None if prefactor is None else str(_real(prefactor))
    coeffs = series.coeff_strings()
    egf = [rational_str(f * c) for f, c in zip(accumulate(count(1), mul, initial=1), series.coeffs)]
    if args.format == "json":
        payload = {"gf": args.gf, "params": _param_obj(flags, fam.SERIES[args.gf]), "order": series.order,
                   "coeffs": coeffs, "egf": egf}
        if prefactor:
            payload["prefactor"] = prefactor
        _write_json(payload)
    elif args.format == "csv":
        rows = [["n", "coeff", "egf"]] + [[str(n), coeffs[n], egf[n]] for n in range(series.order + 1)]
        _write_csv(rows)
        if prefactor:
            sys.stdout.write(f"# prefactor={prefactor}\n")
    else:
        sys.stdout.write(f"series: {series}\n")
        if prefactor:
            sys.stdout.write(f"prefactor: {prefactor}\n")
        for n in range(series.order + 1):
            sys.stdout.write(f"{n}\t{coeffs[n]}\t{egf[n]}\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv if argv is None else ["polyfam"] + list(argv))
    try:
        argv = _join_negative_values(_apply_config(argv))
        try:
            args = build_parser().parse_args(argv[1:])
        except SystemExit as exc:  # argparse reports its own usage errors
            return int(exc.code or 0)
        # looked up at each call, not held by the cached parser, so a rebound command runs
        return {"table": cmd_table, "verify": cmd_verify, "series": cmd_series}[args.command](args)
    except (UsageError, DomainError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
