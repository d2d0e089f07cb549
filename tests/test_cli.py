import argparse
import csv
import json
import re
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

from polyfam import cli
from polyfam import families as fam
from polyfam.cli import _apply_config, _grid_from_args, build_parser, main
from polyfam.identities import GridConfig, run_all

from .test_runner import REDUCED, reduced_grid


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_bell_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "bell", "--n", "6", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["0,1", "1,1", "2,2", "3,5", "4,15", "5,52", "6,203"]


def test_table_general_geometric(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "general-geometric",
                           "--alpha", "3", "--n", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["0,1", "1,3x", "2,3x+12x^2"]


def test_table_domain_guard(capsys):
    code, _, err = run_cli(capsys, "table", "--family", "apostol-bernoulli-higher",
                           "--l", "2", "--lambda", "1", "--n", "4")
    assert code == 2
    assert "lambda=1 not in domain; use bernoulli-higher" in err


def test_table_unknown_family(capsys):
    code, _, err = run_cli(capsys, "table", "--family", "nope", "--n", "3")
    assert code == 2 and "unknown family" in err


def test_table_json_polynomials(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "exponential-poly", "--n", "3",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][3]["value"] == ["0", "1", "3", "1"]


def test_table_scaled_family(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "apostol-euler-higher",
                           "--alpha", "1/2", "--lambda", "3", "--n", "0", "--format", "csv")
    assert code == 0
    assert out.strip() == "0,1*(1/2)^(1/2)"


def test_table_rational_euler_values_print_as_rationals(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "apostol-euler-higher",
                           "--alpha=1/2", "--lambda=7", "--n", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["0,1/2", "1,-7/32", "2,35/512", "3,119/8192"]


def test_table_negative_fraction_as_separate_argument(capsys):
    code, joined, _ = run_cli(capsys, "table", "--family", "apostol-euler", "--lambda=-1/2", "--n", "3")
    assert code == 0
    code, out, _ = run_cli(capsys, "table", "--family", "apostol-euler", "--lambda", "-1/2", "--n", "3")
    assert code == 0 and out == joined


def test_table_and_series_take_no_jobs(capsys):
    code, _, err = run_cli(capsys, "table", "--family", "bell", "--jobs", "2")
    assert code == 2 and "--jobs" in err
    code, _, err = run_cli(capsys, "series", "--gf", "exp-bell", "--x", "1", "--jobs", "2")
    assert code == 2 and "--jobs" in err


def test_series_exp_bell(capsys):
    code, out, _ = run_cli(capsys, "series", "--gf", "exp-bell", "--x", "1",
                           "--order", "6", "--format", "csv")
    assert code == 0
    egf = [line.split(",")[2] for line in out.splitlines()[1:]]
    assert egf == ["1", "1", "2", "5", "15", "52", "203"]


def test_series_geometric(capsys):
    code, out, _ = run_cli(capsys, "series", "--gf", "geometric", "--x", "1",
                           "--order", "5", "--format", "json")
    assert code == 0
    assert json.loads(out)["egf"] == ["1", "1", "3", "13", "75", "541"]


def test_series_apostol_bernoulli(capsys):
    code, out, _ = run_cli(capsys, "series", "--gf", "apostol-bernoulli", "--l", "1",
                           "--lambda", "2", "--order", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["coeffs"] == ["0", "1", "-2", "3"]
    assert payload["egf"] == ["0", "1", "-4", "18"]


def test_series_singular_parameter(capsys):
    code, _, err = run_cli(capsys, "series", "--gf", "apostol-bernoulli", "--l", "1",
                           "--lambda", "1", "--order", "3")
    assert code == 2 and "bernoulli-higher" in err


@pytest.mark.parametrize("gf", sorted(fam.SERIES))
def test_series_missing_parameter_names_the_flag(capsys, gf):
    values = {"x": "1", "alpha": "2", "l": "1", "lambda": "2"}
    for need in fam.SERIES[gf].needs:
        flags = [f"--{k}={v}" for k, v in values.items() if k != need]
        code, out, err = run_cli(capsys, "series", "--gf", gf, "--order", "2", *flags)
        assert code == 2 and out == ""
        assert f"--{need}" in err


def test_series_help_lists_the_series_table(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "400")  # keep the --gf help on one line
    code, out, _ = run_cli(capsys, "series", "--help")
    assert code == 0
    assert re.search(r"one of: (.*)", out).group(1).strip().split(", ") == list(fam.SERIES)


def test_series_negative_fraction_as_separate_argument(capsys):
    code, out, _ = run_cli(capsys, "series", "--gf", "exp-bell", "--x", "-1/2", "--order", "3",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["params"] == {"x": "-1/2"}
    assert payload["egf"] == ["1", "-1/2", "-1/4", "1/8"]  # phi_n(-1/2)


def test_series_fractional_alpha_prefactor(capsys):
    code, out, _ = run_cli(capsys, "series", "--gf", "apostol-euler", "--alpha", "1/2",
                           "--lambda", "3", "--order", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["prefactor"] == "1*(1/2)^(1/2)"
    assert payload["egf"][0] == "1"


def test_series_csv_ends_with_its_prefactor(capsys):
    code, out, _ = run_cli(capsys, "series", "--gf", "apostol-euler", "--alpha", "5/2", "--lambda", "2",
                           "--format", "csv")
    assert code == 0
    assert out.splitlines()[-1] == "# prefactor=4/9*(2/3)^(1/2)"  # (2/3)^(5/2)


@pytest.mark.parametrize("alpha", ["0", "-1", "-2"])
def test_series_apostol_euler_takes_integer_orders_below_one(capsys, alpha):
    code, out, _ = run_cli(capsys, "series", "--gf", "apostol-euler", "--alpha", alpha, "--lambda", "2",
                           "--order", "6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert "prefactor" not in payload
    code, out, _ = run_cli(capsys, "table", "--family", "apostol-euler-higher", "--alpha", alpha, "--lambda", "2",
                           "--n", "6", "--format", "json")
    assert code == 0
    assert payload["egf"] == [row["value"] for row in json.loads(out)["rows"]]


FLAG_VALUES = {"x": "1", "alpha": "2", "l": "1", "lambda": "2"}


@pytest.mark.parametrize("command, key, registry", [
    ("table", "--family", fam.FAMILIES), ("series", "--gf", fam.SERIES),
])
@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
def test_an_unread_value_flag_leaves_the_bytes_unchanged(capsys, command, key, registry, fmt):
    flags = ("alpha", "l", "lambda") + (("x",) if command == "series" else ())
    for spec_id, spec in registry.items():
        needed = [f"--{k}={FLAG_VALUES[k]}" for k in spec.needs]
        unread = [f"--{k}={FLAG_VALUES[k]}" for k in flags if k not in spec.needs]
        argv = [command, key, spec_id, "--n" if command == "table" else "--order", "3", "--format", fmt]
        code, want, _ = run_cli(capsys, *argv, *needed)
        assert code == 0, spec_id
        assert run_cli(capsys, *argv, *unread, *needed) == (0, want, ""), spec_id
        if fmt == "json":
            assert list(json.loads(want)["params"]) == [k for k in ("x", "alpha", "l", "lambda") if k in spec.needs]


def test_verify_subset_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--id", "spivey", "--nmax", "8", "--mmax", "4",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["fail"] == 0
    points = {(r["params"]["n"], r["params"]["m"]) for r in payload["reports"]}
    assert points == {(str(n), str(m)) for n in range(9) for m in range(5)}


def test_verify_exit_codes(capsys):
    code, _, _ = run_cli(capsys, "verify", "--id", "spivey", "--nmax", "2", "--mmax", "2")
    assert code == 0
    code, _, _ = run_cli(capsys, "verify", "--id", "spivey", "--nmax", "2", "--mmax", "2",
                         "--perturb")
    assert code == 1
    code, _, err = run_cli(capsys, "verify", "--id", "no-such-id")
    assert code == 2 and "unknown identity id" in err
    code, _, err = run_cli(capsys, "verify")
    assert code == 2 and "--all or --id" in err


def test_verify_json_roundtrip_and_jobs_determinism(capsys):
    args = ("verify", "--all", "--nmax", "2", "--mmax", "2", "--gf-mmax", "1",
            "--order", "6", "--lambda", "2", "--alpha", "1,2", "--l", "1,2",
            "--x", "1", "--format", "json")
    code, out1, _ = run_cli(capsys, *args, "--jobs", "1")
    assert code == 0
    code, out4, _ = run_cli(capsys, *args, "--jobs", "4")
    assert code == 0
    assert out1 == out4
    assert json.dumps(json.loads(out1), indent=2) + "\n" == out1


def test_verify_repeated_id_runs_once(capsys):
    args = ("verify", "--nmax", "1", "--mmax", "1")
    code, once, _ = run_cli(capsys, *args, "--id", "spivey")
    assert code == 0
    code, twice, _ = run_cli(capsys, *args, "--id", "spivey", "--id", "spivey")
    assert code == 0 and twice == once
    assert len(once.splitlines()) == 4 + 1 and "pass=4 fail=0" in once


def test_verify_repeated_grid_value_runs_once(capsys):
    # 1 and 1/1 are one value: the first spelling is kept, the point reported once
    code, out, _ = run_cli(capsys, "verify", "--id", "gf-w-base", "--alpha", "1,1/1", "--x", "1,1", "--order", "3")
    assert code == 0
    assert out == "pass           gf-w-base [alpha=1 x=1]\npass=1 fail=0 skipped=0\n"


def test_verify_names_a_repeated_unknown_id_once(capsys):
    code, out, err = run_cli(capsys, "verify", "--id", "nope", "--id", "spivey", "--id", "zap", "--id", "nope")
    assert code == 2 and out == ""
    assert err == "error: unknown identity id: nope, zap\n"


@pytest.mark.parametrize("argv", [
    ("table", "--family", "apostol-euler-higher", "--n", "2"),
    ("series", "--gf", "apostol-euler", "--order", "2"),
])
@pytest.mark.parametrize("alpha, lam", [("1/2", "-3"), ("5/2", "-5"), ("-3/2", "-7/5")])
def test_fractional_order_below_lambda_minus_one_is_refused(capsys, argv, alpha, lam):
    code, out, err = run_cli(capsys, *argv, "--alpha", alpha, "--lambda", lam)
    assert code == 2 and out == ""
    assert err.startswith("error: no real value: ") and "lambda < -1 needs an integer alpha" in err


def test_integer_order_below_lambda_minus_one_prints_rationals(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "apostol-euler-higher", "--alpha", "2",
                           "--lambda", "-3", "--n", "2", "--format", "csv")
    assert code == 0 and out.splitlines() == ["0,1", "1,-3", "2,21/2"]
    code, out, _ = run_cli(capsys, "series", "--gf", "apostol-euler", "--alpha", "2",
                           "--lambda", "-3", "--order", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert "prefactor" not in payload and payload["egf"] == ["1", "-3", "21/2"]


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_verify_rejects_jobs_below_one(capsys, jobs):
    code, out, err = run_cli(capsys, "verify", "--all", "--jobs", jobs)
    assert code == 2 and out == ""
    assert "--jobs must be >= 1" in err


@pytest.mark.parametrize("flag", ["--nmax", "--mmax", "--nm-sum", "--gf-mmax", "--order"])
def test_verify_rejects_grid_bounds_below_zero(capsys, flag):
    code, out, err = run_cli(capsys, "verify", "--all", flag, "-1")
    assert code == 2 and out == ""
    assert f"{flag} must be >= 0" in err


@pytest.mark.parametrize("argv, flag", [
    (("table", "--family", "bell"), "--n"),
    (("series", "--gf", "exp-bell"), "--order"),
])
def test_table_and_series_reject_bounds_below_zero(capsys, argv, flag):
    assert run_cli(capsys, *argv, flag, "-1") == (2, "", f"error: {flag} must be >= 0\n")


@pytest.mark.parametrize("flags", [(), ("--perturb",)])
def test_verify_csv_rows_roll_up_to_the_reports_of_run_all(capsys, flags):
    # the per-identity rollup: polyfam verify --all --format csv | cut -d, -f1,3 | sort | uniq -c
    code, out, _ = run_cli(capsys, "verify", "--all", *REDUCED, *flags, "--format", "csv")
    *lines, trailer = out.splitlines()
    rows = list(csv.reader(lines))[1:]
    summary, reports, _ = run_all(reduced_grid(), perturb=bool(flags))
    assert code == (1 if flags else 0)
    # per id and status, so also each id's points, fails and skips
    assert Counter((row[0], row[2]) for row in rows) == Counter((r.id, r.status) for r in reports)
    assert trailer == f"# pass={summary.passed} fail={summary.failed} skipped={summary.skipped}"
    assert summary.skipped > 0 and (summary.failed > 0) == bool(flags)


@pytest.mark.parametrize("identity_id", ["gf-apostol-bernoulli-shift", "finite-sums", "spivey"])
@pytest.mark.parametrize("ls", [["--l", "0"], ["--l=-1,2"]])
def test_verify_rejects_orders_below_one(capsys, identity_id, ls):
    # refused up front, also for an identity that ignores l
    assert run_cli(capsys, "verify", "--id", identity_id, *ls) == (2, "", "error: --l must be >= 1\n")


def test_verify_accepts_orders_from_one(capsys):
    code, out, _ = run_cli(capsys, "verify", "--id", "apostol-bernoulli-explicit", "--nmax", "2", "--l", "1,2")
    assert code == 0 and out.endswith("fail=0 skipped=6\n")


def test_verify_list(capsys):
    code, out, _ = run_cli(capsys, "verify", "--list")
    assert code == 0
    assert "spivey" in out and "poly-shift-theorem" in out


def test_verify_lambda_certify(capsys):
    code, out, _ = run_cli(capsys, "verify", "--id", "apostol-bernoulli-classical",
                           "--nmax", "1", "--mmax", "1", "--l", "1", "--alpha", "1",
                           "--x", "1", "--order", "6", "--lambda-certify", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    cert = payload["lambda_certification"]["apostol-bernoulli-classical"]
    assert cert["lambda_points"] == 2 * cert["degree_bound"] + 2
    lambdas = {r["params"]["lambda"] for r in payload["reports"]}
    assert len(lambdas) == cert["lambda_points"]
    assert payload["summary"]["fail"] == 0


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("# comment\nid = spivey\nnmax = 2\nmmax = 3\nformat = json\n")
    code, out, _ = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["summary"]["pass"] == 12
    # explicit flag overrides the config value
    code, out, _ = run_cli(capsys, "verify", "--config", str(cfg), "--mmax", "0")
    assert code == 0
    assert json.loads(out)["summary"]["pass"] == 3


def test_config_file_false_leaves_the_flag_out(tmp_path, capsys):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("id = spivey\nnmax = 2\nmmax = 3\nformat = json\nperturb = false\ntiming = no\nall = off\n")
    code, out, _ = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["summary"]["pass"] == 12


PRESET = Path(__file__).resolve().parent.parent / "scripts" / "certify_lambda.cfg"


def test_certify_lambda_preset_grid():
    argv = _apply_config(["polyfam", "verify", "--config", str(PRESET)])
    args = build_parser().parse_args(argv[1:])
    assert args.all and args.format == "plain"
    assert _grid_from_args(args) == GridConfig(
        nmax=2, mmax=2, nm_sum=4, gf_mmax=2, ls=(1, 2), int_alphas=(1, 2),
        frac_alphas=(F(1, 2),), xs=(F(1),), order=8, certify=True,
    )


def test_verify_negative_fractions_as_separate_argument(capsys):
    code, out, _ = run_cli(capsys, "verify", "--id", "apostol-bernoulli-classical", "--nmax", "2",
                           "--lambda", "-3,1/2", "--format", "json")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert len(reports) == 6
    assert {r["params"]["lambda"] for r in reports} == {"-3", "1/2"}


@pytest.mark.parametrize("flag", ["--lambda=,", "--l=1,,2", "--x=", "--alpha=1/2,"])
def test_verify_rejects_empty_list_parts(capsys, flag):
    code, out, err = run_cli(capsys, "verify", "--id", "aux-wang", flag)
    assert code == 2 and out == ""
    assert "empty value in list" in err


def test_verify_rejects_non_integer_orders(capsys):
    for value in ("abc", "1/2"):
        code, _, err = run_cli(capsys, "verify", "--id", "aux-wang", f"--l={value}")
        assert code == 2 and "error:" in err


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("not a key value line\n")
    code, _, err = run_cli(capsys, "verify", "--config", str(bad))
    assert code == 2 and "key=value" in err
    code, _, err = run_cli(capsys, "verify", "--config", str(tmp_path / "missing.cfg"))
    assert code == 2


def test_config_flag_is_read_as_the_subcommand_parses_it(tmp_path, capsys):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("id = spivey\nnmax = 2\nmmax = 3\nformat = json\n")
    runs = [run_cli(capsys, "verify", *flag) for flag in (("--config", str(cfg)), ("--conf", str(cfg)),
                                                           (f"--conf={cfg}",))]
    assert runs[1:] == runs[:1] * 2
    code, out, _ = runs[0]
    assert code == 0 and json.loads(out)["summary"]["pass"] == 12
    code, out, err = run_cli(capsys, "verify", "--id", "spivey", "--config")
    assert code == 2 and out == "" and "--config: expected one argument" in err


def test_config_file_not_utf8_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"id = spivey\n\xff\n")
    code, out, err = run_cli(capsys, "verify", "--config", str(bad))
    assert code == 2 and out == ""
    assert err.startswith(f"error: config file {bad} is not UTF-8 text") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("verify", "--id", "aux-wang", "--lambda", "1/0"),
    ("table", "--family", "general-geometric", "--alpha", "3/0"),
    ("series", "--gf", "exp-bell", "--x", "1/0"),
])
def test_zero_denominator_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: zero denominator: ") and err.count("\n") == 1


def test_plain_verify_output_mentions_skips(capsys):
    code, out, _ = run_cli(capsys, "verify", "--id", "apostol-bernoulli-explicit",
                           "--nmax", "1", "--l", "1", "--lambda", "1,2")
    assert code == 0
    assert "skipped-domain" in out
    assert "lambda=1 not in domain" in out
    assert out.strip().splitlines()[-1].startswith("pass=")


@pytest.mark.parametrize("alpha, nmax, mmax", [("0", "2", "2"), ("-1", "1", "2"), ("-2", "1", "3")])
def test_shift_theorem_skips_orders_where_its_binomial_vanishes(capsys, alpha, nmax, mmax):
    # C(alpha+m-1, m) = 0 at alpha in {0, -1, ..., 1-m}, and the Euler side divides by it
    code, out, _ = run_cli(capsys, "verify", "--id", "poly-shift-theorem", f"--alpha={alpha}",
                           "--nmax", nmax, "--mmax", mmax)
    assert code == 0
    skipped = [line for line in out.splitlines() if line.startswith("skipped-domain")]
    assert skipped and all(line.endswith("C(alpha+m-1, m) = 0)") for line in skipped)


GEOMETRIC_IDS = {"gf-apostol-euler-shift", "gf-w-base", "gf-w-shift", "w-connections", "w-general-recurrence"}
PASSING_AT_ALPHA_0 = {"apostol-euler-recurrence", "aux-euler-reflection", "aux-wang", "finite-sums", "poly-shift-prop"}


@pytest.mark.parametrize("alphas", ["0", "-1/2,-2"])
def test_verify_all_skips_the_orders_a_route_cannot_take(capsys, alphas):
    # only the routes that need alpha > 0 (or an integer order >= 1) refuse, point by point
    code, out, err = run_cli(capsys, "verify", "--all", f"--alpha={alphas}", "--nmax", "2", "--mmax", "2",
                             "--gf-mmax", "1", "--order", "4", "--format", "json")
    assert code == 0 and err == ""
    reports = json.loads(out)["reports"]
    by_id = {}
    for r in reports:
        by_id.setdefault(r["id"], []).append(r)
    for identity_id in GEOMETRIC_IDS:
        assert {r.get("reason") for r in by_id[identity_id]} == {
            "alpha <= 0: general geometric polynomials need alpha > 0"}, identity_id
    assert {r.get("reason") for r in by_id["aux-srivastava-luo"]} == {
        "alpha < 1: the Bernoulli-type order alpha must be a positive integer"}
    explicit = by_id["apostol-euler-explicit"]
    assert {r["status"] for r in explicit} == {"pass"}
    assert not any("plain-series" in r["lhs"] for r in explicit)
    if alphas == "0":
        for identity_id in PASSING_AT_ALPHA_0:
            assert {r["status"] for r in by_id[identity_id]} == {"pass"}, identity_id


# -- one parser per process: nothing a call parses reaches the next call -------

def test_the_parser_is_built_once():
    assert build_parser() is build_parser()


def test_an_id_list_does_not_leak_into_the_next_verify(capsys):
    run_cli(capsys, "verify", "--id", "spivey", "--nmax", "2", "--mmax", "2")
    code, out, _ = run_cli(capsys, "verify", "--id", "w-explicit", "--nmax", "2", "--mmax", "2", "--format", "csv")
    assert code == 0
    assert {row.split(",")[0] for row in out.splitlines()[1:-1]} == {"w-explicit"}


def test_a_config_run_leaves_no_value_for_the_next_run(capsys):
    argv = ("verify", "--id", "apostol-euler-recurrence")
    _, before, _ = run_cli(capsys, *argv)
    assert run_cli(capsys, "verify", "--config", str(PRESET), "--list")[0] == 0
    _, after, _ = run_cli(capsys, *argv)
    assert after == before and "certified-degree" not in after
    assert not build_parser().parse_args(["verify"]).lambda_certify


def test_a_command_rebound_after_the_parser_is_built_is_the_one_that_runs(capsys, monkeypatch):
    build_parser()
    monkeypatch.setattr(cli, "cmd_series", lambda args: 7)
    assert main(["series", "--gf", "exp-bell", "--x", "1"]) == 7


def test_table_after_series_keeps_the_default_n(capsys):
    run_cli(capsys, "series", "--gf", "exp-bell", "--x", "1", "--order", "3")
    code, out, _ = run_cli(capsys, "table", "--family", "bell", "--format", "csv")
    assert code == 0 and len(out.splitlines()) == 9


def test_main_builds_no_parser_after_the_first(capsys, monkeypatch):
    run_cli(capsys, "verify", "--list")
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in [("verify", "--list"), ("table", "--family", "bell", "--n", "2"),
                 ("series", "--gf", "exp-bell", "--x", "1", "--order", "2"),
                 ("verify", "--config", str(PRESET), "--list"), ("table", "--family", "nope")] * 2:
        run_cli(capsys, *argv)
    assert built == []


def test_table_series_and_verify_read_no_parameter_names(capsys, monkeypatch):
    # every half's and builder's keys are read once, at import, never per point or row
    calls = []
    read = fam._parameter_keys
    monkeypatch.setattr(fam, "_parameter_keys", lambda *args: calls.append(args) or read(*args))
    for command, key, size, registry in [("table", "--family", "--n=5", fam.FAMILIES),
                                         ("series", "--gf", "--order=4", fam.SERIES)]:
        for spec_id, spec in registry.items():
            flags = [f"--{k}={FLAG_VALUES[k]}" for k in spec.needs]
            assert run_cli(capsys, command, key, spec_id, size, *flags)[0] == 0, spec_id
    assert run_cli(capsys, "verify", "--id", "poly-shift-prop", "--nmax", "2", "--mmax", "2")[0] == 0
    assert calls == []
