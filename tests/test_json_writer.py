"""The one JSON writer of the CLI (`cli._json`, streamed by `cli._write_json`)
against the standard library's `json.dumps(obj, indent=2)`, and `verify`'s
reports rendered in the process that ran their block."""

import io
import json
import os
from contextlib import redirect_stdout
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from polyfam import cli
from polyfam.identities import run_all

# quotes, backslashes, control characters, non-ASCII and lone surrogates
SPECIAL = ['"', "\\", "\x00", "\x1f", "\x7f", "\n\t\r\b\f", "é", " ", "😀", "\ud800", "\udfff", "a\ud83dz"]
texts = st.one_of(st.sampled_from(SPECIAL), st.text(st.characters(exclude_categories=()), max_size=12))
ints = st.one_of(st.integers(), st.integers(min_value=-(10 ** 400), max_value=10 ** 400),
                 st.sampled_from([0, -1, 2 ** 1000]))
scalars = st.one_of(texts, ints, st.booleans(), st.none())
trees = st.recursive(scalars, lambda kids: st.lists(kids, max_size=6) | st.dictionaries(texts, kids, max_size=6),
                     max_leaves=40)
containers = st.one_of(st.lists(trees, max_size=12), st.dictionaries(texts, trees, max_size=8))


def written(obj) -> str:
    with redirect_stdout(io.StringIO()) as out:
        cli._write_json(obj)
    return out.getvalue()


@given(containers, st.sampled_from([1, 2, 3, 7, cli._JSON_BLOCK]))
@example({}, 1)
@example([], 1)
@example([[], {}, [[]], {"": {}}], 1)
@example(list(range(3 * 7 + 1)), 7)  # a top-level list longer than the block
@example(["\ud800", {"\udc00": "\\\""}, 10 ** 300, -(2 ** 64), True, False, None], 2)
def test_write_json_prints_what_json_dumps_does(obj, block):
    with mock.patch.object(cli, "_JSON_BLOCK", block):
        assert written(obj) == json.dumps(obj, indent=2) + "\n"


@given(trees, st.sampled_from(["", "  ", "      "]))
def test_json_renders_any_value_at_any_depth(value, pad):
    # a nested value is the text json.dumps gives it, its lines indented past pad
    assert cli._json(value, pad) == json.dumps(value, indent=2).replace("\n", "\n" + pad)


@pytest.mark.parametrize("value", [1.5, 0.0, F(1, 2), F(3)], ids=repr)
@pytest.mark.parametrize("wrap", [
    lambda v: v, lambda v: [v], lambda v: {"a": v}, lambda v: {"rows": [{"n": 0, "value": [v]}]},
    lambda v: [[[[v]]]],
], ids=["bare", "list", "dict", "table-row", "deep"])
def test_floats_and_fractions_raise_type_error(value, wrap):
    with pytest.raises(TypeError):
        cli._json(wrap(value))
    with pytest.raises(TypeError):
        written(wrap(value))


def test_non_str_keys_and_tuples_raise_type_error():
    for obj in [{1: "a"}, {None: 1}, ("a",), {"a": ("b",)}]:
        with pytest.raises(TypeError):
            cli._json(obj)
        with pytest.raises(TypeError):
            written(obj)


REDUCED = ["--nmax", "2", "--mmax", "2", "--gf-mmax", "1", "--order", "6",
           "--lambda", "2,-3", "--alpha", "1,1/2", "--l", "1,2", "--x", "1"]


@pytest.mark.parametrize("argv", [
    ["--all", *REDUCED],
    ["--all", *REDUCED, "--perturb"],
    ["--id", "aux-wang", "--id", "spivey", "--nmax", "1", "--mmax", "1", "--l", "1", "--lambda-certify"],
    ["--id", "aux-srivastava-luo", "--alpha", "1/2"],  # no integer order, so no points
], ids=["reduced", "perturb", "certify", "empty"])
@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_verify_json_is_the_stdlib_rendering_of_the_reports(argv, jobs, capsys):
    args = cli.build_parser().parse_args(["verify", *argv])
    summary, reports, bounds = run_all(cli._grid_from_args(args), None if args.all else args.id,
                                       perturb=args.perturb)
    payload = {"summary": summary.to_dict(), "reports": [r.to_dict() for r in reports]}
    if bounds:
        payload["lambda_certification"] = {i: {"degree_bound": b, "lambda_points": 2 * b + 2}
                                           for i, b in sorted(bounds.items())}
    code = cli.main(["verify", *argv, "--format", "json", "--jobs", str(jobs)])
    assert code == (1 if summary.failed else 0)
    assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"


def _pid(report) -> int:
    return os.getpid()


def test_render_runs_where_the_block_ran():
    ids = ["spivey", "w-explicit", "aux-wang"]
    grid = cli._grid_from_args(cli.build_parser().parse_args(["verify", "--all", *REDUCED]))
    plain = run_all(grid, ids, jobs=2)
    rendered = run_all(grid, ids, jobs=2, render=cli._report_json)
    assert rendered[0] == plain[0] and rendered[2] == plain[2]
    assert rendered[1] == [cli._report_json(r) for r in plain[1]]
    assert set(run_all(grid, ids, render=_pid)[1]) == {os.getpid()}
    workers = set(run_all(grid, ids, jobs=2, render=_pid)[1])
    assert os.getpid() not in workers and 1 <= len(workers) <= 2
