"""`verify --jobs N`: whole identities in worker processes, same bytes as one process."""

import json
import multiprocessing
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from polyfam.cli import main
from polyfam.identities import REGISTRY
from polyfam.rationals import DomainError

SRC = Path(__file__).resolve().parent.parent / "src"

REDUCED = ("--nmax", "2", "--mmax", "2", "--gf-mmax", "1", "--order", "6",
           "--lambda", "2,-3", "--alpha", "1,1/2", "--l", "1,2", "--x", "1")
SMALL_CERTIFY = ("--nmax", "1", "--mmax", "1", "--gf-mmax", "0", "--order", "3",
                 "--alpha", "1,1/2", "--l", "1", "--x", "1", "--lambda-certify")
CASES = {
    "plain": ("--all", *REDUCED),
    "csv": ("--all", *REDUCED, "--format", "csv"),
    "json": ("--all", *REDUCED, "--format", "json"),
    "perturb": ("--all", *REDUCED, "--perturb"),
    "lambda-certify-plain": ("--id", "aux-wang", "--id", "finite-sums", "--id", "spivey", *SMALL_CERTIFY),
    "lambda-certify-json": ("--id", "aux-wang", "--id", "finite-sums", "--id", "spivey", *SMALL_CERTIFY,
                            "--format", "json"),
    "repeated-id": ("--id", "spivey", "--id", "w-explicit", "--id", "spivey", *REDUCED),
}


def run_verify(capsys, *argv):
    code = main(["verify", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("case", sorted(CASES))
def test_verify_prints_the_same_bytes_at_any_jobs(capsys, case):
    code, out, err = run_verify(capsys, *CASES[case], "--jobs", "1")
    assert code == (1 if case == "perturb" else 0) and err == ""
    for jobs in ("2", "3"):
        assert run_verify(capsys, *CASES[case], "--jobs", jobs) == (code, out, err)
    if case == "perturb":
        assert "pass=0 " in out
    if case == "lambda-certify-plain":
        assert "certified-degree aux-wang: D=" in out and "certified-degree finite-sums: D=" in out
    if case == "lambda-certify-json":
        assert sorted(json.loads(out)["lambda_certification"]) == ["aux-wang", "finite-sums"]


class RecordingPool:
    """Stands in for multiprocessing.Pool: records its arguments and runs the
    work in this process, so no worker is ever started."""

    calls: list = []

    def __init__(self, processes):
        self.calls.append(("processes", processes))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap_unordered(self, func, iterable, chunksize=1):
        queue = list(iterable)
        self.calls.append(("queue", queue))
        return map(func, queue)


@pytest.fixture
def recording_pool(monkeypatch):
    monkeypatch.setattr(RecordingPool, "calls", [])
    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    return RecordingPool.calls


def test_one_selected_id_runs_in_process(capsys, recording_pool):
    code, out, _ = run_verify(capsys, "--id", "spivey", "--nmax", "2", "--mmax", "2", "--jobs", "1000")
    assert code == 0 and "pass=9 fail=0" in out
    assert recording_pool == []


def test_worker_count_is_capped_at_the_selected_ids(capsys, recording_pool):
    ids = ("--id", "spivey", "--id", "w-explicit", "--id", "fubini-explicit", "--id", "w-explicit")
    sequential = run_verify(capsys, *ids, *REDUCED, "--jobs", "1")
    assert recording_pool == []
    assert run_verify(capsys, *ids, *REDUCED, "--jobs", "64") == sequential
    assert recording_pool[0] == ("processes", 3)
    assert sorted(recording_pool[1][1]) == ["fubini-explicit", "spivey", "w-explicit"]


def test_queue_is_heaviest_grid_first(capsys, recording_pool):
    # finite-sums runs over (m, l, alpha, lambda), spivey over (n, m), gf-phi-base over x alone
    run_verify(capsys, "--id", "gf-phi-base", "--id", "spivey", "--id", "finite-sums", *REDUCED, "--jobs", "2")
    assert recording_pool == [("processes", 2), ("queue", ["finite-sums", "spivey", "gf-phi-base"])]


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers see the patched checker only when they are forked")
def test_checker_error_in_a_worker_reaches_the_cli_as_in_one_process(capsys, monkeypatch):
    def refuse(pt, grid):
        raise DomainError(f"refused at n={pt['n']}")

    monkeypatch.setitem(REGISTRY, "w-explicit", replace(REGISTRY["w-explicit"], check=refuse))
    argv = ("--id", "spivey", "--id", "w-explicit", *REDUCED)
    sequential = run_verify(capsys, *argv, "--jobs", "1")
    assert sequential == (2, "", "error: refused at n=0\n")
    assert run_verify(capsys, *argv, "--jobs", "2") == sequential


def test_importing_the_cli_loads_no_multiprocessing():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", "import polyfam.cli, sys; assert 'multiprocessing' not in sys.modules"],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
