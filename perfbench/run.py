"""polyfam benchmark: closed-loop CLI workloads in fresh processes.

Run from the root of a polyfam source tree:

    python3 perfbench/run.py --workload verify-catalog --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all          # every workload, timed and traced

One client runs each workload's operations (CLI invocations through
``polyfam.cli.main``) one after another, in a fresh interpreter per round, so
every family cache starts empty.  Rounds repeat until the next one would end
after ``--seconds``; the first always runs.  With ``--trace 0`` the run
reports the end-to-end metrics (timings as means over the run's rounds, set-up
time and memory as medians), with ``--trace 1`` it runs one untraced and one
traced round and reports the per-layer metrics.
Every output is checked (see workloads.py); the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import workloads  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
SETUP_SAMPLES = 30  # set-up-only interpreters per timed run
CHILD_TIMEOUT_S = 150


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def spawn(ops: list[list[str]], trace: bool = False) -> tuple[float, dict]:
    """Run ops in a fresh interpreter; returns (set-up seconds, child report)."""
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-I", CHILD, SRC], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, cwd=ROOT)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - started
        out, _ = proc.communicate(json.dumps({"ops": ops, "trace": trace}).encode())
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready != b"ready\n" or proc.returncode != 0:
        raise HarnessError(f"child exited with code {proc.returncode} before reporting")
    report = json.loads(out.decode().splitlines()[-1])
    if not os.path.abspath(report["polyfam_file"]).startswith(SRC + os.sep):
        raise HarnessError(f"polyfam was imported from {report['polyfam_file']}, not from {SRC}")
    return setup, report


def run_ops(argvs: list[list[str]]) -> list[tuple[object, str]]:
    """Untimed CLI calls for the once-per-run checks, in their own process."""
    _, report = spawn(argvs)
    return [(r["rc"], r["out"]) for r in report["results"]]


class Outcomes:
    """Per-op verdicts over every process of a run, checked once per distinct output."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.verdicts: dict[tuple, list[str]] = {}
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.first_outputs: list[str] | None = None
        self.first_keys: list[tuple] | None = None

    def add(self, report: dict, label: str) -> None:
        keys = []
        for i, r in enumerate(report["results"]):
            key = (i, r["rc"], hashlib.sha256(r["out"].encode()).hexdigest())
            if key not in self.verdicts:
                try:
                    self.verdicts[key] = self.workload.check_op(i, r["rc"], r["out"])
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    self.verdicts[key] = [f"output could not be checked: {exc!r}"]
            bad = self.verdicts[key]
            self.attempted += 1
            if bad:
                self.failed += 1
                if i not in self.workload.known_faults:
                    stderr = f" (stderr: {r['err'].strip()[-200:]})" if r["err"].strip() else ""
                    self.problems.append(f"{label} op {i}: {bad[0]}{stderr}")
            keys.append(key)
        if self.first_keys is None:
            self.first_keys = keys
            self.first_outputs = [r["out"] for r in report["results"]]
        elif keys != self.first_keys:
            self.problems.append(f"{label}: output differs from the first process of the run")


def measure(workload, seconds: int, outcomes: Outcomes) -> dict[str, float]:
    """Timed rounds, alternating the first and the second process kind, with
    set-up-only interpreters spread evenly over the run; returns the
    end-to-end metrics.

    The timings are means over the run's rounds, not medians: the shared host
    switches between a fast and a slow speed every few seconds, so the median
    of a handful of rounds jumps from one speed to the other between runs,
    while the mean weighs every timed second of the run alike."""
    start = time.perf_counter()
    deadline = start + seconds
    setups: list[float] = []

    def sample_setup(share: float) -> None:
        while len(setups) < SETUP_SAMPLES * share:
            setups.append(spawn([])[0])

    samples: dict[str, list[float]] = {"wall_s": [], "cpu_s": [], "wall_jobs2_s": [], "peak_rss_mb": []}
    took = [0.0, 0.0]
    for count in itertools.count():
        kind = count % 2
        started = time.perf_counter()
        sample_setup(min(1.0, (started - start) / seconds) + 1 / SETUP_SAMPLES)
        setup, report = spawn(workload.second_ops if kind else workload.ops)
        took[kind] = time.perf_counter() - started
        setups.append(setup)
        if kind:
            samples["wall_jobs2_s"].append(report["wall_s"])
        else:
            for key in ("wall_s", "cpu_s", "peak_rss_mb"):
                samples[key].append(report[key])
        outcomes.add(report, f"{'second' if kind else 'first'}-kind process {count // 2 + 1}")
        # whole rounds only: stop once both kinds ran and the next would overrun
        if count and time.perf_counter() + took[1 - kind] > deadline:
            break
    sample_setup(1.0)
    for key, values in samples.items():
        sys.stderr.write(f"{workload.name} {key} rounds: {' '.join(f'{v:.3f}' for v in values)}\n")
    return {"setup_s": statistics.median(setups), "peak_rss_mb": statistics.median(samples.pop("peak_rss_mb")),
            **{key: statistics.fmean(values) for key, values in samples.items()}}


def traced(workload, outcomes: Outcomes, per_layer: list[str]) -> dict[str, float]:
    """One untraced and one traced round; returns the per-layer metrics."""
    _, plain = spawn(workload.ops)
    outcomes.add(plain, "untraced round")
    _, spanned = spawn(workload.ops, trace=True)
    outcomes.add(spanned, "traced round")
    figures = spanned["trace"]
    metrics = dict(figures["metrics"])
    metrics["cli.output_bytes"] = sum(len(r["out"].encode()) for r in spanned["results"])
    metrics["trace.overhead_s"] = spanned["wall_s"] - plain["wall_s"]
    sys.stderr.write(f"{workload.name}: {figures['spans']} spans; largest self times:\n")
    for name, calls, self_s in figures["top"]:
        sys.stderr.write(f"  {self_s:10.4f} s {calls:10d} calls  {name}\n")
    extra = sorted(set(metrics) - set(per_layer))
    if extra:
        outcomes.problems.append(f"trace reported metrics the benchmark does not list: {extra}")
    # a layer the workload never calls reads zero
    return {name: metrics.get(name, 0) for name in per_layer}


def build(name: str, seed: int):
    from polyfam.families import FAMILIES
    from polyfam.identities import REGISTRY, GridConfig

    grid = workloads.Grid(GridConfig())
    if name == "verify-catalog":
        return workloads.VerifyCatalog(seed, grid, REGISTRY)
    if name == "family-tables":
        return workloads.FamilyTables(seed, grid, list(FAMILIES))
    if name == "deep-series":
        return workloads.DeepSeries(seed, grid)
    raise HarnessError(f"unknown workload {name!r}")


def run_workload(spec: dict, name: str, seed: int, seconds: int, trace: bool) -> dict:
    workload = build(name, seed)
    outcomes = Outcomes(workload)
    outcomes.problems += [f"reference self-check: {p}" for p in reference.self_check()]
    if trace:
        values = traced(workload, outcomes, [m["name"] for m in spec["per_layer"]])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = measure(workload, seconds, outcomes)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    try:
        outcomes.problems += workload.check_run(outcomes.first_outputs, run_ops)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        outcomes.problems.append(f"run checks could not complete: {exc!r}")
    for metric, value in values.items():
        print(f"{name} {metric} = {value} {units[metric]}")
    print(f"{name} attempted = {outcomes.attempted} failed = {outcomes.failed}")
    for problem in outcomes.problems:
        sys.stderr.write(f"{name} CHECK FAILED: {problem[:300]}\n")
    return {"correct": not outcomes.problems, "attempted": outcomes.attempted, "failed": outcomes.failed,
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()}}


def main() -> int:
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "polyfam", "cli.py")) or not os.path.isfile(spec_path):
        sys.stderr.write(f"error: run from the root of a polyfam tree (no src/polyfam or BENCHMARK.json in {ROOT})\n")
        return 2
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    sys.path.insert(0, SRC)
    try:
        if args.workload != "all":
            result = run_workload(spec, args.workload, args.seed, args.seconds, bool(args.trace))
        else:
            result = {name: {mode: run_workload(spec, name, args.seed, args.seconds, trace)
                             for mode, trace in (("timed", False), ("traced", True))}
                      for name in names}
    except HarnessError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
