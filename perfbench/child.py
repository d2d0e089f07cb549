"""One fresh interpreter running CLI invocations one after another.

Usage (driven by run.py): python3 -I perfbench/child.py SRC_DIR

Imports ``polyfam.cli`` from SRC_DIR and builds its parser, then prints
``ready`` so the parent can time set-up.  It then reads a JSON job from stdin,
``{"ops": [argv, ...], "trace": bool}``, calls ``polyfam.cli.main(argv)`` for
each op with stdout and stderr captured in memory, and prints one JSON line:
wall and CPU seconds of the whole op sequence, peak RSS, and per op the exit
code and captured output.  With ``trace`` the ops run under spans.Tracer and
the line also carries the per-layer figures.
"""

import io
import json
import os
import sys
import time
import traceback


def layer_figures(tracer) -> dict:
    """Reduce the recorded spans to the per-layer metrics."""
    from polyfam import families, stirling

    totals = tracer.totals()

    def field(names, key):
        return sum(totals.get(n, {}).get(key, 0) for n in names)

    def layer_self(layer, exclude=lambda name: False):
        return sum(t["self_s"] for n, t in totals.items() if n.startswith(layer + ".") and not exclude(n))

    hits = misses = 0
    for obj in vars(families).values():
        if hasattr(obj, "cache_info"):
            info = obj.cache_info()
            hits, misses = hits + info.hits, misses + info.misses
    checks = {n: t for n, t in totals.items() if n.startswith("identities.check:")}
    out = {
        "rationals.fraction_new": tracer.fraction_new,
        "rationals.gen_binomial_calls": field(["rationals.gen_binomial"], "calls"),
        "rationals.gen_binomial_self_s": field(["rationals.gen_binomial"], "self_s"),
        "stirling.rows_built": sum(t.built_rows for t in vars(stirling).values()
                                   if isinstance(t, stirling.StirlingTable)),
        "stirling.self_s": layer_self("stirling"),
        "poly.self_s": layer_self("poly"),
        "poly.mul_calls": field(["poly.Poly.__mul__", "poly.Poly.__rmul__"], "calls"),
        "poly.eval_calls": field(["poly.Poly.__call__", "poly.Poly.eval_series"], "calls"),
        "series.self_s": layer_self("series"),
        "series.mul_calls": field(["series.Series.__mul__", "series.Series.__rmul__"], "calls"),
        "series.inverse_self_s": field(["series.Series.inverse"], "self_s"),
        "series.binomial_power_self_s": field(["series.binomial_power"], "self_s"),
        "series.exp_self_s": field(["series.Series.exp"], "self_s"),
        "families.self_s": layer_self("families"),
        "families.kernel_misses": misses,
        "families.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "families.max_bits": tracer.max_bits,
        "identities.check_self_s": sum(t["self_s"] for t in checks.values()),
        "identities.runner_self_s": layer_self("identities", lambda n: n.startswith("identities.check:")),
        "identities.points": sum(t["calls"] for t in checks.values()),
        "cli.render_self_s": field([n for n in totals if n.startswith("cli.cmd_")], "self_s"),
    }
    for name, t in checks.items():
        out[f"identities.{name.split(':', 1)[1]}_s"] = t["incl_s"]
    return {"metrics": out, "spans": len(tracer.names),
            "top": sorted(([n, t["calls"], t["self_s"]] for n, t in totals.items()), key=lambda r: -r[2])[:25]}


def peak_rss_mb() -> float:
    """Peak resident memory of this interpreter (VmHWM; ru_maxrss would also
    count the parent's memory at fork time, since Linux keeps it across exec)."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def run(cli, ops: list, trace: bool) -> dict:
    tracer = None
    if trace:
        sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    real_out, real_err = sys.stdout, sys.stderr
    results = []
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        for argv in ops:
            out, err = io.StringIO(), io.StringIO()
            sys.stdout, sys.stderr = out, err
            try:
                code = cli.main(argv)
            except Exception:  # an escaped exception is a failed op, not a dead run
                code = None
                err.write(traceback.format_exc())
            finally:
                sys.stdout, sys.stderr = real_out, real_err
            results.append({"rc": code, "out": out.getvalue(), "err": err.getvalue()[-2000:]})
    finally:
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if tracer is not None:
            tracer.remove()
    report = {"wall_s": wall, "cpu_s": cpu,
              "peak_rss_mb": peak_rss_mb(),
              "polyfam_file": cli.__file__, "results": results}
    if tracer is not None:
        report["trace"] = layer_figures(tracer)
    return report


def main() -> None:
    sys.path.insert(0, os.path.abspath(sys.argv[1]))
    import polyfam.cli as cli

    cli.build_parser()
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    job = json.loads(sys.stdin.read())
    sys.stdout.write(json.dumps(run(cli, job["ops"], job["trace"])) + "\n")


if __name__ == "__main__":
    main()
