#!/usr/bin/env python3
"""Run the full identity verification at desk scale and print a rollup.

Usage: python scripts/run_verification.py [--order N]
"""

import argparse
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from polyfam.identities import GridConfig, run_all  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--order", type=int, default=12)
    args = parser.parse_args()
    if args.order < 0:  # as `polyfam verify --order -1` reports it
        sys.stderr.write("error: --order must be >= 0\n")
        return 2

    grid = GridConfig(order=args.order)
    started = time.perf_counter()
    summary, reports, _ = run_all(grid)
    elapsed = time.perf_counter() - started

    by_id = Counter()
    failed_ids = Counter()
    skipped_ids = Counter()
    for r in reports:
        by_id[r.id] += 1
        if r.status == "fail":
            failed_ids[r.id] += 1
        elif r.status == "skipped-domain":
            skipped_ids[r.id] += 1

    width = max(len(i) for i in by_id)
    for identity_id in sorted(by_id):
        total = by_id[identity_id]
        bad = failed_ids[identity_id]
        skip = skipped_ids[identity_id]
        flag = "FAIL" if bad else "ok"
        print(f"{identity_id:<{width}}  {total:6d} points  {bad:4d} fail  {skip:4d} skipped  {flag}")
    print(f"\ntotal: pass={summary.passed} fail={summary.failed} skipped={summary.skipped} "
          f"in {elapsed:.1f}s")
    return 1 if summary.failed else 0


if __name__ == "__main__":
    sys.exit(main())
