#!/usr/bin/env python
"""Hot-path benchmark gate: kernel, cache array, tracing, Table-2 e2e.

Run from the repository root (the package must be importable, e.g.
``PYTHONPATH=src python benchmarks/bench_hotpath.py``).  Without flags
it runs the full suite, prints a comparison against the committed
``BENCH_hotpath.json`` baseline, and rewrites that file with the fresh
numbers.  CI uses ``--quick --check --output /tmp/...`` to fail on >25%
regressions without touching the committed baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.exp.hotpath import (  # noqa: E402
    BENCH_FILE,
    baseline_mismatch,
    check_regression,
    load_results,
    render_comparison,
    run_suite,
)

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="reduced iteration counts (seconds, for CI smoke)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N timing repeats (default: 3)")
    parser.add_argument("--baseline", default=os.path.join(REPO_ROOT, BENCH_FILE),
                        help="baseline JSON to compare against")
    parser.add_argument("--output", default=None,
                        help="where to write results (default: the baseline path)")
    parser.add_argument("--no-write", action="store_true",
                        help="do not write a result file")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero on >tolerance regression vs baseline")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional slowdown for --check (default: 0.25)")
    args = parser.parse_args(argv)

    baseline = load_results(args.baseline)
    current = run_suite(quick=args.quick, repeats=args.repeats)
    baseline_metrics = (baseline or {}).get("metrics")
    print(render_comparison(current, baseline))

    if not args.no_write:
        output = args.output or args.baseline
        document = dict(current)
        if baseline is not None:
            # Preserve the trajectory: keep the numbers we just replaced.
            document["previous"] = {
                "metrics": baseline_metrics,
                "python": baseline.get("python"),
                "impl": baseline.get("impl"),
                "engine": baseline.get("engine"),
                "quick": baseline.get("quick"),
            }
        with open(output, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"results written to {output}")

    if args.check and baseline is not None:
        mismatches = baseline_mismatch(current, baseline)
        if mismatches:
            print("BASELINE MISMATCH (not comparable):")
            for mismatch in mismatches:
                print(f"  {mismatch}")
            return 2
        failures = check_regression(current, baseline, tolerance=args.tolerance)
        if failures:
            print("PERF REGRESSION:")
            for failure in failures:
                print(f"  {failure}")
            return 1
        print(f"no regression beyond {args.tolerance:.0%} vs baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
