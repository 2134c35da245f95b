"""CLI for the benchmarking subsystem.

Examples::

    PYTHONPATH=src python -m repro.bench --suite ci
    PYTHONPATH=src python -m repro.bench --suite ci \\
        --baseline benchmarks/baselines/bench_baseline.json --threshold 0.25
    PYTHONPATH=src python -m repro.bench --suite ci --update-baseline

Writes ``BENCH_<suite>.json`` (override with ``--output``), prints a
markdown summary (also appended to ``$GITHUB_STEP_SUMMARY`` when set, so CI
surfaces the table on the run page), and exits non-zero when any workload
regresses more than the threshold against the baseline or any pair's
speedup falls below the ``min_speedup`` it declares.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import workloads  # noqa: F401  (registers the built-in workloads)
from .compare import DEFAULT_THRESHOLD
from .registry import available_suites, workloads_for_suite
from .reporter import (
    build_report,
    confirm_regressions,
    load_report,
    markdown_summary,
    run_suite_merged,
    write_report,
)
from .timer import BenchTimer

DEFAULT_BASELINE = Path("benchmarks/baselines/bench_baseline.json")


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run a benchmark suite and write BENCH_<suite>.json.")
    parser.add_argument("--suite", default="ci",
                        help="suite to run (default: ci; see --list)")
    parser.add_argument("--list", action="store_true",
                        help="list suites and their workloads, then exit")
    parser.add_argument("--output", type=Path, default=None,
                        help="report path (default: BENCH_<suite>.json)")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="baseline report to compare against "
                             f"(default: {DEFAULT_BASELINE} when it exists)")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="tolerated fractional median regression "
                             "(default: 0.25)")
    parser.add_argument("--no-normalize", action="store_true",
                        help="compare raw medians instead of "
                             "calibration-normalized ones")
    parser.add_argument("--no-fail", action="store_true",
                        help="exit 0 even when regressions are found")
    parser.add_argument("--update-baseline", action="store_true",
                        help=f"also write the report to {DEFAULT_BASELINE}")
    parser.add_argument("--repeats", type=int, default=None,
                        help="override the default sample count per workload")
    parser.add_argument("--warmup", type=int, default=None,
                        help="override the default warmup calls per workload")
    parser.add_argument("--runs", type=int, default=1,
                        help="execute the suite N times and merge samples "
                             "(use --runs 3 when refreshing the baseline)")
    parser.add_argument("--max-retries", type=int, default=2,
                        help="fresh re-measurement windows a flagged "
                             "workload gets before its regression verdict "
                             "stands (default: 2)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv if argv is not None else sys.argv[1:])

    if args.list:
        for suite in available_suites():
            print(f"{suite}:")
            for workload in workloads_for_suite(suite):
                print(f"  {workload.name}")
        return 0

    timer_kwargs = {}
    if args.repeats is not None:
        timer_kwargs["repeats"] = args.repeats
    if args.warmup is not None:
        timer_kwargs["warmup"] = args.warmup
    timer = BenchTimer(**timer_kwargs)

    baseline = None
    baseline_path = args.baseline
    if baseline_path is None and DEFAULT_BASELINE.exists():
        baseline_path = DEFAULT_BASELINE
    if baseline_path is not None:
        baseline = load_report(baseline_path)

    progress = lambda name: print(f"  bench {name} ...", file=sys.stderr)
    results = run_suite_merged(args.suite, runs=args.runs, timer=timer,
                               progress=progress)
    if baseline is not None:
        # Flagged workloads get re-measured in a fresh window before a
        # regression verdict stands (one noisy window must not fail CI).
        report = confirm_regressions(results, args.suite, baseline,
                                     threshold=args.threshold,
                                     normalize=not args.no_normalize,
                                     timer=timer,
                                     max_retries=args.max_retries,
                                     progress=progress)
    else:
        report = build_report(args.suite, results, baseline=None,
                              threshold=args.threshold,
                              normalize=not args.no_normalize)
    if baseline_path is not None:
        report["comparison"]["baseline_path"] = str(baseline_path)

    output = args.output or Path(f"BENCH_{args.suite}.json")
    write_report(report, output)
    print(f"wrote {output}", file=sys.stderr)
    if args.update_baseline:
        # The baseline is a reference measurement; its comparison against
        # the *previous* baseline is meaningless to future readers.
        baseline_copy = {key: value for key, value in report.items()
                         if key != "comparison"}
        write_report(baseline_copy, DEFAULT_BASELINE)
        print(f"updated baseline {DEFAULT_BASELINE}", file=sys.stderr)

    summary = markdown_summary(report)
    print(summary)
    step_summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if step_summary:
        with open(step_summary, "a", encoding="utf-8") as handle:
            handle.write(summary)

    comparison = report["comparison"]
    if comparison["status"] == "regression":
        if comparison["regressions"]:
            print(f"perf regression(s): {', '.join(comparison['regressions'])}",
                  file=sys.stderr)
        if comparison["slow_pairs"]:
            print(f"speedup below its floor: "
                  f"{', '.join(comparison['slow_pairs'])}", file=sys.stderr)
        return 0 if args.no_fail else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
