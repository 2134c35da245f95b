"""Continuous benchmarking subsystem: ``python -m repro.bench --suite ci``.

Micro (tensor ops, kernels, quantize/dequantize) and macro (sampler
trajectories, quantized forwards, end-to-end serving) workloads behind a
registry, timed with warmup/repetition/outlier trimming, reported as
``BENCH_<suite>.json`` with an environment fingerprint, pre/fast speedup
deltas and baseline-comparison verdicts.  The CI ``perf-regression`` job
runs the ``ci`` suite against the committed baseline in
``benchmarks/baselines/bench_baseline.json`` and fails on >25% median
regressions.
"""

from .compare import (
    CALIBRATION_WORKLOAD,
    DEFAULT_THRESHOLD,
    VERDICT_IMPROVED,
    VERDICT_MISSING,
    VERDICT_NEW,
    VERDICT_PASS,
    VERDICT_REGRESSION,
    compare_reports,
)
from .registry import (
    FAST_ARM,
    PRE_ARM,
    WORKLOAD_REGISTRY,
    Workload,
    available_suites,
    register_workload,
    unregister_workload,
    workloads_for_suite,
)
from .reporter import (
    SCHEMA_VERSION,
    build_report,
    confirm_regressions,
    environment_fingerprint,
    load_report,
    markdown_summary,
    run_suite,
    run_suite_merged,
    write_report,
)
from .timer import BenchTimer, Measurement

__all__ = [
    "BenchTimer", "Measurement",
    "Workload", "WORKLOAD_REGISTRY", "register_workload",
    "unregister_workload", "workloads_for_suite", "available_suites",
    "PRE_ARM", "FAST_ARM",
    "run_suite", "run_suite_merged", "build_report", "confirm_regressions",
    "write_report", "load_report",
    "markdown_summary", "environment_fingerprint", "SCHEMA_VERSION",
    "compare_reports", "CALIBRATION_WORKLOAD", "DEFAULT_THRESHOLD",
    "VERDICT_PASS", "VERDICT_REGRESSION", "VERDICT_IMPROVED",
    "VERDICT_NEW", "VERDICT_MISSING",
]
