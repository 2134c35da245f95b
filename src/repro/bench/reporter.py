"""Run suites, assemble ``BENCH_<suite>.json`` reports, render summaries.

The report is the machine-readable contract of the benchmarking subsystem:

* ``environment`` — a fingerprint of what produced the numbers (python,
  numpy, platform, CPU count, BLAS thread settings) so reports from
  different machines are never silently conflated;
* ``workloads`` — per-workload median/p95/mean/min over outlier-trimmed
  samples, plus metadata (generation-plan and quantization-config
  fingerprints where applicable);
* ``speedups`` — one entry per registered pre/fast pair: the before/after
  delta every optimization in this subsystem is obligated to show up in,
  next to the ``min_speedup`` the pair declares (if any);
* ``comparison`` — verdicts against a baseline report (see
  :mod:`repro.bench.compare`).
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from .. import schemas
from ..core.hashing import content_hash
from ..tensor import backend_info
from .compare import CALIBRATION_WORKLOAD, compare_reports
from .registry import FAST_ARM, PRE_ARM, Workload, workloads_for_suite
from .timer import BenchTimer, Measurement

SCHEMA_VERSION = 1


#: Environment variables that set the BLAS and OpenMP thread counts.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Thread-count getters of the OpenBLAS builds numpy ships or links.
_OPENBLAS_GETTERS = ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads")


def openblas_threads() -> Union[int, str]:
    """Thread count of the OpenBLAS this process has loaded, read from the
    library itself through ctypes (a setting the environment variables do
    not show still gets reported), or ``"unknown"``."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return "unknown"
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _OPENBLAS_GETTERS:
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return "unknown"


def environment_fingerprint() -> Dict:
    """What hardware/software produced this report (content-hashed).

    Includes the active compute backend (and whether its native kernels
    compiled), so a report timed on the reference backend can never be
    compared against an accelerated baseline without the mismatch showing,
    and the BLAS/OpenMP thread settings with the count OpenBLAS itself
    reports, since a speedup measured at one thread count need not hold at
    another.
    """
    info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "openblas_threads": openblas_threads(),
        "backend": backend_info(),
    }
    info["fingerprint"] = content_hash(info)
    return info


def run_suite(suite: str, timer: Optional[BenchTimer] = None,
              progress: Optional[Callable[[str], None]] = None
              ) -> List[Tuple[Workload, Measurement]]:
    """Execute every workload of ``suite``; returns measurements in order.

    The two arms of a pre/fast pair are measured with *interleaved* samples
    (:meth:`BenchTimer.measure_pair`) whenever both arms belong to the
    suite, so their speedup is insensitive to machine-speed drift between
    measurement windows.
    """
    workloads = workloads_for_suite(suite)
    if not workloads:
        raise ValueError(f"no workloads registered for suite '{suite}'")
    timer = timer or BenchTimer()
    partners: dict = {}
    pair_arms: dict = {}
    for workload in workloads:
        if workload.pair is not None:
            pair_arms.setdefault(workload.pair, {})[workload.arm] = workload
    for arms in pair_arms.values():
        if len(arms) == 2:
            first, second = arms.values()
            partners[first.name] = second
            partners[second.name] = first

    results: List[Tuple[Workload, Measurement]] = []
    done: set = set()
    for workload in workloads:
        if workload.name in done:
            continue
        partner = partners.get(workload.name)
        if partner is None:
            if progress is not None:
                progress(workload.name)
            fn, metadata = workload.build()
            measurement = timer.measure(fn, name=workload.name,
                                        warmup=workload.warmup,
                                        repeats=workload.repeats,
                                        metadata=metadata)
            results.append((workload, measurement))
            done.add(workload.name)
            continue
        if progress is not None:
            progress(f"{workload.name} + {partner.name} (interleaved)")
        fn, metadata = workload.build()
        partner_fn, partner_metadata = partner.build()
        measurement, partner_measurement = timer.measure_pair(
            fn, partner_fn, name_a=workload.name, name_b=partner.name,
            warmup=workload.warmup, repeats=workload.repeats,
            metadata_a=metadata, metadata_b=partner_metadata)
        results.append((workload, measurement))
        results.append((partner, partner_measurement))
        done.update((workload.name, partner.name))
    return results


def run_suite_merged(suite: str, runs: int = 1,
                     timer: Optional[BenchTimer] = None,
                     progress: Optional[Callable[[str], None]] = None
                     ) -> List[Tuple[Workload, Measurement]]:
    """Run the suite ``runs`` times and merge samples per workload.

    Machine speed drifts on the scale of whole suite executions; a baseline
    recorded from a single run inherits whatever window it happened to land
    in.  Merging the samples of several spaced runs centers each workload's
    median over the drift, which is how the committed baseline should be
    refreshed (``--runs 3 --update-baseline``).
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    merged: List[Tuple[Workload, Measurement]] = run_suite(
        suite, timer=timer, progress=progress)
    by_name = {measurement.name: measurement for _, measurement in merged}
    for _ in range(runs - 1):
        for _workload, measurement in run_suite(suite, timer=timer,
                                                progress=progress):
            by_name[measurement.name].samples.extend(measurement.samples)
    return merged


def confirm_regressions(results: List[Tuple[Workload, Measurement]],
                        suite: str, baseline: Dict, threshold: float,
                        normalize: bool, timer: Optional[BenchTimer] = None,
                        max_retries: int = 1,
                        progress: Optional[Callable[[str], None]] = None
                        ) -> Dict:
    """Build the report, re-measuring flagged workloads before failing.

    A single measurement window crossing the threshold can be machine
    noise (contention slows a window, never speeds it up); a *persistent*
    regression is not.  Whenever the comparison flags regressions, the
    flagged workloads (only those) are re-measured in a fresh window and
    the **better window wins** — the lower-median window is the less
    contended one and therefore the better estimate of the workload's true
    cost.  A genuine regression stays slow in every window and keeps its
    verdict; a one-off noisy window is displaced by a clean retry.
    """
    timer = timer or BenchTimer()
    report = build_report(suite, results, baseline=baseline,
                          threshold=threshold, normalize=normalize)
    by_name = {measurement.name: (workload, measurement)
               for workload, measurement in results}
    for _ in range(max_retries):
        regressions = report["comparison"]["regressions"]
        if not regressions:
            break
        for name in regressions:
            workload, measurement = by_name[name]
            if progress is not None:
                progress(f"{name} (confirming regression)")
            fn, _metadata = workload.build()
            confirm = timer.measure(fn, name=name, warmup=workload.warmup,
                                    repeats=workload.repeats)
            if confirm.median_s < measurement.median_s:
                measurement.samples[:] = confirm.samples
        report = build_report(suite, results, baseline=baseline,
                              threshold=threshold, normalize=normalize)
    return report


def _speedups(results: List[Tuple[Workload, Measurement]]) -> Dict:
    """Pair up pre/fast arms into before/after speedup entries."""
    arms: Dict[str, Dict[str, Measurement]] = {}
    floors: Dict[str, float] = {}
    for workload, measurement in results:
        if workload.pair is not None:
            arms.setdefault(workload.pair, {})[workload.arm] = measurement
            if workload.min_speedup is not None:
                floors[workload.pair] = max(workload.min_speedup,
                                            floors.get(workload.pair, 0.0))
    speedups: Dict[str, Dict] = {}
    for pair in sorted(arms):
        pre = arms[pair].get(PRE_ARM)
        fast = arms[pair].get(FAST_ARM)
        if pre is None or fast is None:
            continue
        speedups[pair] = {
            "pre_s": pre.median_s,
            "fast_s": fast.median_s,
            "speedup": pre.median_s / fast.median_s if fast.median_s > 0 else 0.0,
        }
        macs = fast.metadata.get("macs")
        if macs is not None:
            speedups[pair]["macs"] = macs
        if pair in floors:
            speedups[pair]["min_speedup"] = floors[pair]
    return speedups


def build_report(suite: str, results: List[Tuple[Workload, Measurement]],
                 baseline: Optional[Dict] = None,
                 threshold: float = 0.25, normalize: bool = True) -> Dict:
    """Assemble the full ``BENCH_<suite>.json`` document."""
    report = {
        "schema": schemas.BENCH_REPORT,
        "schema_version": SCHEMA_VERSION,
        "suite": suite,
        "environment": environment_fingerprint(),
        "workloads": {
            measurement.name: dict(measurement.to_dict(),
                                   suites=list(workload.suites),
                                   pair=workload.pair, arm=workload.arm)
            for workload, measurement in results
        },
        "speedups": _speedups(results),
    }
    report["comparison"] = compare_reports(report, baseline,
                                           threshold=threshold,
                                           normalize=normalize)
    return report


def write_report(report: Dict, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def load_report(path) -> Dict:
    return json.loads(Path(path).read_text())


def _format_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:.2f} s"
    if value >= 1e-3:
        return f"{value * 1e3:.2f} ms"
    return f"{value * 1e6:.1f} us"


def markdown_summary(report: Dict) -> str:
    """Render the report as a markdown summary table (CI step summary)."""
    lines = [f"## Benchmark suite `{report['suite']}`", ""]
    comparison = report.get("comparison", {})
    status = comparison.get("status", "no-baseline")
    if status == "no-baseline":
        lines.append("_No baseline — reporting absolute numbers only._")
    else:
        scale = comparison.get("machine_scale", 1.0)
        lines.append(f"**Gate: {status.upper()}** (threshold "
                     f"{comparison.get('threshold', 0):.0%}, machine scale "
                     f"{scale:.2f}x"
                     f"{', normalized' if comparison.get('normalized') else ''})")
    lines.append("")
    lines.append("| workload | median | p95 | vs baseline | verdict |")
    lines.append("|---|---|---|---|---|")
    verdicts = comparison.get("verdicts", {})
    for name in sorted(report.get("workloads", {})):
        entry = report["workloads"][name]
        verdict = verdicts.get(name, {})
        ratio = verdict.get("ratio")
        ratio_text = f"{ratio:.2f}x" if ratio is not None else "-"
        label = verdict.get("verdict",
                            "calibration" if name == CALIBRATION_WORKLOAD
                            else "-")
        lines.append(f"| {name} | {_format_seconds(entry['median_s'])} "
                     f"| {_format_seconds(entry['p95_s'])} "
                     f"| {ratio_text} | {label} |")
    speedups = report.get("speedups", {})
    if speedups:
        slow = set(comparison.get("slow_pairs", []))
        lines += ["", "### Optimization deltas (pre vs fast path)", "",
                  "| pair | pre | fast | speedup | min | MACs |",
                  "|---|---|---|---|---|---|"]
        for pair in sorted(speedups):
            entry = speedups[pair]
            macs = entry.get("macs")
            macs_text = f"{macs / 1e6:.1f}M" if macs is not None else "-"
            floor = entry.get("min_speedup")
            floor_text = "-" if floor is None else (
                f"{floor:.2f}x{' **below**' if pair in slow else ''}")
            lines.append(f"| {pair} | {_format_seconds(entry['pre_s'])} "
                         f"| {_format_seconds(entry['fast_s'])} "
                         f"| {entry['speedup']:.2f}x | {floor_text} "
                         f"| {macs_text} |")
    return "\n".join(lines) + "\n"
