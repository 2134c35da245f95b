"""Baseline comparison: per-workload verdicts with a regression threshold.

A committed baseline (``benchmarks/baselines/bench_baseline.json``) was
recorded on *some* machine; the current run executes on another.  Raw
medians are therefore normalized before comparing: the machine-speed scale
is the **median of the per-workload current/baseline ratios** (the
``calibration.reference`` anchor votes like any other workload).  A
uniformly slower machine moves every ratio by the same factor, which the
median absorbs, while a genuine regression stands out against the pack of
unregressed workloads.  The deliberate trade-off: a change that slows
*most* workloads by a similar factor is indistinguishable from a slower
machine — which is why the report also carries the pre/fast ``speedups``
block, an absolute same-run guard on the optimized paths, and why
``--no-normalize`` exists for same-machine comparisons.

That guard is a gate of its own: a pair whose same-run speedup falls below
the ``min_speedup`` it declares is listed in ``slow_pairs`` and fails the
run, with or without a baseline — a baseline can drift along with a slow
path, a same-run ratio of the two arms cannot.
"""

from __future__ import annotations

from typing import Dict, List, Optional

#: Machine-speed anchor (a fixed numpy matmul loop, independent of repo
#: code); participates in the scale estimate but never gets a verdict.
CALIBRATION_WORKLOAD = "calibration.reference"

VERDICT_PASS = "pass"
VERDICT_REGRESSION = "regression"
VERDICT_IMPROVED = "improved"
VERDICT_NEW = "new"
VERDICT_MISSING = "missing"

DEFAULT_THRESHOLD = 0.25


def _median(report: Dict, name: str) -> Optional[float]:
    entry = report.get("workloads", {}).get(name)
    if entry is None:
        return None
    return float(entry["median_s"])


def compare_reports(current: Dict, baseline: Optional[Dict],
                    threshold: float = DEFAULT_THRESHOLD,
                    normalize: bool = True) -> Dict:
    """Build the ``comparison`` block of a benchmark report.

    ``threshold`` is the tolerated fractional slowdown: with the default
    0.25, a workload regresses when its (normalized) median exceeds the
    baseline's by more than 25%.  Symmetric improvements are labeled
    ``improved``; workloads present on only one side get ``new`` /
    ``missing`` and never fail the gate.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    slow_pairs = sorted(
        pair for pair, entry in current.get("speedups", {}).items()
        if entry.get("min_speedup") is not None
        and entry["speedup"] < entry["min_speedup"])
    if baseline is None:
        return {"status": "regression" if slow_pairs else "no-baseline",
                "threshold": threshold, "normalized": False, "verdicts": {},
                "regressions": [], "slow_pairs": slow_pairs}

    scale = 1.0
    normalized = False
    if normalize:
        ratios: List[float] = []
        for name, entry in current.get("workloads", {}).items():
            base_median = _median(baseline, name)
            if base_median:
                ratios.append(float(entry["median_s"]) / base_median)
        if ratios:
            # Multiplying baseline medians by this factor re-expresses them
            # in the current machine's time units.
            ordered = sorted(ratios)
            middle = len(ordered) // 2
            scale = (ordered[middle] if len(ordered) % 2
                     else 0.5 * (ordered[middle - 1] + ordered[middle]))
            normalized = True

    verdicts: Dict[str, Dict] = {}
    regressions = []
    for name, entry in current.get("workloads", {}).items():
        if name == CALIBRATION_WORKLOAD:
            continue
        base_median = _median(baseline, name)
        if base_median is None:
            verdicts[name] = {"verdict": VERDICT_NEW,
                              "median_s": float(entry["median_s"])}
            continue
        expected = base_median * scale
        ratio = float(entry["median_s"]) / expected if expected > 0 else 1.0
        if ratio > 1.0 + threshold:
            verdict = VERDICT_REGRESSION
            regressions.append(name)
        elif ratio < 1.0 - threshold:
            verdict = VERDICT_IMPROVED
        else:
            verdict = VERDICT_PASS
        verdicts[name] = {
            "verdict": verdict,
            "median_s": float(entry["median_s"]),
            "baseline_median_s": base_median,
            "expected_s": expected,
            "ratio": ratio,
        }
    for name in baseline.get("workloads", {}):
        if name != CALIBRATION_WORKLOAD and name not in verdicts:
            verdicts[name] = {"verdict": VERDICT_MISSING}

    return {
        "status": "regression" if regressions or slow_pairs else "pass",
        "threshold": threshold,
        "normalized": normalized,
        "machine_scale": scale,
        "verdicts": verdicts,
        "regressions": sorted(regressions),
        "slow_pairs": slow_pairs,
    }
