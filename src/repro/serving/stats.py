"""Serving instrumentation: completion and batch counters, JSON report.

:meth:`ServingStats.record_request` is the one way to count a completed
request and :meth:`ServingStats.record_batch` the one way to count a
generation pass.  :meth:`ServingStats.report` aggregates them into the
quantities a serving operator watches — p50/p95 latency and queue wait,
throughput, mean/histogram batch size, rejection counts (total and per
tenant / SLO tier / reason), cache hit rates, and a per-plan block
(latency summary, scheme mix and SLO attainment per routed
sampler/steps/guidance combination, the quality dimension the
two-dimensional router trades) — and serializes to JSON so load-test runs
can be archived and diffed.

The counters (completions, scheme mix, SLO attainment, batch count and
size histogram) are exact in every instance.  With ``keep_records=True``
(the default, a single engine) each completion also keeps the five
columns the latency blocks and the per-plan block read: plan label,
scheme, queue wait, total latency and SLO outcome.  The cluster's
replicas and front door use ``ServingStats(keep_records=False)``: the
simulator pushes ~10^6 requests through them and keeps its own compact
latency arrays, so those blocks stay empty there.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np


def plan_label(plan, num_steps: int) -> str:
    """Routed-plan identity for grouping, e.g. ``ddim/8`` or ``dpm2/4@g2``.

    ``num_steps`` is the step count the plan resolved to on the serving
    pipeline.  Every plan knob that changes the served execution
    participates — eta included, since stochastic plans take a different
    (per-row) serving path with a different latency profile.
    """
    label = f"{plan.sampler}/{num_steps}"
    if plan.guidance_scale != 1.0:
        label += f"@g{plan.guidance_scale:g}"
    if plan.eta != 0.0:
        label += f"@eta{plan.eta:g}"
    return label


def percentile_summary(values, quantiles=(50, 95, 99)) -> Dict[str, float]:
    """Mean/max plus the requested percentiles, as a JSON-ready dict.

    The cluster report's latency blocks use the default (p50/p95/p99); the
    single-engine report asks for p50/p95.
    """
    if len(values) == 0:
        summary = {"mean": 0.0, "max": 0.0}
        summary.update({f"p{q:g}": 0.0 for q in quantiles})
        return summary
    array = np.asarray(values, dtype=np.float64)
    summary = {"mean": float(array.mean()), "max": float(array.max())}
    points = np.percentile(array, list(quantiles))
    summary.update({f"p{q:g}": float(p) for q, p in zip(quantiles, points)})
    return summary


class ServingStats:
    """Accumulates serving telemetry and renders the stats report."""

    def __init__(self, keep_records: bool = True):
        self.keep_records = keep_records
        # Per-completion columns, kept only with keep_records.
        self._labels: List[str] = []
        self._schemes: List[str] = []
        self._queue_waits: List[float] = []
        self._latencies: List[float] = []
        self._slo_outcomes: List[Optional[bool]] = []
        self.rejected = 0
        self.rejections_by_tenant: Dict[str, int] = {}
        self.rejections_by_tier: Dict[str, int] = {}
        self.rejections_by_reason: Dict[str, int] = {}
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: Extra counter blocks merged into the report (embedding cache,
        #: variant pool, ...), keyed by component name.
        self.components: Dict[str, Dict] = {}
        self._completed = 0
        self._scheme_counts: Dict[str, int] = {}
        self._slo_with = 0
        self._slo_met = 0
        self._batch_count = 0
        self._batch_size_sum = 0
        self._size_histogram: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def record_request(self, scheme: str, slo_met: Optional[bool],
                       label: str, queue_wait: float,
                       total_latency: float) -> None:
        """Count one completed request served at ``scheme`` under the plan
        :func:`plan_label` names; ``slo_met`` is None without a target."""
        self._completed += 1
        self._scheme_counts[scheme] = self._scheme_counts.get(scheme, 0) + 1
        if slo_met is not None:
            self._slo_with += 1
            if slo_met:
                self._slo_met += 1
        if self.keep_records:
            self._labels.append(label)
            self._schemes.append(scheme)
            self._queue_waits.append(queue_wait)
            self._latencies.append(total_latency)
            self._slo_outcomes.append(slo_met)

    def record_batch(self, batch_size: int) -> None:
        """Count one generation pass over ``batch_size`` requests."""
        self._batch_count += 1
        self._batch_size_sum += batch_size
        key = str(batch_size)
        self._size_histogram[key] = self._size_histogram.get(key, 0) + 1

    def record_rejection(self, tenant: Optional[str] = None,
                         tier: Optional[str] = None,
                         reason: str = "queue_full") -> None:
        """Count a shed request, attributed to its tenant / SLO tier / cause."""
        self.rejected += 1
        if tenant is not None:
            self.rejections_by_tenant[tenant] = (
                self.rejections_by_tenant.get(tenant, 0) + 1)
        if tier is not None:
            self.rejections_by_tier[tier] = (
                self.rejections_by_tier.get(tier, 0) + 1)
        self.rejections_by_reason[reason] = (
            self.rejections_by_reason.get(reason, 0) + 1)

    def mark_start(self, now: float) -> None:
        if self.started_at is None or now < self.started_at:
            self.started_at = now

    def mark_finish(self, now: float) -> None:
        if self.finished_at is None or now > self.finished_at:
            self.finished_at = now

    def set_component_stats(self, name: str, stats: Dict) -> None:
        self.components[name] = dict(stats)

    # ------------------------------------------------------------------
    @property
    def completed(self) -> int:
        return self._completed

    @property
    def batch_count(self) -> int:
        return self._batch_count

    @property
    def mean_batch_size(self) -> float:
        return (self._batch_size_sum / self._batch_count
                if self._batch_count else 0.0)

    def by_scheme(self) -> Dict[str, int]:
        """Completed requests per served scheme, in first-served order."""
        return dict(self._scheme_counts)

    @property
    def wall_time(self) -> float:
        if self.started_at is None or self.finished_at is None:
            return 0.0
        return max(self.finished_at - self.started_at, 0.0)

    @property
    def throughput(self) -> float:
        """Completed requests per second of wall-clock serving time."""
        wall = self.wall_time
        return self._completed / wall if wall > 0 else 0.0

    def rejections(self) -> Dict:
        """Rejection counters: total plus per-tenant / per-tier / per-reason."""
        return {
            "total": self.rejected,
            "by_tenant": {tenant: self.rejections_by_tenant[tenant]
                          for tenant in sorted(self.rejections_by_tenant)},
            "by_tier": {tier: self.rejections_by_tier[tier]
                        for tier in sorted(self.rejections_by_tier)},
            "by_reason": {reason: self.rejections_by_reason[reason]
                          for reason in sorted(self.rejections_by_reason)},
        }

    def report(self) -> Dict:
        """Aggregate everything into a JSON-serializable stats report."""
        plan_rows: Dict[str, List[int]] = {}
        for row, label in enumerate(self._labels):
            plan_rows.setdefault(label, []).append(row)
        plans: Dict[str, Dict] = {}
        for label in sorted(plan_rows):
            rows = plan_rows[label]
            by_scheme: Dict[str, int] = {}
            for row in rows:
                scheme = self._schemes[row]
                by_scheme[scheme] = by_scheme.get(scheme, 0) + 1
            targeted = [self._slo_outcomes[row] for row in rows
                        if self._slo_outcomes[row] is not None]
            plans[label] = {
                "count": len(rows),
                "latency_s": percentile_summary(
                    [self._latencies[row] for row in rows], (50, 95)),
                "by_scheme": by_scheme,
                "slo": {
                    "with_target": len(targeted),
                    "met": sum(1 for met in targeted if met),
                },
            }
        return {
            "requests": {
                "completed": self._completed,
                "rejected": self.rejected,
                "by_scheme": self.by_scheme(),
            },
            "rejections": self.rejections(),
            "wall_time_s": self.wall_time,
            "throughput_rps": self.throughput,
            "queue_wait_s": percentile_summary(self._queue_waits, (50, 95)),
            "latency_s": percentile_summary(self._latencies, (50, 95)),
            "batch": {
                "count": self._batch_count,
                "mean_size": self.mean_batch_size,
                "size_histogram": dict(self._size_histogram),
            },
            "slo": {
                "with_target": self._slo_with,
                "met": self._slo_met,
            },
            "plans": plans,
            "components": self.components,
        }

    # ------------------------------------------------------------------
    def to_json(self, path=None, indent: int = 2) -> str:
        """Render the report as JSON; optionally also write it to ``path``."""
        text = json.dumps(self.report(), indent=indent, sort_keys=True)
        if path is not None:
            path = Path(path)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text + "\n")
        return text
