"""Serving instrumentation: per-request and per-batch records, JSON report.

Every served request contributes a :class:`RequestRecord` (queue wait, batch
size, measured latency, scheme *and generation plan* actually served) and
every generation pass a :class:`BatchRecord`.  :meth:`ServingStats.report`
aggregates them into the quantities a serving operator watches — p50/p95
latency and queue wait, throughput, mean/histogram batch size, rejection
counts (total and per tenant / SLO tier / reason), cache hit rates, and a
per-plan block (latency summary, scheme mix and SLO attainment per routed
sampler/steps/guidance combination, the quality dimension the
two-dimensional router trades) — and serializes to JSON so load-test runs
can be archived and diffed.

Scalar aggregates (request/batch/rejection counts, scheme mix, SLO
attainment, batch-size histogram) are maintained incrementally as records
arrive, so ``ServingStats(keep_records=False)`` can drop the per-record
lists entirely: the cluster simulator pushes ~10^6 requests through
replica engines and keeps its own compact latency arrays, so retaining a
dataclass per request in every replica would only burn memory.  With
``keep_records=False`` the counter blocks stay exact and only the
record-derived blocks (latency summaries, per-plan breakdown) are empty.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np


@dataclass
class RequestRecord:
    """Instrumentation for one completed request."""

    request_id: int
    model: str
    scheme: str
    num_steps: int
    queue_wait: float
    batch_size: int
    batch_latency: float
    total_latency: float
    latency_slo: Optional[float]
    slo_met: Optional[bool]
    sampler: str = "ddim"
    guidance_scale: float = 1.0
    eta: float = 0.0
    #: Seconds the formed batch waited for the executor (0 when a batch is
    #: processed the moment it closes; the cluster simulator models busy
    #: replicas, where a closed batch can queue behind in-flight work).
    dispatch_wait: float = 0.0
    tenant: Optional[str] = None
    tier: Optional[str] = None

    @property
    def plan_label(self) -> str:
        """Routed-plan identity for grouping, e.g. ``ddim/8`` or ``dpm2/4@g2``.

        Every plan knob that changes the served execution participates —
        eta included, since stochastic plans take a different (per-row)
        serving path with a different latency profile.
        """
        label = f"{self.sampler}/{self.num_steps}"
        if self.guidance_scale != 1.0:
            label += f"@g{self.guidance_scale:g}"
        if self.eta != 0.0:
            label += f"@eta{self.eta:g}"
        return label


@dataclass
class BatchRecord:
    """Instrumentation for one generation pass."""

    model: str
    scheme: str
    num_steps: int
    batch_size: int
    latency: float
    sampler: str = "ddim"
    guidance_scale: float = 1.0
    eta: float = 0.0


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
        self.requests: List[RequestRecord] = []
        self.batches: List[BatchRecord] = []
        self.rejected = 0
        self.rejections_by_tenant: Dict[str, int] = {}
        self.rejections_by_tier: Dict[str, int] = {}
        self.rejections_by_reason: Dict[str, int] = {}
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: Extra counter blocks merged into the report (embedding cache,
        #: variant pool, ...), keyed by component name.
        self.components: Dict[str, Dict] = {}
        # incremental aggregates (exact whether or not records are kept)
        self._completed = 0
        self._scheme_counts: Dict[str, int] = {}
        self._slo_with = 0
        self._slo_met = 0
        self._batch_count = 0
        self._batch_size_sum = 0
        self._size_histogram: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def record_request(self, record: RequestRecord) -> None:
        self._completed += 1
        self._scheme_counts[record.scheme] = (
            self._scheme_counts.get(record.scheme, 0) + 1)
        if record.slo_met is not None:
            self._slo_with += 1
            if record.slo_met:
                self._slo_met += 1
        if self.keep_records:
            self.requests.append(record)

    def record_completion(self, scheme: str,
                          slo_met: Optional[bool] = None) -> None:
        """Count a completed request without materializing a record.

        The record-free twin of :meth:`record_request` for callers running
        with ``keep_records=False`` at scales where even constructing the
        dataclass per request is measurable.
        """
        self._completed += 1
        self._scheme_counts[scheme] = self._scheme_counts.get(scheme, 0) + 1
        if slo_met is not None:
            self._slo_with += 1
            if slo_met:
                self._slo_met += 1

    def record_batch(self, record: BatchRecord) -> None:
        self._batch_count += 1
        self._batch_size_sum += record.batch_size
        key = str(record.batch_size)
        self._size_histogram[key] = self._size_histogram.get(key, 0) + 1
        if self.keep_records:
            self.batches.append(record)

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
        plan_groups: Dict[str, List[RequestRecord]] = {}
        for record in self.requests:
            plan_groups.setdefault(record.plan_label, []).append(record)
        plans: Dict[str, Dict] = {}
        for label in sorted(plan_groups):
            records = plan_groups[label]
            by_scheme: Dict[str, int] = {}
            for record in records:
                by_scheme[record.scheme] = by_scheme.get(record.scheme, 0) + 1
            targeted = [r for r in records if r.slo_met is not None]
            plans[label] = {
                "count": len(records),
                "latency_s": percentile_summary(
                    [r.total_latency for r in records], (50, 95)),
                "by_scheme": by_scheme,
                "slo": {
                    "with_target": len(targeted),
                    "met": sum(1 for r in targeted if r.slo_met),
                },
            }
        return {
            "requests": {
                "completed": self._completed,
                "rejected": self.rejected,
                "by_scheme": dict(self._scheme_counts),
            },
            "rejections": self.rejections(),
            "wall_time_s": self.wall_time,
            "throughput_rps": self.throughput,
            "queue_wait_s": percentile_summary(
                [r.queue_wait for r in self.requests], (50, 95)),
            "latency_s": percentile_summary(
                [r.total_latency for r in self.requests], (50, 95)),
            "batch": {
                "count": self._batch_count,
                "mean_size": (self._batch_size_sum / self._batch_count
                              if self._batch_count else 0.0),
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

    def request_records(self) -> List[Dict]:
        """Raw per-request records as dicts (for debugging / notebooks)."""
        return [asdict(record) for record in self.requests]
