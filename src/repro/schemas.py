"""Central registry of every versioned JSON report schema the repo emits.

Every ``"<family>/v<N>"`` tag written into a JSON document must come from a
constant defined here — the ``schema-discipline`` rule of
``python -m repro.analysis`` flags inline tag literals anywhere else under
``src/``.  Routing every writer through one module means a format bump is a
one-line diff reviewers cannot miss, and EXPERIMENTS.md has a single table
to stay in sync with.

The module is deliberately stdlib-only and imports nothing from the rest of
the package, so the analysis CLI, the bench reporter and the serving tier
can all depend on it without cycles.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, NamedTuple

#: Static-analysis report (``python -m repro.analysis --json``).
ANALYSIS_REPORT = "repro.analysis/v3"
#: ``MetricsRegistry.snapshot()`` documents (telemetry smoke artifact).
OBS_METRICS = "repro.obs.metrics/v1"
#: Cost-model calibration report (``CalibrationReport.to_dict()``).
OBS_CALIBRATION = "repro.obs.calibration/v1"
#: Cluster simulator report (``build_cluster_report``).
CLUSTER_REPORT = "cluster_report/v1"
#: Benchmark suite report (``BENCH_<suite>.json``).
BENCH_REPORT = "repro.bench/v1"


class SchemaSpec(NamedTuple):
    """One registered report format."""

    tag: str
    description: str
    #: Top-level keys a conforming document must carry.
    required_keys: tuple


_REGISTRY: Dict[str, SchemaSpec] = {}


def register_schema(tag: str, description: str,
                    required_keys: Iterable[str] = ()) -> str:
    """Register ``tag`` and return it (so constants can self-register)."""
    if tag in _REGISTRY:
        raise ValueError(f"schema tag {tag!r} registered twice")
    _REGISTRY[tag] = SchemaSpec(tag, description, tuple(required_keys))
    return tag


def validate_document(doc: Mapping, expect: str = "") -> None:
    """Check ``doc`` carries a registered ``schema`` tag and required keys.

    Raises ``ValueError`` with a precise message on any mismatch; returns
    ``None`` on success so writers can call it inline before serializing.
    """
    tag = doc.get("schema")
    if expect and tag != expect:
        raise ValueError(f"expected schema {expect!r}, document carries {tag!r}")
    spec = _REGISTRY.get(tag)
    if spec is None:
        raise ValueError(f"document schema {tag!r} is not registered "
                         f"(known: {sorted(_REGISTRY)})")
    missing = [key for key in spec.required_keys if key not in doc]
    if missing:
        raise ValueError(f"{tag} document is missing required keys {missing}")


register_schema(ANALYSIS_REPORT, "static-analysis findings report",
                ("schema", "findings", "summary", "timing"))
register_schema(OBS_METRICS, "metrics registry snapshot",
                ("schema", "metrics"))
register_schema(OBS_CALIBRATION, "latency cost-model calibration report",
                ("schema", "summary"))
register_schema(CLUSTER_REPORT, "cluster simulation report",
                ("schema", "requests", "replicas"))
register_schema(BENCH_REPORT, "benchmark suite report",
                ("schema", "suite", "workloads"))
