"""Distributed serving tier: replicated engines behind one front door.

Scales the single-node :mod:`repro.serving` engine out to a simulated
fleet, exercised by trace-driven, multi-tenant traffic — the serving-
systems half of the paper's story: quantized variants are cheap enough to
replicate and swap, so placement (which replica holds which variant) and
admission (who gets capacity under overload) become the levers.

* :mod:`~repro.serving.cluster.replica` — one engine per replica with a
  lifecycle (warming/active/draining/stopped), a serial executor
  timeline, and the deterministic roofline-driven service/variant-load
  cost model;
* :mod:`~repro.serving.cluster.frontdoor` — bounded admission with
  per-tenant token-bucket fairness and attributed rejection reasons;
* :mod:`~repro.serving.cluster.affinity` — replica-selection policies
  (round-robin, least-loaded, variant-affinity) and the memoizing router
  wrapper that makes 10^6-request routing cheap;
* :mod:`~repro.serving.cluster.autoscaler` — replica-count control from
  arrival rate and measured service time, with warmup/cooldown/drain
  semantics;
* :mod:`~repro.serving.cluster.trace` — diurnal + bursty Poisson
  arrivals, Zipf tenants/prompts, per-tenant SLO-tier mixes;
* :mod:`~repro.serving.cluster.sim` — the discrete-event loop on one
  shared :class:`~repro.serving.clock.VirtualClock`;
* :mod:`~repro.serving.cluster.report` — cluster/tenant/tier percentiles,
  SLO attainment, fairness, variant churn and the autoscaler timeline,
  emitted deterministically as ``cluster_report.json``.

Typical use::

    from repro.serving.cluster import (
        ClusterConfig, TraceConfig, generate_trace, run_cluster_sim)

    trace = generate_trace(TraceConfig(num_requests=100_000, seed=0))
    report = run_cluster_sim(trace, ClusterConfig(initial_replicas=4),
                             report_path="cluster_report.json")
"""

from .affinity import (
    POLICIES,
    AffinityPolicy,
    CachedRouter,
    LeastLoadedPolicy,
    RoundRobinPolicy,
    RoutingPolicy,
    make_policy,
)
from .autoscaler import Autoscaler, AutoscalerConfig
from .frontdoor import FrontDoor, FrontDoorConfig, TokenBucket
from .replica import (
    ACTIVE,
    DRAINING,
    GPU_L4_SERVING,
    STOPPED,
    WARMING,
    ClusterCostModel,
    Replica,
    ReplicaConfig,
    SimPipeline,
    default_cluster_router,
    paper_costs_fn,
)
from .report import (
    SCHEMA,
    ClusterStats,
    build_cluster_report,
    save_cluster_report,
)
from .sim import ClusterConfig, ClusterSimulation, run_cluster_sim
from .trace import Trace, TraceConfig, default_plan_mix, generate_trace

__all__ = [
    "Replica", "ReplicaConfig", "ClusterCostModel", "SimPipeline",
    "paper_costs_fn", "default_cluster_router", "GPU_L4_SERVING",
    "WARMING", "ACTIVE", "DRAINING", "STOPPED",
    "FrontDoor", "FrontDoorConfig", "TokenBucket",
    "RoutingPolicy", "RoundRobinPolicy", "LeastLoadedPolicy",
    "AffinityPolicy", "CachedRouter", "POLICIES", "make_policy",
    "Autoscaler", "AutoscalerConfig",
    "Trace", "TraceConfig", "generate_trace", "default_plan_mix",
    "ClusterSimulation", "ClusterConfig", "run_cluster_sim",
    "ClusterStats", "build_cluster_report", "save_cluster_report",
    "SCHEMA",
]
