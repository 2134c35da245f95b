"""Front door: bounded admission, per-tenant fairness, replica placement.

Every request enters the cluster here.  Admission is a short deterministic
pipeline; the first failing stage rejects the request with an attributed
reason:

1. **throttled** — the tenant's token bucket is empty.  Each tenant gets
   an identical bucket (``tenant_rate`` tokens/s, ``tenant_burst`` cap),
   so one hot tenant saturates its own bucket instead of starving the
   rest: cross-tenant fairness under Zipf-skewed tenant popularity.
2. **no_replica** — no replica is ``active`` (all still warming, or the
   autoscaler drained too deep).
3. **overload** — total in-flight work across active replicas is at the
   cluster backlog bound; shedding here keeps queueing latency bounded
   instead of letting the tail grow without limit.
4. **queue_full** — the chosen replica's own capacity check failed (the
   replica attributes this one itself, per tenant/tier).

Admitted requests are routed (scheme/plan via the shared cached SLO
router) and placed by the configured :class:`~repro.serving.cluster.
affinity.RoutingPolicy`.  The front door also keeps per-tenant
offered/admitted tallies and windowed arrival/cost counters that feed the
autoscaler's utilization estimate.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..request import Request
from ..stats import ServingStats
from .affinity import RoutingPolicy
from .replica import ClusterCostModel, Replica


class TokenBucket:
    """Deterministic token bucket refilled by elapsed virtual time."""

    __slots__ = ("rate", "capacity", "tokens", "updated_at")

    def __init__(self, rate: float, capacity: float, now: float = 0.0):
        self.rate = rate
        self.capacity = capacity
        self.tokens = capacity
        self.updated_at = now

    def try_take(self, now: float) -> bool:
        if now > self.updated_at:
            self.tokens = min(self.capacity,
                              self.tokens + (now - self.updated_at) * self.rate)
            self.updated_at = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class FrontDoorConfig:
    """Admission knobs for the cluster front door."""

    def __init__(self, tenant_rate: float = 2.0, tenant_burst: float = 20.0,
                 max_cluster_pending: int = 512):
        """
        ``tenant_rate``/``tenant_burst`` parameterize every tenant's token
        bucket (requests/s sustained, burst allowance).
        ``max_cluster_pending`` bounds total admitted-but-unfinished
        requests across active replicas — the cluster-wide backlog bound.
        """
        self.tenant_rate = tenant_rate
        self.tenant_burst = tenant_burst
        self.max_cluster_pending = max_cluster_pending


class FrontDoor:
    """Admission control + routing for a replica set."""

    def __init__(self, router, policy: RoutingPolicy,
                 cost_model: ClusterCostModel,
                 config: Optional[FrontDoorConfig] = None,
                 tracer=None):
        self.router = router
        self.policy = policy
        self.cost_model = cost_model
        self.config = config or FrontDoorConfig()
        #: Optional :class:`repro.obs.Tracer`: every admission rejection
        #: becomes an instant event on the cluster's "frontdoor" lane
        #: (timestamped explicitly with the virtual now, so the tracer's
        #: own clock never matters here).
        self.tracer = tracer
        #: Rejection bookkeeping (per tenant/tier/reason) reuses the
        #: serving stats counters, so the report format matches the
        #: single-engine ``report()["rejections"]`` block.
        self.stats = ServingStats(keep_records=False)
        self.offered = 0
        self.admitted = 0
        self.offered_by_tenant: Dict[str, int] = {}
        self.admitted_by_tenant: Dict[str, int] = {}
        self._buckets: Dict[str, TokenBucket] = {}
        # Windowed signals for the autoscaler (reset by take_window()).
        self._window_arrivals = 0
        self._window_admitted = 0
        self._window_cost_s = 0.0

    # ------------------------------------------------------------------
    def _bucket(self, tenant: str, now: float) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(self.config.tenant_rate,
                                 self.config.tenant_burst, now=now)
            self._buckets[tenant] = bucket
        return bucket

    def _reject(self, request: Request, reason: str, now: float) -> None:
        self.stats.record_rejection(tenant=request.tenant, tier=request.tier,
                                    reason=reason)
        if self.tracer is not None:
            self.tracer.instant("admission.rejected", ts=now,
                                category="admission", lane="frontdoor",
                                process="cluster",
                                attrs={"reason": reason,
                                       "tenant": request.tenant,
                                       "tier": request.tier})

    # ------------------------------------------------------------------
    def dispatch(self, request: Request, now: float,
                 replicas: Sequence[Replica]) -> Optional[Replica]:
        """Admit, route and place one request; None means rejected.

        The rejection (with its stage reason) is already recorded when
        None is returned — including replica-level ``queue_full``, which
        the chosen replica attributes in its own stats.
        """
        self.offered += 1
        self._window_arrivals += 1
        tenant = request.tenant or "anonymous"
        self.offered_by_tenant[tenant] = \
            self.offered_by_tenant.get(tenant, 0) + 1

        if not self._bucket(tenant, now).try_take(now):
            self._reject(request, "throttled", now)
            return None

        active = RoutingPolicy.active(replicas)
        if not active:
            self._reject(request, "no_replica", now)
            return None

        if (sum(r.inflight for r in active)
                >= self.config.max_cluster_pending):
            self._reject(request, "overload", now)
            return None

        decision = self.router.decide(request)
        replica = self.policy.choose(replicas, request, decision, now,
                                     self.cost_model)
        if replica is None or not replica.submit(request):
            # Replica-level shedding already recorded as queue_full with
            # tenant/tier attribution by the replica's own stats.
            return None

        self.admitted += 1
        self._window_admitted += 1
        self._window_cost_s += self.cost_model.amortized_request_seconds(
            request.model, decision.scheme, decision.plan,
            batch_size_hint=max(replica.config.max_batch_size / 2.0, 1.0))
        self.admitted_by_tenant[tenant] = \
            self.admitted_by_tenant.get(tenant, 0) + 1
        return replica

    # ------------------------------------------------------------------
    def take_window(self) -> Tuple[int, int, float]:
        """Return and reset (arrivals, admitted, modeled admitted cost s).

        Called once per autoscaler tick; arrivals/interval is the offered
        rate, cost/admitted the mean amortized service seconds.
        """
        window = (self._window_arrivals, self._window_admitted,
                  self._window_cost_s)
        self._window_arrivals = 0
        self._window_admitted = 0
        self._window_cost_s = 0.0
        return window

    def summary(self) -> Dict:
        """Front-door block of the cluster report."""
        return {
            "offered": self.offered,
            "admitted": self.admitted,
            "admission_rate": (self.admitted / self.offered
                               if self.offered else 1.0),
            "rejections": self.stats.rejections(),
            "tenants": len(self.offered_by_tenant),
            "policy": self.policy.name,
        }
