"""Replica selection policies and the memoizing router wrapper.

The front door has to place every admitted request on one of the active
replicas.  Policies here implement that choice:

* :class:`RoundRobinPolicy` — the classic baseline: rotate through active
  replicas, oblivious to load and variant residency;
* :class:`LeastLoadedPolicy` — pick the replica with the least modeled
  backlog (join-the-shortest-queue in units of seconds, not requests);
* :class:`AffinityPolicy` — score replicas by modeled backlog *plus* a
  variant-load penalty when the request's routed (model, scheme) variant
  is not resident there.  Under a memory budget that cannot hold every
  variant everywhere, this specializes replicas onto variant subsets and
  converts most would-be variant reloads into residency hits — lower tail
  latency and less churn than round-robin, which the cluster tests assert.

All policies are deterministic: ties break on the lowest replica id.

:class:`CachedRouter` wraps the SLO router with a decision memo keyed by
the request's routing-relevant fields.  Trace traffic draws from a small
cross-product of (model, plan, steps, SLO), so at 10^6 requests the memo
turns ~10^6 cost-model evaluations into a handful — this is what makes
million-request simulation CI-feasible while every replica engine and the
front door still consult the *same* routing function.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..request import Request
from ..router import RoutingDecision, SLORouter
from .replica import ACTIVE, ClusterCostModel, Replica


class CachedRouter:
    """Memoizes :meth:`SLORouter.decide` by routing-relevant request fields.

    Sound because the router is a pure function of (model, scheme-pin,
    plan, step budget, SLO) — nothing else on the request influences the
    decision.  Everything else (``predictions``, ``resolve_plan``, ...)
    delegates to the wrapped router, so a ``CachedRouter`` drops in
    anywhere an :class:`SLORouter` is accepted.
    """

    def __init__(self, inner: SLORouter):
        self.inner = inner
        self._decisions: Dict[Tuple, RoutingDecision] = {}

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def decide(self, request: Request) -> RoutingDecision:
        key = (request.model, request.scheme, request.plan,
               request.num_steps, request.latency_slo)
        decision = self._decisions.get(key)
        if decision is None:
            decision = self.inner.decide(request)
            self._decisions[key] = decision
        return decision

    @property
    def cache_size(self) -> int:
        return len(self._decisions)


class RoutingPolicy:
    """Chooses the replica an admitted request is placed on."""

    name = "base"

    def choose(self, replicas: Sequence[Replica], request: Request,
               decision: RoutingDecision, now: float,
               cost_model: ClusterCostModel) -> Optional[Replica]:
        raise NotImplementedError

    @staticmethod
    def active(replicas: Sequence[Replica]) -> List[Replica]:
        return [r for r in replicas if r.state == ACTIVE]


class RoundRobinPolicy(RoutingPolicy):
    """Rotate through active replicas, ignoring load and residency."""

    name = "round_robin"

    def __init__(self):
        self._cursor = 0

    def choose(self, replicas, request, decision, now, cost_model):
        active = self.active(replicas)
        if not active:
            return None
        replica = active[self._cursor % len(active)]
        self._cursor += 1
        return replica


class LeastLoadedPolicy(RoutingPolicy):
    """Join the replica with the least modeled backlog (in seconds)."""

    name = "least_loaded"

    def choose(self, replicas, request, decision, now, cost_model):
        active = self.active(replicas)
        if not active:
            return None
        return min(active, key=lambda r: (r.backlog_seconds(now)
                                          + r.pending_requests * 1e-3,
                                          r.replica_id))


class AffinityPolicy(RoutingPolicy):
    """Backlog plus variant-residency-aware scoring.

    score(replica) = backlog_seconds                       (queued work)
                   + pending * amortized request seconds   (unbatched work)
                   + variant_load_seconds * LOAD_WEIGHT    (if not resident)

    ``LOAD_WEIGHT`` > 1 biases toward residency beyond the raw one-off
    load cost, which is what pays when a reload would also *evict* a
    variant other traffic still wants.  Deterministic; ties break on the
    lowest replica id.
    """

    name = "affinity"

    #: Weight of a non-resident variant's load cost in the score.
    LOAD_WEIGHT = 2.0

    def choose(self, replicas, request, decision, now, cost_model):
        active = self.active(replicas)
        if not active:
            return None
        model = request.model
        scheme = decision.scheme
        plan = decision.plan
        amortized = cost_model.amortized_request_seconds(
            model, scheme, plan, batch_size_hint=max(
                active[0].config.max_batch_size / 2.0, 1.0))
        load_penalty = (cost_model.variant_load_seconds(model, scheme)
                        * self.LOAD_WEIGHT)

        def score(replica: Replica) -> Tuple[float, int]:
            cost = (replica.backlog_seconds(now)
                    + replica.pending_requests * amortized)
            if not replica.has_variant(model, scheme):
                cost += load_penalty
            return (cost, replica.replica_id)

        return min(active, key=score)


#: Policy registry for config-by-name (CLI, benchmarks, CI smoke job).
POLICIES = {
    RoundRobinPolicy.name: RoundRobinPolicy,
    LeastLoadedPolicy.name: LeastLoadedPolicy,
    AffinityPolicy.name: AffinityPolicy,
}


def make_policy(name: str) -> RoutingPolicy:
    """Instantiate a routing policy by registry name."""
    try:
        return POLICIES[name]()
    except KeyError:
        raise ValueError(f"unknown routing policy {name!r}; "
                         f"known: {sorted(POLICIES)}") from None
