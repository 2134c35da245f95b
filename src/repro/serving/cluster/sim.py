"""The cluster simulator: a deterministic discrete-event loop over replicas.

Everything in the cluster shares one
:class:`~repro.serving.clock.VirtualClock`; the simulator owns the only
code that moves it.  Events live in a heap keyed by ``(time, kind, seq)``
— ``seq`` is a monotonic counter, so simultaneous events process in a
fixed order (completions before batch-age timers before arrivals before
autoscaler ticks) and a run is a pure function of (trace, config).

Event kinds:

* **arrival** — the next trace request reaches the front door: admission
  (token bucket, backlog bound), routing (cached SLO router), placement
  (affinity/round-robin policy), then any batches that *filled* on that
  replica are scheduled.  Arrivals are streamed from the trace one event
  at a time, so a million-request trace never materializes at once.
* **due** — a replica's oldest partial batch hit ``max_wait``; close and
  schedule it.  One timer per replica is kept outstanding, re-armed from
  :meth:`~repro.serving.batcher.DynamicBatcher.next_due_at` — the event
  loop never polls.
* **complete** — a scheduled batch finishes on its replica's executor
  timeline (``started = max(formed, replica.busy_until)``); responses are
  recorded into cluster stats with exact queue/dispatch/service splits.
* **tick** — the autoscaler evaluates the last window's arrival rate and
  measured busy-seconds per completion, possibly spawning ``warming``
  replicas or draining one.
* **warmup** — a warming replica becomes active (scale-ups take
  ``warmup_seconds`` to contribute capacity).

Service time never comes from executing anything: replicas price each
batch with the roofline-driven :class:`~repro.serving.cluster.replica.
ClusterCostModel` and the engine executes it with explicit timestamps.
That is what makes ~10^6-request simulations run in seconds of wall time
while still exercising the real admission/routing/batching/pool code.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Union

from ..clock import VirtualClock
from .affinity import CachedRouter, RoutingPolicy, make_policy
from .autoscaler import Autoscaler, AutoscalerConfig
from .frontdoor import FrontDoor, FrontDoorConfig
from .replica import (
    ACTIVE,
    WARMING,
    ClusterCostModel,
    Replica,
    ReplicaConfig,
    default_cluster_router,
)
from .report import ClusterStats, build_cluster_report, save_cluster_report
from .trace import Trace

# Event kinds, in processing order at equal timestamps: free capacity
# (warmup, completions) before consuming it (due timers, arrivals), the
# autoscaler last so it sees the settled state of its tick instant.
_WARMUP, _COMPLETE, _DUE, _ARRIVAL, _TICK = range(5)

#: Age-out timers fire this much *after* the mathematical due instant.
#: ``opened_at + max_wait`` recomputed as ``now - opened_at >= max_wait``
#: can miss by one float ulp, which would close nothing and re-arm the
#: timer at the same timestamp forever; the epsilon (far above ulp at any
#: simulated timescale, far below any latency of interest) guarantees the
#: batcher sees the group as aged.
_DUE_EPSILON = 1e-6


class ClusterConfig:
    """Everything about the cluster that is not the traffic."""

    def __init__(self, initial_replicas: int = 4,
                 replica: Optional[ReplicaConfig] = None,
                 frontdoor: Optional[FrontDoorConfig] = None,
                 autoscaler: Optional[AutoscalerConfig] = None,
                 policy: Union[str, RoutingPolicy] = "affinity"):
        """
        ``autoscaler=None`` runs a fixed fleet of ``initial_replicas``;
        pass an :class:`AutoscalerConfig` to enable scaling.  ``policy``
        is a registry name (``affinity`` / ``round_robin`` /
        ``least_loaded``) or a policy instance.  Routing and service are
        priced by :func:`~repro.serving.cluster.replica.
        default_cluster_router`, the router the trace's SLOs come from.
        """
        if initial_replicas < 1:
            raise ValueError(
                f"initial_replicas must be >= 1, got {initial_replicas}")
        self.initial_replicas = initial_replicas
        self.replica = replica or ReplicaConfig()
        self.frontdoor = frontdoor or FrontDoorConfig()
        self.autoscaler = autoscaler
        self.policy = policy


class ClusterSimulation:
    """Drives a replica fleet through a trace on one virtual timeline."""

    def __init__(self, config: Optional[ClusterConfig] = None, tracer=None):
        """``tracer`` (:class:`repro.obs.Tracer`, default off) records the
        whole fleet on the "cluster" process: one lane per replica (batch
        segments + per-request async spans, booked by each replica's
        engine with the modeled virtual timestamps), a "frontdoor" lane of
        admission-rejection instants, and an "autoscaler" lane of decision
        instants.  Tracing only ever appends to the tracer's own buffer —
        a traced run's report stays byte-identical to an untraced one."""
        self.config = config or ClusterConfig()
        self.clock = VirtualClock()
        self.tracer = tracer
        self.router = CachedRouter(default_cluster_router())
        self.cost_model = ClusterCostModel(self.router)
        self.policy = (make_policy(self.config.policy)
                       if isinstance(self.config.policy, str)
                       else self.config.policy)
        self.frontdoor = FrontDoor(self.router, self.policy, self.cost_model,
                                   self.config.frontdoor, tracer=self.tracer)
        self.autoscaler = (Autoscaler(self.config.autoscaler)
                           if self.config.autoscaler else None)
        self.stats = ClusterStats()
        self.replicas: List[Replica] = []
        self._next_replica_id = 0
        for _ in range(self.config.initial_replicas):
            self._spawn(ACTIVE, 0.0)
        self._heap: list = []
        self._seq = 0
        self._due_armed: Dict[int, float] = {}
        self._arrivals_done = False
        # Autoscaler window baselines: measured busy-seconds/completions
        # at the previous tick, so each tick sees exact deltas.
        self._busy_at_tick = 0.0
        self._completed_at_tick = 0
        self.events = {"arrivals": 0, "batches": 0, "completions": 0,
                       "due_timers": 0, "ticks": 0, "warmups": 0}

    # ------------------------------------------------------------------
    def _spawn(self, state: str, now: float) -> Replica:
        replica = Replica(self._next_replica_id, self.clock, self.router,
                          self.cost_model, self.config.replica,
                          state=state, started_at=now, tracer=self.tracer)
        self._next_replica_id += 1
        self.replicas.append(replica)
        return replica

    def _push(self, when: float, kind: int, payload=None) -> None:
        heapq.heappush(self._heap, (when, kind, self._seq, payload))
        self._seq += 1

    def _fleet_counts(self) -> Dict[str, int]:
        counts = {"active": 0, "warming": 0, "draining": 0}
        for replica in self.replicas:
            if replica.state in counts:
                counts[replica.state] += 1
        return counts

    def _work_remains(self) -> bool:
        return (not self._arrivals_done
                or any(r.inflight > 0 for r in self.replicas))

    # ------------------------------------------------------------------
    def _arm_due_timer(self, replica: Replica) -> None:
        """Keep exactly one outstanding age-out timer per replica.

        Pending groups only ever open *later* than the one the armed
        timer watches, so re-arming is needed only when no timer is
        outstanding.
        """
        due_at = replica.next_due_at()
        if due_at is None:
            return
        if replica.replica_id not in self._due_armed:
            self._due_armed[replica.replica_id] = due_at
            self._push(due_at + _DUE_EPSILON, _DUE, replica)

    def _schedule_batches(self, replica: Replica, now: float,
                          due: bool = False, flush: bool = False) -> None:
        """Close ready batches and book them on the replica's executor."""
        for batch in replica.collect(due=due, flush=flush):
            started, finished = replica.schedule(batch, now)
            self.events["batches"] += 1
            self._push(finished, _COMPLETE, (replica, batch, started))
        self._arm_due_timer(replica)

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def _on_arrival(self, now: float, request, trace_iter) -> None:
        self.events["arrivals"] += 1
        replica = self.frontdoor.dispatch(request, now, self.replicas)
        if replica is not None:
            self._schedule_batches(replica, now, due=True)
        nxt = next(trace_iter, None)
        if nxt is None:
            self._arrivals_done = True
        else:
            self._push(nxt[0], _ARRIVAL, (nxt[1], trace_iter))

    def _on_due(self, now: float, replica: Replica) -> None:
        self.events["due_timers"] += 1
        self._due_armed.pop(replica.replica_id, None)
        self._schedule_batches(replica, now, due=True)

    def _on_complete(self, now: float, replica: Replica, batch,
                     started: float) -> None:
        self.events["completions"] += 1
        responses = replica.complete(batch, started, finished=now)
        for request, response in zip(batch.requests, responses):
            self.stats.observe(request, response)

    def _on_warmup(self, now: float, replica: Replica) -> None:
        self.events["warmups"] += 1
        replica.activate(now)
        if self.tracer is not None:
            self.tracer.instant("replica.activated", ts=now,
                                category="lifecycle",
                                lane=f"replica-{replica.replica_id}",
                                process="cluster",
                                attrs={"replica": replica.replica_id})

    def _on_tick(self, now: float) -> None:
        self.events["ticks"] += 1
        arrivals = self.frontdoor.take_window()
        counts = self._fleet_counts()
        # Measured signals: executor busy-seconds and completions this
        # window (exact, not estimates — scheduled service is booked into
        # busy_seconds when a batch is priced).
        busy_total = sum(r.busy_seconds for r in self.replicas)
        completed_total = self.stats.completed
        busy_delta = busy_total - self._busy_at_tick
        completed_delta = completed_total - self._completed_at_tick
        self._busy_at_tick = busy_total
        self._completed_at_tick = completed_total
        decision = self.autoscaler.evaluate(
            now, arrivals, busy_delta, completed_delta,
            counts["active"], counts["warming"], counts["draining"])
        if self.tracer is not None:
            self.tracer.instant(f"autoscaler.{decision['action']}", ts=now,
                                category="autoscaler", lane="autoscaler",
                                process="cluster",
                                attrs={key: decision[key] for key in
                                       ("action", "count", "desired",
                                        "active", "warming", "draining",
                                        "rate_rps", "utilization")})
        if decision["action"] == "scale_up":
            for _ in range(decision["count"]):
                replica = self._spawn(WARMING, now)
                self._push(now + self.config.autoscaler.warmup_seconds,
                           _WARMUP, replica)
        elif decision["action"] == "scale_down":
            active = [r for r in self.replicas if r.state == ACTIVE]
            for victim in sorted(active,
                                 key=lambda r: -r.replica_id
                                 )[:decision["count"]]:
                victim.drain(now)
        if self._work_remains():
            self._push(now + self.config.autoscaler.interval_seconds, _TICK)

    # ------------------------------------------------------------------
    def run(self, trace: Trace) -> Dict:
        """Simulate the trace to completion; returns the cluster report.

        May be called once per simulation instance (the clock and stats
        are cumulative).
        """
        trace_iter = iter(trace)
        first = next(trace_iter, None)
        if first is not None:
            self._push(first[0], _ARRIVAL, (first[1], trace_iter))
        else:
            self._arrivals_done = True
        if self.autoscaler is not None:
            self._push(self.config.autoscaler.interval_seconds, _TICK)

        while self._heap:
            when, kind, _seq, payload = heapq.heappop(self._heap)
            self.clock.advance_to(when)
            if kind == _ARRIVAL:
                request, it = payload
                self._on_arrival(when, request, it)
            elif kind == _COMPLETE:
                replica, batch, started = payload
                self._on_complete(when, replica, batch, started)
            elif kind == _DUE:
                self._on_due(when, payload)
            elif kind == _WARMUP:
                self._on_warmup(when, payload)
            elif kind == _TICK:
                self._on_tick(when)
        for replica in self.replicas:
            replica.engine.sync_component_stats()
        return build_cluster_report(self, trace)


def run_cluster_sim(trace: Trace, config: Optional[ClusterConfig] = None,
                    report_path=None, tracer=None, trace_path=None) -> Dict:
    """One-call entry point: simulate ``trace`` and optionally save JSON.

    ``trace_path`` additionally writes a Perfetto-loadable Chrome trace of
    the simulated fleet (per-replica lanes, admission rejections,
    autoscaler decisions); pass your own ``tracer`` instead to keep the
    events in memory.  Tracing never changes the report — same trace, same
    config, byte-identical JSON either way.
    """
    if tracer is None and trace_path is not None:
        from ...obs import Tracer
        tracer = Tracer()
    report = ClusterSimulation(config, tracer=tracer).run(trace)
    if report_path is not None:
        save_cluster_report(report, report_path)
    if trace_path is not None:
        tracer.save(trace_path)
    return report
