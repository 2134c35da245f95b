"""Autoscaler: replica-count control from arrival rate and modeled cost.

Sizing follows the cost model's utilization law
(:func:`repro.profiling.estimate_utilization`): with offered rate λ and
amortized service time S per request, N active replicas run at
ρ = λ·S / N, so holding a target utilization ρ* needs

    desired = ceil(λ · S / ρ*)

clamped to ``[min_replicas, max_replicas]``.  λ comes from the front
door's windowed arrival counter and S from measurement: the executor
busy-seconds booked per request completed in the window, smoothed with an
EWMA (weight ``service_ewma`` on the newest window) so one quiet tick
doesn't flap the fleet.  Until a window completes anything, S is
``default_service_seconds``.

Scaling is deliberately not free or instant:

* **warmup** — a scale-up decision creates ``warming`` replicas that take
  traffic only ``warmup_seconds`` later (the cluster event loop schedules
  the activation), so a burst always pays some queueing before capacity
  arrives;
* **cooldown** — after any scaling action the controller holds for
  ``cooldown_seconds``, damping oscillation;
* **drain, don't kill** — scale-down marks the highest-id active replica
  ``draining``: it finishes in-flight work, then stops.  One replica per
  tick, so downscaling is gradual.

Every tick appends a point to :attr:`timeline` (rate, utilization,
desired/active/warming/draining counts, action), which the cluster report
emits so autoscaler behaviour over the trace is auditable.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from ...profiling import estimate_utilization


class AutoscalerConfig:
    """Control knobs for the replica-count controller."""

    def __init__(self, min_replicas: int = 2, max_replicas: int = 8,
                 target_utilization: float = 0.6,
                 scale_down_utilization: float = 0.3,
                 warmup_seconds: float = 30.0,
                 cooldown_seconds: float = 60.0,
                 interval_seconds: float = 15.0,
                 service_ewma: float = 0.5,
                 default_service_seconds: float = 0.3):
        if not 0 < target_utilization <= 1:
            raise ValueError("target_utilization must be in (0, 1], got "
                             f"{target_utilization}")
        if scale_down_utilization >= target_utilization:
            raise ValueError("scale_down_utilization must be below "
                             "target_utilization")
        if min_replicas < 1 or max_replicas < min_replicas:
            raise ValueError(f"need 1 <= min_replicas <= max_replicas, got "
                             f"{min_replicas}..{max_replicas}")
        if interval_seconds <= 0:
            raise ValueError(f"interval_seconds must be > 0, got "
                             f"{interval_seconds}")
        if warmup_seconds < 0:
            raise ValueError(f"warmup_seconds must be >= 0, got "
                             f"{warmup_seconds}")
        if not 0 < service_ewma <= 1:
            raise ValueError(f"service_ewma must be in (0, 1], got "
                             f"{service_ewma}")
        self.min_replicas = min_replicas
        self.max_replicas = max_replicas
        self.target_utilization = target_utilization
        self.scale_down_utilization = scale_down_utilization
        self.warmup_seconds = warmup_seconds
        self.cooldown_seconds = cooldown_seconds
        self.interval_seconds = interval_seconds
        self.service_ewma = service_ewma
        self.default_service_seconds = default_service_seconds


class Autoscaler:
    """Tick-driven desired-replica controller; the sim applies decisions."""

    def __init__(self, config: Optional[AutoscalerConfig] = None):
        self.config = config or AutoscalerConfig()
        self.timeline: List[Dict] = []
        self._last_action_at: Optional[float] = None
        self._service_estimate = self.config.default_service_seconds

    # ------------------------------------------------------------------
    def _cooldown_ok(self, now: float) -> bool:
        return (self._last_action_at is None
                or now - self._last_action_at
                >= self.config.cooldown_seconds)

    def evaluate(self, now: float, arrivals: int, busy_delta_s: float,
                 completed: int, active: int, warming: int,
                 draining: int) -> Dict:
        """One control tick; returns the decision (also appended to the
        timeline).

        ``arrivals`` is this window's offered count (front door);
        ``busy_delta_s``/``completed`` the executor busy-seconds booked
        and requests completed this window — *measured* signals, so the
        per-request service estimate reflects realized batching, variant
        loads and the traffic mix rather than a model guess.
        ``active``/``warming``/``draining`` are the fleet composition.
        The decision dict's ``action`` is ``hold``/``scale_up``/
        ``scale_down``, with ``count`` replicas to start or drain.
        """
        cfg = self.config
        rate = arrivals / cfg.interval_seconds
        if completed > 0:
            fresh = busy_delta_s / completed
            self._service_estimate = (cfg.service_ewma * fresh
                                      + (1 - cfg.service_ewma)
                                      * self._service_estimate)
        service = self._service_estimate
        # Demand-side utilization (offered work over capacity), the same
        # law the sizing inverts; capped-capacity windows where the
        # backlog grows still read > 1 because `rate` is offered, not
        # completed.
        utilization = estimate_utilization(rate, service, max(active, 1))
        desired = math.ceil(rate * service / cfg.target_utilization)
        desired = max(cfg.min_replicas, min(cfg.max_replicas, desired))

        provisioned = active + warming
        action, count = "hold", 0
        if self._cooldown_ok(now):
            if desired > provisioned:
                action = "scale_up"
                count = desired - provisioned
                self._last_action_at = now
            elif (desired < provisioned
                  and utilization < cfg.scale_down_utilization
                  and provisioned - draining > cfg.min_replicas):
                action = "scale_down"
                count = 1
                self._last_action_at = now

        point = {
            "t": now,
            "rate_rps": rate,
            "service_s": service,
            "utilization": utilization,
            "desired": desired,
            "active": active,
            "warming": warming,
            "draining": draining,
            "action": action,
            "count": count,
        }
        self.timeline.append(point)
        return point

    # ------------------------------------------------------------------
    def summary(self) -> Dict:
        """Autoscaler block of the cluster report."""
        ups = sum(p["count"] for p in self.timeline
                  if p["action"] == "scale_up")
        downs = sum(p["count"] for p in self.timeline
                    if p["action"] == "scale_down")
        return {
            "enabled": True,
            "ticks": len(self.timeline),
            "scale_ups": ups,
            "scale_downs": downs,
            "peak_desired": max((p["desired"] for p in self.timeline),
                                default=0),
            "peak_active": max((p["active"] for p in self.timeline),
                               default=0),
            "timeline": self.timeline,
        }
