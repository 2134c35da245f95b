"""Trace-driven load generation for the cluster simulator.

Extends the single-engine workload generator (:mod:`repro.serving.
loadgen`) with the traffic structure that makes a *cluster* interesting:

* **non-homogeneous arrivals** — a diurnal sinusoid over the base rate
  (the daily peak/trough every serving paper plots) overlaid with
  Poisson-scheduled **bursts** that multiply the rate for a short window
  (the spikes admission control and the autoscaler must absorb);
* **multi-tenancy** — requests bill to tenants drawn from a Zipf law
  (one hot tenant, a long tail), and each tenant has a dominant SLO tier
  (its "contract") plus a minority mix, so fairness and per-tier SLO
  attainment are measurable per tenant;
* **popularity skew** — prompts reuse the Zipf law from the loadgen so
  replica-level prompt caches have realistic hit rates;
* **plan mix** — requests carry generation plans (default trajectory,
  reduced-step dpm2, guided ddim for text-to-image models), exercising
  the router's two-dimensional scheme x step-budget decisions.

Everything is drawn from ``numpy`` Generators seeded from ``(seed,
stream)`` pairs, with per-request fields vectorized up front and arrival
times from one sequential thinning-free loop — the same config and seed
produce the identical trace on every run, machine, and cluster size
(generation never consults the cluster).  Requests materialize lazily as
the simulator consumes the trace, so a million-request trace costs a few
numpy arrays, not a million live ``Request`` objects.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ...data.prompts import sample_prompt_specs
from ...diffusion.plan import GenerationPlan
from ...models import get_model_spec
from ..loadgen import SLO_TIERS, slo_for_tier, zipf_weights
from ..request import Request
from .replica import default_cluster_router


def default_plan_mix(model: str) -> Tuple[Optional[GenerationPlan], ...]:
    """Plan pool a model's requests draw from uniformly.

    Every model mixes the default trajectory with a reduced-step ``dpm2``
    plan; text-to-image models additionally carry a guided ``ddim`` plan
    (guidance doubles the modeled evals, so under a tight tier the router
    must spend the step-budget dimension — the two-dimensional routing the
    cluster is meant to exercise).  Unconditional models never receive
    guidance plans, which their pipelines reject.
    """
    plans: List[Optional[GenerationPlan]] = [
        None,
        GenerationPlan(sampler="dpm2", num_steps=5),
    ]
    if get_model_spec(model).task == "text-to-image":
        plans.append(GenerationPlan(sampler="ddim", guidance_scale=3.0))
    return tuple(plans)


@dataclass
class TraceConfig:
    """Shape of a cluster traffic trace (all draws derive from ``seed``)."""

    num_requests: int = 10_000
    models: Sequence[str] = ("stable-diffusion", "ddim-cifar10")
    #: Arrival process: base rate, diurnal modulation, Poisson bursts.
    base_rate: float = 6.0                  # requests/s at the diurnal mean
    diurnal_amplitude: float = 0.4          # peak swing as fraction of base
    diurnal_period_s: float = 3600.0        # one "day" of the sinusoid
    burst_rate_per_hour: float = 6.0        # Poisson rate of burst onsets
    burst_multiplier: float = 3.0           # rate multiplier inside a burst
    burst_duration_s: float = 20.0
    #: Tenancy: Zipf-popular tenants, each with a dominant SLO tier.
    num_tenants: int = 20
    tenant_skew: float = 1.1
    tier_affinity: float = 0.6              # P(request uses tenant's tier)
    #: Symbolic tiers a tenant contract can name; ``None`` = best effort.
    tiers: Sequence[Optional[str]] = SLO_TIERS
    #: Cluster headroom over :func:`~repro.serving.loadgen.slo_for_tier`'s
    #: anchors: end-to-end latency includes batching delay, dispatch waits
    #: behind busy replicas and batch-size amortization, so a deliverable
    #: target must leave room for them.
    tier_headroom: Dict[str, float] = field(default_factory=lambda: {
        "loose": 4.0, "medium": 3.0, "tight": 2.0})
    #: Prompt popularity (text-to-image models only).
    prompt_pool_size: int = 64
    prompt_skew: float = 1.2
    #: Optional per-model plan override; default :func:`default_plan_mix`.
    plans: Optional[Dict[str, Sequence[Optional[GenerationPlan]]]] = None
    seed: int = 0

    def __post_init__(self):
        if self.num_requests < 1:
            raise ValueError("num_requests must be >= 1")
        if not 0 <= self.diurnal_amplitude < 1:
            raise ValueError("diurnal_amplitude must be in [0, 1) so the "
                             f"rate stays positive, got {self.diurnal_amplitude}")
        if self.base_rate <= 0:
            raise ValueError(f"base_rate must be > 0, got {self.base_rate}")
        if self.diurnal_period_s <= 0:
            raise ValueError("diurnal_period_s must be > 0, got "
                             f"{self.diurnal_period_s}")
        if self.burst_multiplier <= 0:
            raise ValueError("burst_multiplier must be > 0 so the rate stays "
                             f"positive, got {self.burst_multiplier}")
        if not 0 <= self.tier_affinity <= 1:
            raise ValueError("tier_affinity must be in [0, 1], got "
                             f"{self.tier_affinity}")
        if self.num_tenants < 1:
            raise ValueError("num_tenants must be >= 1")
        for tier in self.tiers:
            if tier not in SLO_TIERS:
                raise ValueError(f"tiers holds unknown SLO tier {tier!r}; "
                                 f"use values from {SLO_TIERS}")
            if tier is not None and tier not in self.tier_headroom:
                raise ValueError(f"tier_headroom has no factor for tier "
                                 f"{tier!r}, got {self.tier_headroom}")

    def describe(self) -> Dict:
        """JSON-friendly summary (plans rendered as labels)."""
        payload = asdict(self)
        payload["models"] = list(self.models)
        payload["tiers"] = [t if t is not None else "none" for t in self.tiers]
        if self.plans is not None:
            payload["plans"] = {
                model: [repr(p) if p is not None else "default"
                        for p in pool]
                for model, pool in self.plans.items()}
        return payload


class Trace:
    """A generated trace: arrival times + vectorized request fields.

    Iterating yields ``(arrival_time, Request)`` pairs; requests are
    constructed lazily so the simulator can stream a million of them
    without holding them all live.
    """

    def __init__(self, config: TraceConfig, arrivals: np.ndarray,
                 fields: Dict[str, np.ndarray],
                 catalog: Dict):
        self.config = config
        self.arrivals = arrivals
        self._fields = fields
        #: Lookup tables the lazy request construction indexes into:
        #: models, per-model plan pools / prompt pools, SLO table, tenants.
        self.catalog = catalog

    def __len__(self) -> int:
        return len(self.arrivals)

    @property
    def duration_s(self) -> float:
        return float(self.arrivals[-1]) if len(self.arrivals) else 0.0

    def request_at(self, index: int) -> Request:
        """Materialize request ``index`` of the trace."""
        f = self._fields
        cat = self.catalog
        model = cat["models"][f["model"][index]]
        prompt = None
        if cat["prompts"][model] is not None:
            prompt = cat["prompts"][model][f["prompt"][index]]
        plans = cat["plans"][model]
        plan = plans[int(f["plan_u"][index] * len(plans)) % len(plans)]
        tier = cat["tiers"][f["tier"][index]]
        return Request(
            model=model,
            prompt=prompt,
            latency_slo=cat["slo"][(model, tier)],
            plan=plan,
            seed=int(f["seed"][index]),
            tenant=cat["tenants"][f["tenant"][index]],
            tier=tier,
        )

    def __iter__(self) -> Iterator[Tuple[float, Request]]:
        for index in range(len(self.arrivals)):
            yield float(self.arrivals[index]), self.request_at(index)

    def fingerprint(self) -> str:
        """Content hash over the config and the drawn arrays.

        Two traces with equal fingerprints produce identical request
        streams; the cluster report embeds this so a report provably
        corresponds to one exact trace.
        """
        from ...core.hashing import content_hash
        return content_hash({
            "config": self.config.describe(),
            "arrivals": self.arrivals,
            "fields": {name: values for name, values in
                       sorted(self._fields.items())},
        })


def _arrival_times(config: TraceConfig, rng: np.random.Generator,
                   burst_rng: np.random.Generator) -> np.ndarray:
    """Sequential non-homogeneous Poisson arrivals.

    Inter-arrival gaps are unit exponentials scaled by the *current*
    instantaneous rate λ(t) = base x (1 + A sin(2πt/P)) x burst factor —
    a standard time-rescaling of a homogeneous process, exact in the
    limit of gaps short against the modulation period (base rates of
    tens of rps against periods of minutes+).  Burst onsets are their own
    Poisson process; each burst multiplies the rate for its duration.
    """
    n = config.num_requests
    times = np.empty(n, dtype=np.float64)
    # Unit-exponential gap draws, chunked: the chunk size is a fixed
    # constant so the stream is identical whatever n is.
    chunk = 65536
    gaps = rng.exponential(1.0, size=chunk)
    cursor = 0

    burst_gap_rate = config.burst_rate_per_hour / 3600.0
    if burst_gap_rate > 0:
        next_burst = float(burst_rng.exponential(1.0 / burst_gap_rate))
    else:
        next_burst = math.inf
    burst_until = -math.inf

    two_pi = 2.0 * math.pi
    t = 0.0
    for i in range(n):
        if cursor == chunk:
            gaps = rng.exponential(1.0, size=chunk)
            cursor = 0
        # Advance burst state to "now" (bursts may start between arrivals;
        # starting them at the next arrival keeps the loop O(n) and is
        # indistinguishable at these rates).
        if t >= next_burst:
            burst_until = t + config.burst_duration_s
            next_burst = t + float(burst_rng.exponential(1.0 / burst_gap_rate))
        rate = config.base_rate * (
            1.0 + config.diurnal_amplitude
            * math.sin(two_pi * t / config.diurnal_period_s))
        if t < burst_until:
            rate *= config.burst_multiplier
        t += gaps[cursor] / rate
        cursor += 1
        times[i] = t
    return times


def generate_trace(config: TraceConfig) -> Trace:
    """Draw a deterministic cluster trace from the config.

    Symbolic tiers become concrete latency targets through
    :func:`~repro.serving.cluster.replica.default_cluster_router` — the
    same pricing the cluster routes and charges service with, so no trace
    carries an SLO priced by another cost model.
    """
    router = default_cluster_router()
    n = config.num_requests
    # Independent seeded streams per concern: the arrival loop's chunked
    # draws can never perturb the request fields, and vice versa.
    rng_arrivals = np.random.default_rng([config.seed, 0])
    rng_bursts = np.random.default_rng([config.seed, 1])
    rng_fields = np.random.default_rng([config.seed, 2])

    arrivals = _arrival_times(config, rng_arrivals, rng_bursts)

    models = list(config.models)
    model_idx = rng_fields.integers(0, len(models), size=n)

    tenant_weights = zipf_weights(config.num_tenants, config.tenant_skew)
    tenant_idx = rng_fields.choice(config.num_tenants, size=n,
                                   p=tenant_weights)

    # Tenant-dominant tier with a minority mix of the others.
    tiers = list(config.tiers)
    num_tiers = len(tiers)
    dominant = tenant_idx % num_tiers
    mix = rng_fields.random(n)
    alt = rng_fields.integers(0, max(num_tiers - 1, 1), size=n)
    alt = alt + (alt >= dominant)  # skip the dominant tier
    tier_idx = np.where(mix < config.tier_affinity, dominant,
                        alt % num_tiers)

    prompt_idx = np.zeros(n, dtype=np.int64)
    prompt_weights = zipf_weights(config.prompt_pool_size, config.prompt_skew)
    prompt_idx = rng_fields.choice(config.prompt_pool_size, size=n,
                                   p=prompt_weights)

    plan_u = rng_fields.random(n)
    seeds = rng_fields.integers(0, 2 ** 31, size=n)

    prompt_pool = [spec.to_text() for spec in
                   sample_prompt_specs(config.prompt_pool_size,
                                       seed=config.seed)]
    plans = config.plans or {}
    catalog = {
        "models": models,
        "tenants": [f"tenant-{i:03d}" for i in range(config.num_tenants)],
        "tiers": tiers,
        "prompts": {
            model: (prompt_pool
                    if get_model_spec(model).task == "text-to-image"
                    else None)
            for model in models},
        "plans": {model: tuple(plans.get(model) or default_plan_mix(model))
                  for model in models},
        "slo": {
            (model, tier): slo_for_tier(
                router, model, get_model_spec(model).default_sampling_steps,
                tier, config.tier_headroom)
            for model in models for tier in tiers},
    }
    fields = {
        "model": model_idx,
        "tenant": tenant_idx,
        "tier": tier_idx,
        "prompt": prompt_idx,
        "plan_u": plan_u,
        "seed": seeds,
    }
    return Trace(config, arrivals, fields, catalog)
