"""Load generator: deterministic mixed serving workloads and SLO tiers.

Builds request streams with the properties that make serving interesting:
a pool of prompts reused with a Zipf-like popularity skew (so the
embedding cache has something to hit), a mix of models, a mix of latency
SLO tiers (so the router serves different schemes and step budgets) and a
mix of generation plans (so the batcher sees several sampler/guidance
groups).  Everything is seeded, so a workload is reproducible across runs
and across the sequential-vs-batched comparison in the throughput
benchmark.  :func:`slo_for_tier` is the one tier table: the cluster trace
generator prices its tiers through it too, with its own headroom.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

import numpy as np

from ..data.prompts import sample_prompt_specs
from ..diffusion.plan import GenerationPlan
from ..models import get_model_spec
from .request import Request
from .router import SLORouter

#: Symbolic SLO tiers resolved against the router's per-scheme predictions.
#: ``None`` means "no SLO" (router serves best quality).
SLO_TIERS = ("loose", "medium", "tight", None)

#: Single-engine headroom per tier: ``loose`` fits every candidate scheme
#: twice over, ``medium`` sits at the midpoint of the scheme ladder and
#: ``tight`` hugs the cheapest scheme's service latency.
ENGINE_TIER_HEADROOM = {"loose": 2.0, "medium": 1.0, "tight": 1.0001}


def zipf_weights(count: int, skew: float) -> np.ndarray:
    """Normalized Zipf popularity over ``count`` ranks (rank 1 hottest).

    ``skew=0`` is uniform; serving traffic is modeled with ``skew`` around
    1-1.4, where a handful of prompts/tenants dominate — the regime that
    makes caches and variant affinity pay.  Shared by the single-engine
    workload generator and the cluster trace generator so both draw from
    the same popularity law.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if skew < 0:
        raise ValueError(f"skew must be >= 0, got {skew}")
    ranks = np.arange(1, count + 1, dtype=np.float64)
    weights = ranks ** -skew
    return weights / weights.sum()


def slo_for_tier(router: SLORouter, model: str, num_steps: int,
                 tier: Optional[str],
                 headroom: Mapping[str, float] = ENGINE_TIER_HEADROOM
                 ) -> Optional[float]:
    """Turn a symbolic tier into a concrete latency target in seconds.

    Each tier is ``headroom[tier]`` times an anchor taken from the
    router's own predictions of a plain ``num_steps`` trajectory, so the
    tiers stay meaningful whatever the model scale or device profile:
    ``tight`` anchors on the cheapest scheme, ``loose`` on the dearest and
    ``medium`` on their midpoint.  The default headroom is the
    single-engine table; the cluster trace passes its own, since its
    end-to-end latency also holds batching delay and dispatch waits.
    """
    if tier is None:
        return None
    if tier not in SLO_TIERS:
        raise ValueError(f"unknown SLO tier {tier!r}; use one of {SLO_TIERS}")
    if tier not in headroom:
        raise ValueError(f"headroom has no factor for SLO tier {tier!r}")
    predictions = router.predictions(model, num_steps)
    cheapest = min(predictions.values())
    dearest = max(predictions.values())
    anchor = {"tight": cheapest,
              "medium": 0.5 * (cheapest + dearest),
              "loose": dearest}[tier]
    return headroom[tier] * anchor


@dataclass
class WorkloadConfig:
    """Shape of a synthetic serving workload."""

    num_requests: int = 32
    models: Sequence[str] = ("stable-diffusion",)
    num_steps: Optional[int] = None       # None -> each model's default
    prompt_pool_size: int = 8
    popularity_skew: float = 1.2          # Zipf exponent; 0 = uniform prompts
    slo_tiers: Sequence[Optional[str]] = (None,)
    #: Generation plans requests draw from uniformly; ``None`` entries mean
    #: "no plan asked" (the engine's default trajectory).
    plans: Sequence[Optional[GenerationPlan]] = (None,)
    seed: int = 0


def generate_workload(config: WorkloadConfig,
                      router: Optional[SLORouter] = None) -> List[Request]:
    """Draw a deterministic request stream from the workload description."""
    router = router or SLORouter()
    rng = np.random.default_rng(config.seed)
    prompt_pool = [spec.to_text() for spec in
                   sample_prompt_specs(config.prompt_pool_size,
                                       seed=config.seed)]
    popularity = zipf_weights(len(prompt_pool), config.popularity_skew)

    requests: List[Request] = []
    for index in range(config.num_requests):
        model = config.models[int(rng.integers(len(config.models)))]
        spec = get_model_spec(model)
        steps = config.num_steps or spec.default_sampling_steps
        prompt = None
        if spec.task == "text-to-image":
            prompt = prompt_pool[int(rng.choice(len(prompt_pool), p=popularity))]
        tier = config.slo_tiers[int(rng.integers(len(config.slo_tiers)))]
        plan = config.plans[int(rng.integers(len(config.plans)))]
        requests.append(Request(
            model=model, prompt=prompt, num_steps=steps,
            latency_slo=slo_for_tier(router, model, steps, tier),
            plan=plan,
            seed=int(rng.integers(2 ** 31)),
            tier=tier,
        ))
    return requests

