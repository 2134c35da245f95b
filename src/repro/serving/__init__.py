"""Serving subsystem: a dynamic-batching inference engine over the zoo.

Turns the one-shot experiment pipelines into a traffic-serving layer, in
the spirit of the paper's workload characterization: quantization schemes
become *serving variants* with predictable latency/memory costs, and the
engine exploits that to meet per-request latency SLOs.

Components (one module each):

* :mod:`~repro.serving.request` — ``Request``/``Response`` model and the
  bounded admission queue;
* :mod:`~repro.serving.batcher` — dynamic batching of compatible requests
  (same model, scheme, routed generation plan) under size/wait bounds;
* :mod:`~repro.serving.pool` — lazily-built, LRU-evicted pool of quantized
  pipeline variants under an analytic memory budget;
* :mod:`~repro.serving.embedding_cache` — memoized text-encoder outputs
  per (model, prompt);
* :mod:`~repro.serving.router` — SLO-aware (scheme, generation-plan)
  selection from the roofline cost model: precision degrades before the
  step budget is cut;
* :mod:`~repro.serving.stats` — one completion counter and one batch
  counter (queue wait, latency, scheme, plan, SLO outcome, batch size)
  and the JSON stats report;
* :mod:`~repro.serving.engine` — the orchestrating engine (lifecycle:
  queue → route → batch → variant pool → generate → stats);
* :mod:`~repro.serving.loadgen` — deterministic workload generation and
  the one SLO-tier table (:func:`slo_for_tier`), which the cluster trace
  shares;
* :mod:`~repro.serving.clock` — virtual time for deterministic tests and
  benchmarks of the timing-sensitive components.
"""

from .batcher import Batch, BatchKey, DynamicBatcher
from .clock import VirtualClock
from .embedding_cache import EmbeddingCache
from .engine import EngineConfig, ServingEngine
from .loadgen import (
    SLO_TIERS,
    WorkloadConfig,
    generate_workload,
    slo_for_tier,
    zipf_weights,
)
from .pool import ModelVariantPool, variant_cost_bytes
from .request import QueueFullError, Request, RequestQueue, Response
from .router import (
    DEFAULT_SCHEMES,
    DEFAULT_STEP_FRACTIONS,
    RoutingDecision,
    SLORouter,
)
from .stats import ServingStats, percentile_summary, plan_label

__all__ = [
    "Request", "Response", "RequestQueue", "QueueFullError",
    "BatchKey", "Batch", "DynamicBatcher",
    "ModelVariantPool", "variant_cost_bytes",
    "EmbeddingCache",
    "SLORouter", "RoutingDecision", "DEFAULT_SCHEMES",
    "DEFAULT_STEP_FRACTIONS",
    "ServingStats", "plan_label",
    "ServingEngine", "EngineConfig",
    "WorkloadConfig", "generate_workload",
    "slo_for_tier", "SLO_TIERS", "zipf_weights",
    "percentile_summary",
    "VirtualClock",
]
