"""Replica: one serving engine inside the cluster, plus its cost model.

A :class:`Replica` wraps a full single-node :class:`~repro.serving.engine.
ServingEngine` — its own bounded queue, dynamic batcher, LRU
:class:`~repro.serving.pool.ModelVariantPool` and
:class:`~repro.serving.stats.ServingStats` — and adds what the cluster
event loop needs on top:

* a **lifecycle state machine** (``warming -> active -> draining ->
  stopped``) so autoscaling is not free: a freshly spawned replica takes
  traffic only after its warmup completes, and a drained one finishes its
  in-flight work before stopping;
* an **executor timeline** (``busy_until``): replicas serve batches
  serially, so a batch closed while the replica is busy starts late — the
  event loop schedules its completion at ``max(now, busy_until) + cost``
  and the wait is accounted as ``dispatch_wait``;
* a deterministic **service-time model** (:class:`ClusterCostModel`):
  batch cost is the roofline trajectory latency of the batch's
  (model, scheme, plan) key with a marginal per-image term, plus a
  variant *load* penalty when the key's pipeline is not resident in the
  replica's pool (cold variants stream from the store at a modeled
  bandwidth — this is the cost variant-affinity routing avoids), plus a
  per-unique-prompt embedding cost for prompt-cache misses.

Generation itself is simulated: the pool's builder produces a
:class:`SimPipeline` that returns placeholder images and costs nothing,
so the ~10^6-request simulator exercises the *real* admission, routing,
batching, pooling and stats code paths while all time comes from the cost
model on the shared :class:`~repro.serving.clock.VirtualClock`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ...models import get_model_spec
from ...profiling import (
    DeviceProfile,
    LayerCost,
    paper_scale_stable_diffusion_config,
    scheme_bytes_per_element,
    total_weight_elements,
    unet_layer_costs,
)
from ..batcher import Batch
from ..engine import EngineConfig, ServingEngine
from ..pool import ModelVariantPool
from ..router import SLORouter
from ..stats import ServingStats

# Lifecycle states.
WARMING = "warming"
ACTIVE = "active"
DRAINING = "draining"
STOPPED = "stopped"

#: Default cluster device: an L4-class *inference* accelerator — high
#: arithmetic throughput but a narrow memory system, so at paper scale the
#: U-Net forward is **memory-bound at FP32** (~50ms) and drops to compute
#: bound at FP8/FP4 (~19/16ms).  On the characterization platform (V100,
#: 900 GB/s HBM2) the paper-scale forward is compute-bound and the scheme
#: ladder is nearly flat; serving fleets are built from exactly this kind
#: of bandwidth-lean part, and it is the regime where the paper's
#: bandwidth-savings argument turns into end-to-end latency.
GPU_L4_SERVING = DeviceProfile(name="gpu-l4-serving", peak_flops=60e12,
                               memory_bandwidth=120e9, layer_overhead=5e-6)

#: Extra service time of each image after the first in a batch, as a
#: fraction of the shared sampler walk.
MARGINAL_BATCH_FRACTION = 0.15

#: Streaming a cold variant's packed weights from the artifact store:
#: PCIe-class bandwidth (bytes per second) on top of a fixed floor.
VARIANT_BYTES_PER_SECOND = 16e9
VARIANT_LOAD_FLOOR_S = 0.05

#: Text-encoder cost of one prompt that misses a replica's prompt cache.
EMBED_SECONDS_PER_PROMPT = 0.004

#: Prompts each replica's prompt cache holds (LRU).
PROMPT_CACHE_CAPACITY = 512


class SimPipeline:
    """Stand-in pipeline for cluster simulation: shapes without work.

    Provides exactly the surface :meth:`ServingEngine.complete_batch`
    touches — ``is_text_to_image`` (False, so the engine skips real text
    encoding; the replica models prompt-embedding cost itself),
    ``num_steps``/``schedule.num_timesteps`` for plan resolution, and a
    ``generate_batch`` that returns shared placeholder images.  All cost
    is charged by the replica's service-time model instead.
    """

    is_text_to_image = False

    class _Schedule:
        __slots__ = ("num_timesteps",)

        def __init__(self, num_timesteps: int):
            self.num_timesteps = num_timesteps

    _PLACEHOLDER = np.zeros((1, 1, 1), dtype=np.float32)

    def __init__(self, model: str, scheme: str):
        spec = get_model_spec(model)
        self.model_name = model
        self.scheme = scheme
        self.num_steps = spec.default_sampling_steps
        self.schedule = SimPipeline._Schedule(spec.train_timesteps)

    def generate_batch(self, seeds, context=None, plan=None):
        return [SimPipeline._PLACEHOLDER] * len(seeds)


def paper_costs_fn() -> Callable[[str], List[LayerCost]]:
    """Per-model layer costs at paper scale (same U-Net for every model).

    The reproduction's stand-in models are tiny enough that launch
    overhead flattens the per-scheme spread; routing and service costs in
    the cluster use the paper-scale architecture (64x64 latents) so scheme
    and step-budget decisions behave like the system the paper
    characterizes.
    """
    costs = unet_layer_costs(paper_scale_stable_diffusion_config(), 64)
    return lambda model: costs


def default_cluster_router() -> SLORouter:
    """The router the cluster prices everything with, in one place.

    Trace generation (turning symbolic SLO tiers into seconds), request
    routing and the replica service-time model all read this router:
    paper-scale costs on :data:`GPU_L4_SERVING` over the default scheme
    ladder.  An SLO priced by a different router than the one serving it
    would be either trivially met or unmeetable, so there is no other.
    """
    return SLORouter(device=GPU_L4_SERVING, costs_fn=paper_costs_fn())


class ClusterCostModel:
    """Deterministic service/load/embedding cost model for replicas.

    Every quantity is an exact function of the analytic roofline model
    (conf_iiswc_ChenGM24's characterization) and the module constants
    above, so the simulator's latency numbers are reproducible
    bit-for-bit.  A single-image trajectory costs exactly the router's
    price of its (model, scheme, plan) — the price the request was routed
    on and the one its engine stamps on the ``batch.execute`` span.
    Each variant's weights are sized at paper scale.
    """

    def __init__(self, router):
        self.router = router
        self.costs_fn = paper_costs_fn()
        self._plan_seconds: Dict[Tuple, float] = {}
        self._variant_bytes: Dict[Tuple[str, str], float] = {}

    # ------------------------------------------------------------------
    def plan_seconds(self, model: str, scheme: str, plan) -> float:
        """Modeled seconds of one single-image trajectory of ``plan``."""
        key = (model, scheme, plan)
        cached = self._plan_seconds.get(key)
        if cached is None:
            cached = self.router.predicted_plan_latency(model, scheme, plan)
            self._plan_seconds[key] = cached
        return cached

    def batch_service_seconds(self, model: str, scheme: str, plan,
                              batch_size: int) -> float:
        """Service time of one batch: shared walk + marginal per image."""
        base = self.plan_seconds(model, scheme, plan)
        return base * (1.0 + MARGINAL_BATCH_FRACTION * (batch_size - 1))

    def amortized_request_seconds(self, model: str, scheme: str, plan,
                                  batch_size_hint: float) -> float:
        """Per-request service estimate at an expected batch size."""
        hint = max(batch_size_hint, 1.0)
        return self.batch_service_seconds(model, scheme, plan, hint) / hint

    # ------------------------------------------------------------------
    def variant_bytes(self, model: str, scheme: str) -> float:
        """Weight bytes of the (model, scheme) variant at paper scale."""
        key = (model, scheme)
        cached = self._variant_bytes.get(key)
        if cached is None:
            elements = total_weight_elements(self.costs_fn(model))
            cached = elements * scheme_bytes_per_element(scheme)
            self._variant_bytes[key] = cached
        return cached

    def variant_load_seconds(self, model: str, scheme: str) -> float:
        """Modeled time to stream a cold variant into a replica's pool."""
        return (VARIANT_LOAD_FLOOR_S
                + self.variant_bytes(model, scheme) / VARIANT_BYTES_PER_SECOND)


class ReplicaConfig:
    """Per-replica serving knobs (shared by every replica in a cluster)."""

    def __init__(self, max_batch_size: int = 8, max_wait: float = 0.1,
                 capacity: int = 96,
                 memory_budget_bytes: Optional[float] = 4.5e9):
        """
        ``capacity`` bounds in-flight requests (pending in the batcher plus
        scheduled-but-unfinished); past it the replica sheds load and the
        rejection is attributed to the request's tenant/tier.
        ``memory_budget_bytes`` sizes the variant pool — at paper scale
        ~4.5 GB holds one model's full fp32/fp8/fp4 ladder but not two
        models' (the regime where affinity routing matters).
        """
        self.max_batch_size = max_batch_size
        self.max_wait = max_wait
        self.capacity = capacity
        self.memory_budget_bytes = memory_budget_bytes


class Replica:
    """One engine in the cluster, with lifecycle and a serial executor."""

    def __init__(self, replica_id: int, clock, router,
                 cost_model: ClusterCostModel,
                 config: Optional[ReplicaConfig] = None,
                 state: str = ACTIVE, started_at: float = 0.0,
                 tracer=None):
        self.replica_id = replica_id
        self.clock = clock
        self.cost_model = cost_model
        self.config = config or ReplicaConfig()
        self.state = state
        self.started_at = started_at
        self.stopped_at: Optional[float] = None
        pool = ModelVariantPool(
            memory_budget_bytes=self.config.memory_budget_bytes,
            batch_size=self.config.max_batch_size,
            builder=lambda model, scheme: SimPipeline(model, scheme),
            cost_fn=cost_model.variant_bytes,
            clock=clock)
        # Each replica traces on its own "replica-<id>" lane of the shared
        # "cluster" process, so Perfetto shows the fleet as parallel tracks.
        # Its stats keep counters only: at 10^5-10^6 requests the cluster's
        # own compact arrays hold the latencies.
        self.engine = ServingEngine(
            pool, router=router,
            config=EngineConfig(max_batch_size=self.config.max_batch_size,
                                max_wait=self.config.max_wait,
                                queue_capacity=max(self.config.capacity, 1)),
            stats=ServingStats(keep_records=False),
            clock=clock, tracer=tracer,
            trace_lane=f"replica-{replica_id}", trace_process="cluster")
        # executor timeline + accounting
        self.busy_until = float(started_at)
        self.busy_seconds = 0.0
        self.inflight = 0
        self.variant_loads = 0
        self.variant_reloads = 0
        self.prompt_hits = 0
        self.prompt_misses = 0
        self._pending_loads: set = set()
        self._ever_loaded: set = set()
        self._prompt_cache: "OrderedDict[str, bool]" = OrderedDict()

    # ------------------------------------------------------------------
    @property
    def pool(self) -> ModelVariantPool:
        return self.engine.pool

    @property
    def pending_requests(self) -> int:
        """Requests admitted but not yet closed into a batch."""
        return self.engine.batcher.pending_count

    def backlog_seconds(self, now: float) -> float:
        """Modeled seconds of already-scheduled work ahead of a new batch."""
        return max(self.busy_until - now, 0.0)

    def is_idle(self) -> bool:
        return self.inflight == 0

    def has_variant(self, model: str, scheme: str) -> bool:
        """Whether serving (model, scheme) here would skip the load cost."""
        return (self.pool.has_variant(model, scheme)
                or (model, scheme) in self._pending_loads)

    # ------------------------------------------------------------------
    def submit(self, request) -> bool:
        """Admit one routed request; shed (and attribute) past capacity."""
        if self.inflight >= self.config.capacity:
            self.engine.stats.record_rejection(tenant=request.tenant,
                                               tier=request.tier,
                                               reason="queue_full")
            return False
        if not self.engine.submit(request):
            return False
        self.inflight += 1
        return True

    def collect(self, due: bool = False, flush: bool = False) -> List[Batch]:
        """Close ready batches (filled, and optionally aged/flushed)."""
        return self.engine.collect_ready_batches(due=due, flush=flush)

    def next_due_at(self) -> Optional[float]:
        """When the oldest pending partial batch ages out (None if none)."""
        return self.engine.batcher.next_due_at()

    # ------------------------------------------------------------------
    def schedule(self, batch: Batch, now: float) -> Tuple[float, float]:
        """Price ``batch`` and reserve the executor; returns (start, finish).

        Service cost = roofline batch time, plus a variant-load penalty
        when the key's pipeline is not resident (counted as a *load* the
        first time this replica ever sees the key and as a *reload* when
        the key was resident once and has been evicted since — the churn
        metric affinity routing minimizes), plus the embedding cost of
        prompts missing from this replica's prompt cache.
        """
        key = batch.key
        cost = self.cost_model.batch_service_seconds(
            key.model, key.scheme, key.plan, len(batch))
        variant = (key.model, key.scheme)
        if not self.pool.has_variant(*variant) and variant not in self._pending_loads:
            cost += self.cost_model.variant_load_seconds(*variant)
            self._pending_loads.add(variant)
            if variant in self._ever_loaded:
                self.variant_reloads += 1
            else:
                self._ever_loaded.add(variant)
                self.variant_loads += 1
        misses = 0
        cache = self._prompt_cache
        for request in batch.requests:
            prompt = request.prompt
            if prompt is None:
                continue
            if prompt in cache:
                cache.move_to_end(prompt)
                self.prompt_hits += 1
            else:
                misses += 1
                self.prompt_misses += 1
                cache[prompt] = True
                while len(cache) > PROMPT_CACHE_CAPACITY:
                    cache.popitem(last=False)
        cost += misses * EMBED_SECONDS_PER_PROMPT
        started = max(now, self.busy_until)
        finished = started + cost
        self.busy_until = finished
        self.busy_seconds += cost
        return started, finished

    def complete(self, batch: Batch, started: float, finished: float):
        """Execute a scheduled batch at its modeled (start, finish) times."""
        responses = self.engine.complete_batch(batch, started=started,
                                               finished=finished)
        self._pending_loads.discard((batch.key.model, batch.key.scheme))
        self.inflight -= len(batch)
        if self.state == DRAINING and self.is_idle():
            self.stop(finished)
        return responses

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def activate(self, now: float) -> None:
        if self.state != WARMING:
            raise ValueError(f"replica {self.replica_id} is {self.state}, "
                             "only a warming replica can activate")
        self.state = ACTIVE
        self.started_at = now
        self.busy_until = max(self.busy_until, now)

    def drain(self, now: float) -> None:
        """Stop accepting traffic; finish in-flight work, then stop."""
        if self.state in (DRAINING, STOPPED):
            return
        self.state = DRAINING
        if self.is_idle():
            self.stop(now)

    def stop(self, now: float) -> None:
        self.state = STOPPED
        self.stopped_at = now

    # ------------------------------------------------------------------
    def utilization(self, now: float) -> float:
        """Busy fraction of this replica's active lifetime."""
        end = self.stopped_at if self.stopped_at is not None else now
        lifetime = max(end - self.started_at, 0.0)
        return self.busy_seconds / lifetime if lifetime > 0 else 0.0

    def summary(self, now: float) -> Dict:
        """Per-replica block of the cluster report; the served, batch and
        scheme counts are the engine's own."""
        stats = self.engine.stats
        pool_stats = self.pool.stats()
        return {
            "state": self.state,
            "started_at": self.started_at,
            "stopped_at": self.stopped_at,
            "served": stats.completed,
            "batches": stats.batch_count,
            "mean_batch_size": stats.mean_batch_size,
            "busy_seconds": self.busy_seconds,
            "utilization": self.utilization(now),
            "rejections": stats.rejections(),
            "variant_loads": self.variant_loads,
            "variant_reloads": self.variant_reloads,
            "variant_evictions": pool_stats["evictions"],
            "resident_variants": sorted(
                f"{model}/{scheme}"
                for model, scheme in self.pool.resident_variants),
            "prompt_cache": {
                "hits": self.prompt_hits,
                "misses": self.prompt_misses,
                "hit_rate": (self.prompt_hits
                             / (self.prompt_hits + self.prompt_misses)
                             if (self.prompt_hits + self.prompt_misses)
                             else 0.0),
            },
            "by_scheme": stats.by_scheme(),
        }
