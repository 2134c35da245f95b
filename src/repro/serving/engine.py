"""The serving engine: queue -> route -> batch -> variant pool -> stats.

Request lifecycle
-----------------

1. **Admission** (:meth:`ServingEngine.submit`): the request is validated,
   stamped with an id and arrival time and pushed into the bounded
   :class:`~repro.serving.request.RequestQueue`; at capacity the request is
   rejected (counted per tenant/tier in the stats report) instead of
   buffered unboundedly.
2. **Routing**: the :class:`~repro.serving.router.SLORouter` predicts
   per-(scheme, plan) latency from the roofline cost model and picks the
   highest-quality scheme *and step budget* that fit the request's SLO —
   precision degrades first, the trajectory is truncated only when no
   scheme can meet the budget.
3. **Batching**: the :class:`~repro.serving.batcher.DynamicBatcher` groups
   requests that share ``(model, scheme, routed plan)`` until a batch
   fills or the oldest member has waited ``max_wait`` seconds.
4. **Generation**: the batch's pipeline variant comes from the
   :class:`~repro.serving.pool.ModelVariantPool` (built lazily, LRU-evicted
   under a memory budget); text prompts resolve through the
   :class:`~repro.serving.embedding_cache.EmbeddingCache`; the whole batch
   runs in one :meth:`~repro.diffusion.DiffusionPipeline.generate_batch`
   sampler pass with per-request seeds, under the batch key's plan.
5. **Instrumentation**: every request/batch lands in
   :class:`~repro.serving.stats.ServingStats` (queue wait, batch size,
   latency percentiles, throughput, cache hit rates) for the JSON report.

The engine is single-threaded and synchronous: ``submit`` enqueues,
:meth:`run_until_idle` drains.  That keeps semantics deterministic and
testable; concurrency is layered on top by driving multiple engines —
:mod:`repro.serving.cluster` wraps N engines in replicas behind a front
door and drives them in one discrete-event loop.

Every timestamp the engine (or any component it owns — batcher, pool,
stats) records comes from the injectable ``clock``, never from the
``time`` module directly, so an engine handed a
:class:`~repro.serving.clock.VirtualClock` is fully deterministic: two
runs of the same workload produce bit-identical stats reports.  For
cluster simulation the batch lifecycle is split in two so an event loop
can schedule service explicitly: :meth:`collect_ready_batches` closes
batches without executing them, and :meth:`complete_batch` executes one
with caller-supplied start/finish times (a batch may start late when its
replica is busy — that wait lands in ``dispatch_wait``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence

from ..diffusion import DiffusionPipeline
from ..models import get_model_spec
from ..tensor import Tensor
from .batcher import Batch, BatchKey, DynamicBatcher
from .embedding_cache import EmbeddingCache
from .pool import ModelVariantPool
from .request import QueueFullError, Request, RequestQueue, Response
from .router import SLORouter
from .stats import BatchRecord, RequestRecord, ServingStats


@dataclass
class EngineConfig:
    """Engine-level serving knobs."""

    max_batch_size: int = 8
    max_wait: float = 0.02          # seconds a partial batch may age
    queue_capacity: int = 256


class ServingEngine:
    """Single-node serving engine over a model-variant pool."""

    def __init__(self, pool: ModelVariantPool,
                 router: Optional[SLORouter] = None,
                 config: Optional[EngineConfig] = None,
                 stats: Optional[ServingStats] = None,
                 clock: Callable[[], float] = time.perf_counter,
                 tracer=None, trace_lane: Optional[str] = None,
                 trace_process: str = "serving",
                 metrics=None):
        """``tracer`` (:class:`repro.obs.Tracer`; ``None``, the default,
        turns tracing off) books the request lifecycle — queue wait, batch
        build, embed, execute — as spans on the ``(trace_process,
        trace_lane)`` track, plus one async span per request.  Each
        ``batch.execute`` span carries ``predicted_s``, the router's price
        of the batch's routed (model, scheme, plan): the number the request
        was routed on.  ``metrics`` (:class:`repro.obs.MetricsRegistry`)
        receives labeled counters/histograms for the same lifecycle.  All
        telemetry timestamps come off the engine ``clock``, so a virtual-
        clock engine traces in virtual time.  Prompt embeddings are cached
        in :attr:`embedding_cache` (an :class:`EmbeddingCache` at its
        default capacity)."""
        self.pool = pool
        self.router = router or SLORouter()
        self.config = config or EngineConfig()
        self.clock = clock
        # The pool stamps variant build times; adopting the engine's clock
        # keeps every engine-owned timestamp on one (possibly virtual)
        # timeline.
        pool.clock = clock
        self.queue = RequestQueue(self.config.queue_capacity)
        self.batcher = DynamicBatcher(self.config.max_batch_size,
                                      self.config.max_wait, clock=clock)
        self.embedding_cache = EmbeddingCache()
        self.stats = stats or ServingStats()
        self.tracer = tracer
        self.trace_lane = trace_lane
        self.trace_process = trace_process
        self.metrics = metrics
        self._next_id = 0

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def submit(self, request: Request) -> bool:
        """Admit a request; returns False (and counts a rejection) when shed."""
        spec = get_model_spec(request.model)
        if spec.task == "text-to-image" and request.prompt is None:
            raise ValueError(
                f"model '{request.model}' is text-to-image; request needs a prompt")
        if request.plan is not None:
            request.plan.validate_for_model(spec.task, request.model)
        if request.request_id is None:
            request.request_id = self._next_id
            self._next_id += 1
        request.arrival_time = self.clock()
        self.stats.mark_start(request.arrival_time)
        try:
            self.queue.push(request)
        except QueueFullError:
            self.stats.record_rejection(tenant=request.tenant,
                                        tier=request.tier,
                                        reason="queue_full")
            if self.tracer is not None:
                self.tracer.instant("request.rejected",
                                    ts=request.arrival_time,
                                    category="admission",
                                    lane=self.trace_lane,
                                    process=self.trace_process,
                                    attrs={"reason": "queue_full",
                                           "tenant": request.tenant,
                                           "tier": request.tier})
            if self.metrics is not None:
                self.metrics.counter("serving.rejections",
                                     {"reason": "queue_full"}).inc()
            return False
        return True

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def _batch_key(self, request: Request) -> BatchKey:
        decision = self.router.decide(request)
        return BatchKey(model=request.model, scheme=decision.scheme,
                        plan=decision.plan)

    def _pipeline_for(self, key: BatchKey) -> DiffusionPipeline:
        # The batch key's plan (sampler, steps, guidance) is applied per
        # generate_batch call, so one pooled variant serves every routed
        # plan without rebuilding pipelines.
        return self.pool.get(key.model, key.scheme)

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def _trace_batch(self, batch: Batch, started: float, finished: float,
                     num_steps: int, embed_started: Optional[float],
                     embed_finished: Optional[float]) -> None:
        """Book the batch lifecycle segments on the engine's trace lane."""
        if self.tracer is None:
            return
        lane, process = self.trace_lane, self.trace_process
        arrivals = [request.arrival_time for request in batch.requests
                    if request.arrival_time is not None]
        attrs = {"model": batch.key.model, "scheme": batch.key.scheme,
                 "sampler": batch.key.plan.sampler, "num_steps": num_steps,
                 "batch_size": len(batch)}
        if arrivals:
            self.tracer.add_span("batch.build", min(arrivals),
                                 batch.formed_at, category="batch",
                                 lane=lane, process=process, attrs=attrs)
        if started > batch.formed_at:
            self.tracer.add_span("batch.dispatch", batch.formed_at, started,
                                 category="batch", lane=lane, process=process,
                                 attrs={"batch_size": len(batch)})
        if embed_started is not None:
            self.tracer.add_span("batch.embed", embed_started, embed_finished,
                                 category="batch", lane=lane, process=process,
                                 attrs={"batch_size": len(batch)})
        # The price the router routed this batch's requests on.
        predicted = self.router.predicted_plan_latency(
            batch.key.model, batch.key.scheme, batch.key.plan)
        self.tracer.add_span("batch.execute", started, finished,
                             category="batch", lane=lane, process=process,
                             attrs={**attrs, "predicted_s": predicted})

    def complete_batch(self, batch: Batch,
                       started: Optional[float] = None,
                       finished: Optional[float] = None) -> List[Response]:
        """Execute one closed batch and record its stats.

        Without explicit timestamps the batch is timed off the engine
        clock around the generation pass (the live-serving path).  A
        cluster event loop instead schedules service itself and passes
        ``started``/``finished`` — the modeled executor interval — so a
        batch that queued behind a busy replica is accounted correctly
        (the lag between batch formation and ``started`` is reported as
        ``dispatch_wait``).
        """
        if started is None:
            started = self.clock()
        pipeline = self._pipeline_for(batch.key)
        context = None
        hit_flags: Optional[List[bool]] = None
        embed_started = embed_finished = None
        if pipeline.is_text_to_image:
            if self.tracer is not None:
                embed_started = self.clock()
            prompts = [request.prompt for request in batch.requests]
            contexts, hit_flags = self.embedding_cache.get_contexts(
                batch.key.model, pipeline, prompts)
            context = Tensor(contexts)
            if self.tracer is not None:
                embed_finished = self.clock()
        seeds = [request.seed for request in batch.requests]
        images = pipeline.generate_batch(seeds, context=context,
                                         plan=batch.key.plan)
        if finished is None:
            finished = self.clock()
        self.stats.mark_finish(finished)
        batch_latency = finished - started
        dispatch_wait = max(started - batch.formed_at, 0.0)
        plan = batch.key.plan
        # Concrete steps actually walked: full-grid samplers (DDPM) carry no
        # step budget in the plan and resolve to the training grid.
        num_steps = plan.resolve_steps(pipeline.num_steps,
                                       pipeline.schedule.num_timesteps)
        self.stats.record_batch(BatchRecord(
            model=batch.key.model, scheme=batch.key.scheme,
            num_steps=num_steps, batch_size=len(batch),
            latency=batch_latency, sampler=plan.sampler,
            guidance_scale=plan.guidance_scale, eta=plan.eta))
        if self.tracer is not None:
            self._trace_batch(batch, started, finished, num_steps,
                              embed_started, embed_finished)
        if self.metrics is not None:
            self.metrics.histogram("serving.batch_latency_s",
                                   {"scheme": batch.key.scheme}) \
                .observe(batch_latency)
            self.metrics.histogram("serving.batch_size").observe(len(batch))

        responses: List[Response] = []
        for position, request in enumerate(batch.requests):
            arrival = request.arrival_time
            queue_wait = (batch.formed_at - arrival) if arrival is not None else 0.0
            queue_wait = max(queue_wait, 0.0)
            response = Response(
                request_id=request.request_id,
                model=batch.key.model,
                scheme=batch.key.scheme,
                num_steps=num_steps,
                image=images[position],
                queue_wait=queue_wait,
                batch_size=len(batch),
                batch_latency=batch_latency,
                total_latency=queue_wait + dispatch_wait + batch_latency,
                dispatch_wait=dispatch_wait,
                embedding_cache_hit=(hit_flags[position]
                                     if hit_flags is not None else None),
                plan=plan)
            responses.append(response)
            slo_met = response.meets_slo(request.latency_slo)
            if self.tracer is not None and arrival is not None:
                self.tracer.async_span(
                    "request", request.request_id, arrival, finished,
                    category="request", lane=self.trace_lane,
                    process=self.trace_process,
                    attrs={"scheme": batch.key.scheme,
                           "tenant": request.tenant, "tier": request.tier,
                           "queue_wait_s": queue_wait,
                           "dispatch_wait_s": dispatch_wait,
                           "slo_met": slo_met})
            if self.metrics is not None:
                self.metrics.counter("serving.requests",
                                     {"scheme": batch.key.scheme}).inc()
                self.metrics.histogram("serving.queue_wait_s") \
                    .observe(queue_wait)
            if self.stats.keep_records:
                self.stats.record_request(RequestRecord(
                    request_id=request.request_id, model=batch.key.model,
                    scheme=batch.key.scheme, num_steps=num_steps,
                    queue_wait=queue_wait, batch_size=len(batch),
                    batch_latency=batch_latency,
                    total_latency=response.total_latency,
                    latency_slo=request.latency_slo,
                    slo_met=slo_met,
                    sampler=plan.sampler,
                    guidance_scale=plan.guidance_scale,
                    eta=plan.eta,
                    dispatch_wait=dispatch_wait,
                    tenant=request.tenant,
                    tier=request.tier))
            else:
                # At simulator scale even the per-request dataclass is
                # measurable; the aggregate counters stay exact.
                self.stats.record_completion(batch.key.scheme, slo_met)
        return responses

    def _drain_queue_batches(self) -> Iterator[Batch]:
        """Move queued requests into the batcher, yielding batches that fill."""
        while len(self.queue):
            request = self.queue.pop()
            key = self._batch_key(request)
            full = self.batcher.add(key, request)
            if full is not None:
                yield full

    def _drain_queue(self) -> List[Response]:
        """Drain arrivals, serving each batch the moment it fills."""
        responses: List[Response] = []
        for batch in self._drain_queue_batches():
            responses.extend(self.complete_batch(batch))
        return responses

    def collect_ready_batches(self, due: bool = True,
                              flush: bool = False) -> List[Batch]:
        """Close ready batches *without executing them* (cluster mode).

        Drains the queue into the batcher and returns every batch that
        filled, plus (``due=True``) batches whose oldest member aged past
        ``max_wait``, plus (``flush=True``) every remaining partial batch.
        The event loop schedules :meth:`complete_batch` for each at the
        replica's next free slot instead of running them inline.
        """
        batches = list(self._drain_queue_batches())
        if flush:
            batches.extend(self.batcher.flush())
        elif due:
            batches.extend(self.batcher.due())
        return batches

    def pump(self) -> List[Response]:
        """One live-serving turn: drain arrivals, then close aged batches.

        A server loop alternates ``submit`` (as traffic arrives) with
        ``pump``; partial batches are held back until they fill or their
        oldest member has waited ``max_wait`` seconds.  A turn does not
        refresh the report's component block (measuring the served
        variants costs more than a turn should); :meth:`run_until_idle`
        and :meth:`sync_component_stats` do.
        """
        responses = self._drain_queue()
        for due in self.batcher.due():
            responses.extend(self.complete_batch(due))
        return responses

    def run_until_idle(self) -> List[Response]:
        """Drain the queue and all pending batches; return every response.

        Unlike :meth:`pump`, no more arrivals are coming, so remaining
        partial batches are flushed immediately rather than aged out.
        """
        responses = self._drain_queue()
        for batch in self.batcher.flush():
            responses.extend(self.complete_batch(batch))
        self.sync_component_stats()
        return responses

    def serve(self, requests: Sequence[Request]) -> List[Response]:
        """Submit a workload and drain it (the load-generator entry point)."""
        for request in requests:
            self.submit(request)
        return self.run_until_idle()

    def serve_sequential(self, requests: Sequence[Request]) -> List[Response]:
        """Baseline: serve each request in its own generation pass.

        This is the pre-serving behaviour (one ``generate`` call per
        request) with identical routing, pooling and instrumentation —
        the benchmark's control arm for measuring what dynamic batching
        buys.
        """
        responses: List[Response] = []
        for request in requests:
            if not self.submit(request):
                continue
            request = self.queue.pop()
            key = self._batch_key(request)
            batch = Batch(key=key, requests=[request], formed_at=self.clock())
            responses.extend(self.complete_batch(batch))
        self.sync_component_stats()
        return responses

    # ------------------------------------------------------------------
    def sync_component_stats(self) -> None:
        """Copy cache/pool counters into the stats report's component block,
        and each variant's measured resident bytes (0 once evicted) into the
        metrics registry, when one is attached."""
        self.stats.set_component_stats("embedding_cache",
                                       self.embedding_cache.stats())
        pool_stats = self.pool.stats()
        self.stats.set_component_stats("variant_pool", pool_stats)
        if self.metrics is not None:
            for name, meta in pool_stats["variants"].items():
                self.metrics.gauge("serving.variant_resident_bytes",
                                   labels={"variant": name}).set(
                    meta["resident_nbytes"] if meta["resident"] else 0.0)
