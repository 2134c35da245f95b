"""Serving subsystem: queue, batcher, pool, caches, router, engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import resident_nbytes
from repro.diffusion import DiffusionPipeline, GenerationPlan
from repro.models import DiffusionModel
from repro.profiling import paper_scale_stable_diffusion_config, unet_layer_costs
from repro.serving import (
    BatchKey,
    DynamicBatcher,
    EmbeddingCache,
    EngineConfig,
    ModelVariantPool,
    QueueFullError,
    Request,
    RequestQueue,
    ServingEngine,
    SLORouter,
    VirtualClock,
    WorkloadConfig,
    generate_workload,
    plan_label,
    slo_for_tier,
    variant_cost_bytes,
)
from repro.zoo import clear_model_memo, load_pretrained

from tiny_factories import make_tiny_spec


class FakeClock:
    """Deterministic injectable clock for timeout semantics."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _request(model="stable-diffusion", **kwargs) -> Request:
    kwargs.setdefault("prompt", "a red circle" if model in
                      ("stable-diffusion", "sdxl") else None)
    return Request(model=model, **kwargs)


@pytest.fixture(scope="module")
def paper_costs_router():
    """Router over paper-scale costs, where schemes separate clearly."""
    costs = unet_layer_costs(paper_scale_stable_diffusion_config(), 64)
    return SLORouter(costs_fn=lambda model: costs)


@pytest.fixture(scope="module")
def serving_pipelines():
    """Tiny pipelines standing in for the registered model names."""
    text_spec = make_tiny_spec(name="stable-diffusion", task="text-to-image",
                               latent=True)
    uncond_spec = make_tiny_spec(name="ddim-cifar10")
    text = DiffusionPipeline(DiffusionModel(text_spec,
                                            rng=np.random.default_rng(5)),
                             num_steps=4)
    uncond = DiffusionPipeline(DiffusionModel(uncond_spec,
                                              rng=np.random.default_rng(6)),
                               num_steps=4)
    return {"stable-diffusion": text, "ddim-cifar10": uncond}


# ----------------------------------------------------------------------
# request queue
# ----------------------------------------------------------------------

def test_request_queue_is_bounded_fifo():
    queue = RequestQueue(capacity=2)
    first, second = _request(seed=1), _request(seed=2)
    queue.push(first)
    queue.push(second)
    assert queue.full
    with pytest.raises(QueueFullError):
        queue.push(_request(seed=3))
    assert queue.pop() is first
    assert queue.pop() is second
    with pytest.raises(IndexError):
        queue.pop()


# ----------------------------------------------------------------------
# dynamic batcher
# ----------------------------------------------------------------------

def test_batcher_groups_by_compatibility_and_fills():
    clock = FakeClock()
    batcher = DynamicBatcher(max_batch_size=2, max_wait=10.0, clock=clock)
    key_a = BatchKey("stable-diffusion", "fp8", GenerationPlan(num_steps=4))
    key_b = BatchKey("stable-diffusion", "fp4", GenerationPlan(num_steps=4))

    assert batcher.add(key_a, _request(seed=1)) is None
    assert batcher.add(key_b, _request(seed=2)) is None  # different scheme
    full = batcher.add(key_a, _request(seed=3))
    assert full is not None and full.key == key_a and len(full) == 2
    # the incompatible request is still pending, not swept into the batch
    assert batcher.pending_count == 1
    leftovers = batcher.flush()
    assert [b.key for b in leftovers] == [key_b]


def test_batcher_timeout_closes_aged_groups():
    clock = FakeClock()
    batcher = DynamicBatcher(max_batch_size=8, max_wait=1.0, clock=clock)
    key = BatchKey("stable-diffusion", "fp8", GenerationPlan(num_steps=4))
    batcher.add(key, _request(seed=1))
    clock.advance(0.5)
    assert batcher.due() == []          # not aged yet
    batcher.add(key, _request(seed=2))  # joining does not reset the timer
    clock.advance(0.5)
    due = batcher.due()
    assert len(due) == 1 and len(due[0]) == 2
    assert batcher.pending_count == 0


# ----------------------------------------------------------------------
# model-variant pool
# ----------------------------------------------------------------------

def test_pool_lru_eviction_under_memory_budget():
    built = []
    pool = ModelVariantPool(memory_budget_bytes=2.0,
                            builder=lambda m, s: built.append((m, s)) or object(),
                            cost_fn=lambda m, s: 1.0)
    pool.get("stable-diffusion", "fp32")
    pool.get("stable-diffusion", "fp8")
    assert pool.resident_variants == (("stable-diffusion", "fp32"),
                                      ("stable-diffusion", "fp8"))
    # touch fp32 so fp8 becomes least recently used
    pool.get("stable-diffusion", "fp32")
    pool.get("stable-diffusion", "fp4")  # over budget -> evict LRU (fp8)
    assert pool.resident_variants == (("stable-diffusion", "fp32"),
                                      ("stable-diffusion", "fp4"))
    assert pool.evictions == 1 and pool.builds == 3 and pool.hits == 1
    # the evicted variant is rebuilt on demand
    pool.get("stable-diffusion", "fp8")
    assert pool.builds == 4


def test_pool_keeps_newest_variant_even_over_budget():
    pool = ModelVariantPool(memory_budget_bytes=0.5,
                            builder=lambda m, s: object(),
                            cost_fn=lambda m, s: 1.0)
    pipeline = pool.get("stable-diffusion", "fp32")
    assert pool.get("stable-diffusion", "fp32") is pipeline
    assert pool.resident_variants == (("stable-diffusion", "fp32"),)


def test_variant_cost_scales_with_scheme_bytes():
    fp32 = variant_cost_bytes("stable-diffusion", "fp32")
    fp8 = variant_cost_bytes("stable-diffusion", "fp8")
    fp4 = variant_cost_bytes("stable-diffusion", "fp4")
    assert fp32 == pytest.approx(4 * fp8) == pytest.approx(8 * fp4)


def test_pool_builds_real_quantized_variant(serving_pipelines):
    """The default builder path wires zoo + quantizer (stubbed checkpoint)."""
    from repro.core import QuantizationConfig, quantize_pipeline

    base = serving_pipelines["ddim-cifar10"]
    def builder(model, scheme):
        config = QuantizationConfig(weight_dtype=scheme, activation_dtype="fp32")
        quantized, _ = quantize_pipeline(base, config)
        return quantized
    pool = ModelVariantPool(builder=builder)
    fp8 = pool.get("ddim-cifar10", "fp8")
    assert fp8 is not base
    assert pool.get("ddim-cifar10", "fp8") is fp8  # cached


# ----------------------------------------------------------------------
# embedding cache
# ----------------------------------------------------------------------

def test_embedding_cache_hits_and_dedup(serving_pipelines):
    pipeline = serving_pipelines["stable-diffusion"]
    cache = EmbeddingCache(capacity=8)
    prompts = ["a red circle", "a blue square", "a red circle"]
    contexts = cache.get_contexts("stable-diffusion", pipeline, prompts)
    assert contexts.shape[0] == 3
    assert cache.hits == 0 and cache.misses == 3
    # duplicated prompt produced identical rows from a single encode
    np.testing.assert_array_equal(contexts[0], contexts[2])
    reference = pipeline.encode_prompts(["a red circle"]).data[0]
    np.testing.assert_allclose(contexts[0], reference, atol=1e-6)

    contexts2 = cache.get_contexts("stable-diffusion", pipeline,
                                   ["a red circle", "a green ring"])
    np.testing.assert_array_equal(contexts2[0], contexts[0])
    assert cache.hits == 1 and cache.misses == 4
    assert cache.hit_rate == pytest.approx(1 / 5)


def test_embedding_cache_lru_eviction(serving_pipelines):
    pipeline = serving_pipelines["stable-diffusion"]
    cache = EmbeddingCache(capacity=2)
    cache.get_contexts("stable-diffusion", pipeline, ["p one", "p two", "p three"])
    assert len(cache) == 2 and cache.evictions == 1
    assert ("stable-diffusion", "p one") not in cache
    assert ("stable-diffusion", "p three") in cache


# ----------------------------------------------------------------------
# SLO router
# ----------------------------------------------------------------------

def test_scheme_latency_predictions_order_by_precision(paper_costs_router):
    predictions = paper_costs_router.predictions("stable-diffusion", 50)
    assert predictions["fp4"] < predictions["fp8"] < predictions["fp32"]
    # At paper scale on the V100 profile most layers are compute-bound, so
    # byte savings only shave the memory-bound (norm/attention) share — a
    # small but strictly positive win for lower precision.
    assert predictions["fp4"] < 0.995 * predictions["fp32"]


def test_router_serves_best_quality_with_headroom(paper_costs_router):
    request = _request(latency_slo=None, num_steps=50)
    assert paper_costs_router.decide(request).scheme == "fp32"
    loose = slo_for_tier(paper_costs_router, "stable-diffusion", 50, "loose")
    assert paper_costs_router.decide(_request(
        latency_slo=loose, num_steps=50)).scheme == "fp32"


def test_router_picks_cheapest_feasible_scheme_under_tight_slo(paper_costs_router):
    predictions = paper_costs_router.predictions("stable-diffusion", 50)
    # an SLO only the cheapest scheme can meet
    tight = 0.5 * (predictions["fp4"] + predictions["fp8"])
    assert paper_costs_router.decide(_request(
        latency_slo=tight, num_steps=50)).scheme == "fp4"
    # between fp8 and fp32: fp8 is the best quality that fits
    medium = 0.5 * (predictions["fp8"] + predictions["fp32"])
    assert paper_costs_router.decide(_request(
        latency_slo=medium, num_steps=50)).scheme == "fp8"


def test_router_degrades_to_fastest_when_infeasible(paper_costs_router):
    impossible = _request(latency_slo=1e-12, num_steps=50)
    assert paper_costs_router.decide(impossible).scheme == "fp4"


def test_router_respects_explicit_scheme(paper_costs_router):
    pinned = _request(scheme="int8", latency_slo=1e-12, num_steps=50)
    assert paper_costs_router.decide(pinned).scheme == "int8"


# ----------------------------------------------------------------------
# zoo memoization (satellite)
# ----------------------------------------------------------------------

def test_load_pretrained_memoizes_in_process(fast_pretrain_config, tmp_path):
    clear_model_memo()
    first = load_pretrained("ddim-cifar10", fast_pretrain_config,
                            cache_dir=tmp_path)
    second = load_pretrained("ddim-cifar10", fast_pretrain_config,
                             cache_dir=tmp_path)
    assert second is first  # no re-read, same object
    refreshed = load_pretrained("ddim-cifar10", fast_pretrain_config,
                                cache_dir=tmp_path, refresh=True)
    assert refreshed is not first  # escape hatch re-reads the checkpoint
    for key, value in first.state_dict().items():
        np.testing.assert_array_equal(value, refreshed.state_dict()[key])
    # refresh replaced the memo entry
    assert load_pretrained("ddim-cifar10", fast_pretrain_config,
                           cache_dir=tmp_path) is refreshed
    clear_model_memo()


# ----------------------------------------------------------------------
# pipeline dedup + batched generation (satellites)
# ----------------------------------------------------------------------

def test_generate_from_prompts_encodes_unique_prompts_once(serving_pipelines,
                                                           monkeypatch):
    pipeline = serving_pipelines["stable-diffusion"]
    encoded_counts = []
    original = type(pipeline).encode_prompts

    def counting(self, prompts):
        encoded_counts.append(len(list(prompts)))
        return original(self, prompts)

    monkeypatch.setattr(type(pipeline), "encode_prompts", counting)
    prompts = ["a red circle", "a blue square", "a red circle", "a red circle"]
    images = pipeline.generate_from_prompts(prompts, seed=0, batch_size=8)
    assert images.shape[0] == 4
    assert sum(encoded_counts) == 2  # only the unique prompts hit the encoder


def test_encode_prompts_deduped_matches_direct_encoding(serving_pipelines):
    pipeline = serving_pipelines["stable-diffusion"]
    prompts = ["a red circle", "a blue square", "a red circle"]
    deduped = pipeline.encode_prompts_deduped(prompts)
    direct = pipeline.encode_prompts(prompts).data
    np.testing.assert_allclose(deduped, direct, atol=1e-6)


def test_generate_batch_is_batch_invariant(serving_pipelines):
    pipeline = serving_pipelines["ddim-cifar10"]
    together = pipeline.generate_batch([11, 22, 33])
    alone = pipeline.generate_batch([22])
    assert together.shape[0] == 3
    # BLAS blocking reorders accumulation across batch shapes, so allow
    # small float drift amplified over the sampling steps.
    np.testing.assert_allclose(together[1], alone[0], atol=1e-3, rtol=1e-3)


# ----------------------------------------------------------------------
# engine end-to-end
# ----------------------------------------------------------------------

def _stub_engine(serving_pipelines, router, **config_kwargs):
    pool = ModelVariantPool(builder=lambda m, s: serving_pipelines[m])
    return ServingEngine(pool, router=router,
                         config=EngineConfig(**config_kwargs))


def test_engine_rejects_when_queue_full(serving_pipelines, paper_costs_router):
    engine = _stub_engine(serving_pipelines, paper_costs_router,
                          queue_capacity=2)
    assert engine.submit(_request(seed=1, num_steps=4))
    assert engine.submit(_request(seed=2, num_steps=4))
    assert not engine.submit(_request(seed=3, num_steps=4))
    assert engine.stats.rejected == 1
    assert len(engine.run_until_idle()) == 2


def test_engine_requires_prompt_for_text_models(serving_pipelines,
                                                paper_costs_router):
    engine = _stub_engine(serving_pipelines, paper_costs_router)
    with pytest.raises(ValueError, match="needs a prompt"):
        engine.submit(Request(model="stable-diffusion"))


def test_engine_pump_honors_max_wait(serving_pipelines, paper_costs_router):
    clock = FakeClock()
    pool = ModelVariantPool(builder=lambda m, s: serving_pipelines[m])
    engine = ServingEngine(pool, router=paper_costs_router,
                           config=EngineConfig(max_batch_size=8, max_wait=1.0),
                           clock=clock)
    engine.submit(_request(seed=1, num_steps=4))
    assert engine.pump() == []              # batch too young to close
    clock.advance(2.0)
    responses = engine.pump()
    assert len(responses) == 1 and responses[0].batch_size == 1


def test_pump_leaves_pool_measuring_to_the_drain(paper_costs_router, monkeypatch):
    """A serving turn does not measure the variant pool; the final drain
    does, so the report still carries each served variant's current bytes."""
    model = DiffusionModel(make_tiny_spec(name="ddim-cifar10"),
                           rng=np.random.default_rng(6))
    pipeline = DiffusionPipeline(model, num_steps=4)
    pool = ModelVariantPool(builder=lambda m, s: pipeline)
    engine = ServingEngine(pool, router=paper_costs_router,
                           config=EngineConfig(max_batch_size=1))
    stats_calls = []
    measure = pool.stats
    monkeypatch.setattr(pool, "stats", lambda: stats_calls.append(1) or measure())
    engine.submit(_request(model="ddim-cifar10", seed=1, num_steps=4))
    assert len(engine.pump()) == 1
    assert stats_calls == []
    # Serving can grow a variant: a packed layer builds the row arrays of
    # its GEMM view on its first fused product.
    model.register_buffer("grown", np.zeros(256, dtype=np.float32))
    engine.submit(_request(model="ddim-cifar10", seed=2, num_steps=4))
    assert len(engine.run_until_idle()) == 1
    assert stats_calls
    variants = engine.stats.report()["components"]["variant_pool"]["variants"]
    assert variants
    for meta in variants.values():
        assert meta["resident_nbytes"] == resident_nbytes(model)


def test_engine_smoke_mixed_workload(serving_pipelines, paper_costs_router):
    """Drive >= 20 mixed requests (two models, SLO tiers, popular prompts)."""
    engine = _stub_engine(serving_pipelines, paper_costs_router,
                          max_batch_size=8)
    workload = generate_workload(
        WorkloadConfig(num_requests=24,
                       models=("stable-diffusion", "ddim-cifar10"),
                       num_steps=4, prompt_pool_size=4, popularity_skew=1.5,
                       slo_tiers=("loose", "medium", "tight", None), seed=11),
        router=paper_costs_router)
    responses = engine.serve(workload)

    assert len(responses) == 24
    assert len({r.request_id for r in responses}) == 24
    for response in responses:
        assert np.isfinite(response.image).all()
        assert response.total_latency >= response.batch_latency >= 0.0

    report = engine.stats.report()
    assert report["requests"]["completed"] == 24
    assert report["batch"]["mean_size"] > 1.0          # batching happened
    assert len(report["requests"]["by_scheme"]) >= 2   # SLO tiers split schemes
    assert report["components"]["embedding_cache"]["hit_rate"] > 0.0
    assert set(report["latency_s"]) == {"mean", "p50", "p95", "max"}
    assert set(report["queue_wait_s"]) == {"mean", "p50", "p95", "max"}
    # JSON round-trip of the report
    import json
    assert json.loads(engine.stats.to_json())["requests"]["completed"] == 24


class _PricedPipeline:
    """Stub variant whose generation pass advances a virtual clock by the
    router's price of the batch: one walk plus 15% per further image."""

    def __init__(self, pipeline, clock, router, model, scheme):
        self._pipeline, self._clock, self._router = pipeline, clock, router
        self._model, self._scheme = model, scheme

    def __getattr__(self, name):
        return getattr(self._pipeline, name)

    def generate_batch(self, seeds, context=None, plan=None):
        images = self._pipeline.generate_batch(seeds, context=context,
                                               plan=plan)
        price = self._router.predicted_plan_latency(self._model,
                                                    self._scheme, plan)
        self._clock.advance(price * (1.0 + 0.15 * (len(seeds) - 1)))
        return images


def test_engine_report_agrees_with_its_responses(serving_pipelines):
    """Every per-plan block of a mixed virtual-clock run (plans x SLO
    tiers) is recomputable from the returned responses."""
    from repro.serving.cluster import default_cluster_router

    router = default_cluster_router()     # a scheme ladder with real spread
    clock = VirtualClock()
    pool = ModelVariantPool(builder=lambda m, s: _PricedPipeline(
        serving_pipelines[m], clock, router, m, s))
    engine = ServingEngine(pool, router=router, clock=clock,
                           config=EngineConfig(max_batch_size=2))
    plans = (None, GenerationPlan(sampler="dpm2"),
             GenerationPlan(guidance_scale=2.0), GenerationPlan(eta=0.5))
    tiers = ("loose", "medium", "tight", None)
    # pairs of like requests arrive together, one pair per virtual second
    requests = [
        _request(seed=index, num_steps=4, prompt=f"prompt {index % 3}",
                 plan=plans[index // 2 % 4], tier=tiers[index // 8],
                 latency_slo=slo_for_tier(router, "stable-diffusion", 4,
                                          tiers[index // 8]))
        for index in range(32)]
    responses = []
    for index in range(0, len(requests), 2):
        for request in requests[index:index + 2]:
            engine.submit(request)
        responses.extend(engine.pump())
        clock.advance(1.0)
    responses.extend(engine.run_until_idle())
    slos = {request.request_id: request.latency_slo for request in requests}

    groups = {}
    for response in responses:
        groups.setdefault(plan_label(response.plan, response.num_steps),
                          []).append(response)
    report = engine.stats.report()
    assert set(report["plans"]) == set(groups)
    assert len(groups) >= len(plans)
    for label, group in groups.items():
        block = report["plans"][label]
        latencies = [response.total_latency for response in group]
        assert block["count"] == len(group)
        assert block["latency_s"]["p50"] == np.percentile(latencies, 50)
        assert block["latency_s"]["p95"] == np.percentile(latencies, 95)
        schemes = {}
        for response in group:
            schemes[response.scheme] = schemes.get(response.scheme, 0) + 1
        assert block["by_scheme"] == schemes
        outcomes = [response.meets_slo(slos[response.request_id])
                    for response in group]
        assert block["slo"] == {
            "with_target": sum(met is not None for met in outcomes),
            "met": sum(met is True for met in outcomes)}
    # the run both meets and misses targets, so the SLO columns are tested
    assert 0 < report["slo"]["met"] < report["slo"]["with_target"] == 24
    assert report["requests"]["completed"] == len(responses) == 32


def test_engine_batched_matches_sequential_images(serving_pipelines,
                                                  paper_costs_router):
    """A request's image does not depend on how it was batched."""
    workload = [
        _request(seed=100 + i, num_steps=4,
                 prompt=f"a red circle {i % 2}") for i in range(6)
    ]
    batched = _stub_engine(serving_pipelines, paper_costs_router,
                           max_batch_size=6)
    sequential = _stub_engine(serving_pipelines, paper_costs_router)

    def clone(requests):
        return [Request(model=r.model, prompt=r.prompt, num_steps=r.num_steps,
                        seed=r.seed) for r in requests]

    by_id_batched = {r.request_id: r for r in batched.serve(clone(workload))}
    by_id_seq = {r.request_id: r
                 for r in sequential.serve_sequential(clone(workload))}
    assert by_id_batched.keys() == by_id_seq.keys()
    for request_id, response in by_id_batched.items():
        np.testing.assert_allclose(response.image,
                                   by_id_seq[request_id].image,
                                   atol=1e-3, rtol=1e-3)
