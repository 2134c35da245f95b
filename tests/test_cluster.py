"""Tests for the distributed serving tier (repro.serving.cluster)."""

import json

import pytest

from repro.profiling import estimate_utilization
from repro.serving import Request, ServingStats, VirtualClock
from repro.serving.cluster import (
    ACTIVE,
    DRAINING,
    STOPPED,
    WARMING,
    AffinityPolicy,
    Autoscaler,
    AutoscalerConfig,
    CachedRouter,
    ClusterConfig,
    ClusterCostModel,
    ClusterSimulation,
    FrontDoor,
    FrontDoorConfig,
    Replica,
    ReplicaConfig,
    RoundRobinPolicy,
    TokenBucket,
    TraceConfig,
    default_cluster_router,
    generate_trace,
    make_policy,
    run_cluster_sim,
)


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def router():
    return CachedRouter(default_cluster_router())


@pytest.fixture(scope="module")
def cost_model(router):
    return ClusterCostModel(router)


def make_replica(router, cost_model, replica_id=0, clock=None, **config):
    clock = clock or VirtualClock()
    return Replica(replica_id, clock, router, cost_model,
                   ReplicaConfig(**config)), clock


def sd_request(**kwargs):
    defaults = dict(model="stable-diffusion", prompt="a lighthouse at dusk",
                    tenant="tenant-000", tier="loose", latency_slo=2.0)
    defaults.update(kwargs)
    return Request(**defaults)


# ---------------------------------------------------------------------------
# cost model
# ---------------------------------------------------------------------------

def test_scheme_ladder_has_real_spread_on_serving_device(cost_model):
    # On the bandwidth-lean serving device the FP32 forward is memory
    # bound, so quantization buys real latency (unlike the V100 profile
    # where paper-scale forwards are compute-bound and the ladder is flat).
    router = cost_model.router
    per = {s: router.predicted_step_latency("stable-diffusion", s)
           for s in ("fp32", "fp8", "fp4")}
    assert per["fp32"] > 2.0 * per["fp8"] > per["fp4"]


def test_variant_bytes_follow_scheme_width(cost_model):
    fp32 = cost_model.variant_bytes("stable-diffusion", "fp32")
    fp8 = cost_model.variant_bytes("stable-diffusion", "fp8")
    fp4 = cost_model.variant_bytes("stable-diffusion", "fp4")
    assert fp32 == pytest.approx(4.0 * fp8)
    assert fp8 == pytest.approx(2.0 * fp4)
    # ~760M parameters at paper scale -> ~3 GB of FP32 weights.
    assert 2e9 < fp32 < 4e9


def test_batch_service_time_is_marginal_not_linear(cost_model):
    plan = cost_model.router.resolve_plan(sd_request())
    one = cost_model.batch_service_seconds("stable-diffusion", "fp32", plan, 1)
    eight = cost_model.batch_service_seconds("stable-diffusion", "fp32",
                                             plan, 8)
    assert one < eight < 8 * one


def test_variant_load_time_scales_with_bytes(cost_model):
    assert (cost_model.variant_load_seconds("stable-diffusion", "fp32")
            > cost_model.variant_load_seconds("stable-diffusion", "fp4"))


def test_estimate_utilization_law():
    assert estimate_utilization(10.0, 0.2, 4) == pytest.approx(0.5)
    assert estimate_utilization(0.0, 0.2, 4) == 0.0
    with pytest.raises(ValueError):
        estimate_utilization(10.0, 0.2, 0)


# ---------------------------------------------------------------------------
# cached router
# ---------------------------------------------------------------------------

def test_cached_router_matches_inner_and_caches(router):
    inner = router.inner
    request = sd_request(latency_slo=0.3)
    cached = router.decide(request)
    direct = inner.decide(sd_request(latency_slo=0.3))
    assert cached == direct
    before = router.cache_size
    router.decide(sd_request(latency_slo=0.3))
    assert router.cache_size == before  # same key -> no new entry


# ---------------------------------------------------------------------------
# token bucket / front door
# ---------------------------------------------------------------------------

def test_token_bucket_refills_with_time():
    bucket = TokenBucket(rate=1.0, capacity=2.0, now=0.0)
    assert bucket.try_take(0.0) and bucket.try_take(0.0)
    assert not bucket.try_take(0.0)          # burst spent
    assert bucket.try_take(1.0)              # 1 token back after 1s
    assert not bucket.try_take(1.0)


def test_frontdoor_throttles_hot_tenant_only(router, cost_model):
    replica, clock = make_replica(router, cost_model)
    door = FrontDoor(router, make_policy("round_robin"), cost_model,
                     FrontDoorConfig(tenant_rate=1.0, tenant_burst=1.0))
    assert door.dispatch(sd_request(tenant="hot"), 0.0, [replica]) is not None
    assert door.dispatch(sd_request(tenant="hot"), 0.0, [replica]) is None
    # A different tenant has its own bucket.
    assert door.dispatch(sd_request(tenant="cold"), 0.0, [replica]) is not None
    rejections = door.stats.rejections()
    assert rejections["by_reason"] == {"throttled": 1}
    assert rejections["by_tenant"] == {"hot": 1}


def test_frontdoor_rejects_without_active_replica(router, cost_model):
    replica, clock = make_replica(router, cost_model)
    replica.state = WARMING
    door = FrontDoor(router, make_policy("round_robin"), cost_model)
    assert door.dispatch(sd_request(), 0.0, [replica]) is None
    assert door.stats.rejections()["by_reason"] == {"no_replica": 1}


def test_frontdoor_overload_bound(router, cost_model):
    replica, clock = make_replica(router, cost_model, capacity=64)
    door = FrontDoor(router, make_policy("round_robin"), cost_model,
                     FrontDoorConfig(tenant_rate=1000.0, tenant_burst=1000.0,
                                     max_cluster_pending=2))
    for _ in range(2):
        assert door.dispatch(sd_request(), 0.0, [replica]) is not None
    assert door.dispatch(sd_request(), 0.0, [replica]) is None
    assert door.stats.rejections()["by_reason"] == {"overload": 1}


def test_frontdoor_config_validation():
    for field, value in (("tenant_rate", -1.0), ("tenant_rate", 0.0),
                         ("tenant_burst", 0.5),
                         ("max_cluster_pending", 0)):
        with pytest.raises(ValueError, match=field):
            FrontDoorConfig(**{field: value})


def test_frontdoor_window_counts_arrivals_offered(router, cost_model):
    replica, clock = make_replica(router, cost_model)
    door = FrontDoor(router, make_policy("round_robin"), cost_model,
                     FrontDoorConfig(tenant_rate=1.0, tenant_burst=1.0))
    door.dispatch(sd_request(tenant="hot"), 0.0, [replica])
    door.dispatch(sd_request(tenant="hot"), 0.0, [replica])  # throttled
    assert door.take_window() == 2       # offered, admitted or not
    assert door.take_window() == 0       # reset by the read


# ---------------------------------------------------------------------------
# replica lifecycle + capacity
# ---------------------------------------------------------------------------

def test_replica_lifecycle_warming_active_draining_stopped(router, cost_model):
    replica, clock = make_replica(router, cost_model)
    replica.state = WARMING
    with pytest.raises(ValueError):
        # only warming replicas activate; double-activation is a bug
        replica.activate(1.0)
        replica.activate(2.0)
    replica.state = WARMING
    replica.activate(5.0)
    assert replica.state == ACTIVE and replica.started_at == 5.0
    # Draining with work in flight: finishes it, then stops.
    assert replica.submit(sd_request())
    batches = replica.collect(flush=True)
    assert len(batches) == 1
    started, finished = replica.schedule(batches[0], 5.0)
    replica.drain(5.0)
    assert replica.state == DRAINING
    replica.complete(batches[0], started, finished)
    assert replica.state == STOPPED
    assert replica.stopped_at == finished


def test_replica_drain_when_idle_stops_immediately(router, cost_model):
    replica, clock = make_replica(router, cost_model)
    replica.drain(3.0)
    assert replica.state == STOPPED and replica.stopped_at == 3.0


def test_replica_capacity_rejection_attributed(router, cost_model):
    replica, clock = make_replica(router, cost_model, capacity=1)
    assert replica.submit(sd_request(tenant="t-a", tier="loose"))
    assert not replica.submit(sd_request(tenant="t-b", tier="tight"))
    rejections = replica.engine.stats.rejections()
    assert rejections["total"] == 1
    assert rejections["by_tenant"] == {"t-b": 1}
    assert rejections["by_tier"] == {"tight": 1}
    assert rejections["by_reason"] == {"queue_full": 1}


def test_replica_charges_variant_load_once_then_residency(router, cost_model):
    replica, clock = make_replica(router, cost_model)
    first = replica.collect(flush=True)
    assert replica.submit(sd_request(latency_slo=None))
    (batch,) = replica.collect(flush=True)
    started, finished = replica.schedule(batch, 0.0)
    cold_cost = finished - started
    replica.complete(batch, started, finished)
    assert replica.variant_loads == 1 and replica.variant_reloads == 0
    # Same variant again: resident, so no load cost this time.
    assert replica.submit(sd_request(latency_slo=None,
                                     prompt="a lighthouse at dusk"))
    (batch2,) = replica.collect(flush=True)
    started2, finished2 = replica.schedule(batch2, finished)
    assert finished2 - started2 < cold_cost
    assert replica.variant_loads == 1


def test_replica_executor_serializes_batches(router, cost_model):
    replica, clock = make_replica(router, cost_model)
    for index in range(2):
        assert replica.submit(sd_request(latency_slo=None,
                                         seed=index))
    # Two different-plan requests would split batches; here same key, so
    # force two singleton batches via flush between submits instead.
    replica2, _ = make_replica(router, cost_model, replica_id=1)
    replica2.submit(sd_request(latency_slo=None))
    (b1,) = replica2.collect(flush=True)
    replica2.submit(sd_request(latency_slo=None))
    (b2,) = replica2.collect(flush=True)
    s1, f1 = replica2.schedule(b1, 0.0)
    s2, f2 = replica2.schedule(b2, 0.0)
    assert s1 == 0.0
    assert s2 == f1           # second batch waits for the executor
    assert f2 > f1


# ---------------------------------------------------------------------------
# routing policies
# ---------------------------------------------------------------------------

def test_affinity_prefers_variant_residency(router, cost_model):
    clock = VirtualClock()
    replicas = [Replica(i, clock, router, cost_model, ReplicaConfig())
                for i in range(2)]
    request = sd_request(latency_slo=None)
    decision = router.decide(request)
    # Make the variant resident on replica 1 only.
    replicas[1].pool.get(request.model, decision.scheme)
    policy = AffinityPolicy()
    chosen = policy.choose(replicas, request, decision, 0.0, cost_model)
    assert chosen.replica_id == 1
    # Round-robin ignores residency and starts at replica 0.
    assert RoundRobinPolicy().choose(replicas, request, decision, 0.0,
                                     cost_model).replica_id == 0


def test_affinity_falls_back_to_load_when_resident_everywhere(router,
                                                              cost_model):
    clock = VirtualClock()
    replicas = [Replica(i, clock, router, cost_model, ReplicaConfig())
                for i in range(2)]
    request = sd_request(latency_slo=None)
    decision = router.decide(request)
    for replica in replicas:
        replica.pool.get(request.model, decision.scheme)
    replicas[0].busy_until = 100.0  # deep backlog on replica 0
    chosen = AffinityPolicy().choose(replicas, request, decision, 0.0,
                                     cost_model)
    assert chosen.replica_id == 1


def test_make_policy_registry():
    assert make_policy("affinity").name == "affinity"
    assert make_policy("round_robin").name == "round_robin"
    assert make_policy("least_loaded").name == "least_loaded"
    with pytest.raises(ValueError):
        make_policy("nope")


# ---------------------------------------------------------------------------
# autoscaler
# ---------------------------------------------------------------------------

def test_autoscaler_scales_up_under_load():
    scaler = Autoscaler(AutoscalerConfig(min_replicas=2, max_replicas=8,
                                         target_utilization=0.6,
                                         interval_seconds=10.0,
                                         cooldown_seconds=0.0))
    # Measured service 25s/50 = 0.5, EWMA with the 0.3 default -> 0.4;
    # desired = ceil(10 rps * 0.4 s / 0.6) = 7.
    decision = scaler.evaluate(10.0, arrivals=100, busy_delta_s=25.0,
                               completed=50, active=2, warming=0, draining=0)
    assert decision["action"] == "scale_up"
    assert decision["desired"] == 7
    assert decision["count"] == 5


def test_autoscaler_cooldown_blocks_consecutive_actions():
    scaler = Autoscaler(AutoscalerConfig(cooldown_seconds=60.0,
                                         interval_seconds=10.0))
    first = scaler.evaluate(10.0, 100, 25.0, 50, active=2, warming=0,
                            draining=0)
    assert first["action"] == "scale_up"
    second = scaler.evaluate(20.0, 100, 25.0, 50, active=2, warming=6,
                             draining=0)
    assert second["action"] == "hold"          # still cooling down
    third = scaler.evaluate(80.0, 100, 25.0, 50, active=8, warming=0,
                            draining=0)
    assert third["action"] == "hold"           # fleet already sized


def test_autoscaler_scales_down_one_at_a_time_when_idle():
    scaler = Autoscaler(AutoscalerConfig(min_replicas=2, cooldown_seconds=0.0,
                                         interval_seconds=10.0))
    decision = scaler.evaluate(10.0, arrivals=2, busy_delta_s=0.4,
                               completed=2, active=6, warming=0, draining=0)
    assert decision["action"] == "scale_down"
    assert decision["count"] == 1


def test_autoscaler_respects_min_replicas():
    scaler = Autoscaler(AutoscalerConfig(min_replicas=3, cooldown_seconds=0.0))
    decision = scaler.evaluate(10.0, arrivals=0, busy_delta_s=0.0,
                               completed=0, active=3, warming=0, draining=0)
    assert decision["action"] == "hold"


def test_autoscaler_timeline_records_every_tick():
    scaler = Autoscaler(AutoscalerConfig(cooldown_seconds=0.0))
    for tick in range(3):
        scaler.evaluate(15.0 * (tick + 1), 10, 1.0, 5, active=4, warming=0,
                        draining=0)
    summary = scaler.summary()
    assert summary["ticks"] == 3
    assert [point["t"] for point in summary["timeline"]] == [15.0, 30.0, 45.0]


def test_autoscaler_config_validation():
    with pytest.raises(ValueError):
        AutoscalerConfig(target_utilization=0.0)
    with pytest.raises(ValueError):
        AutoscalerConfig(scale_down_utilization=0.9, target_utilization=0.6)
    with pytest.raises(ValueError):
        AutoscalerConfig(min_replicas=4, max_replicas=2)
    # values the simulator cannot run: a zero or negative tick interval,
    # an activation scheduled in the past, an EWMA weight outside (0, 1]
    for field, value in (("interval_seconds", 0.0),
                         ("interval_seconds", -5.0),
                         ("warmup_seconds", -5.0),
                         ("service_ewma", 2.0), ("service_ewma", 0.0)):
        with pytest.raises(ValueError, match=field):
            AutoscalerConfig(**{field: value})


# ---------------------------------------------------------------------------
# end-to-end simulation
# ---------------------------------------------------------------------------

SIM_TRACE = TraceConfig(num_requests=4000, seed=7)


def run_sim(policy, autoscaler=None, trace_config=SIM_TRACE, replicas=3):
    trace = generate_trace(trace_config)
    config = ClusterConfig(initial_replicas=replicas, policy=policy,
                           autoscaler=autoscaler)
    return run_cluster_sim(trace, config)


def test_sim_conserves_requests():
    report = run_sim("affinity")
    requests = report["requests"]
    assert requests["offered"] == SIM_TRACE.num_requests
    assert (requests["admitted"] + requests["rejected"]["total"]
            == requests["offered"])
    assert requests["completed"] == requests["admitted"]


def test_sim_report_shape():
    report = run_sim("affinity")
    for key in ("schema", "trace", "cluster", "requests", "latency_s",
                "queue_wait_s", "dispatch_wait_s", "slo", "tiers", "tenants",
                "fairness", "variants", "prompt_cache", "replicas",
                "autoscaler", "events", "throughput_rps", "makespan_s"):
        assert key in report, key
    assert report["schema"] == "cluster_report/v1"
    for block in ("latency_s", "queue_wait_s", "dispatch_wait_s"):
        assert set(report[block]) == {"mean", "max", "p50", "p95", "p99"}
    assert report["slo"]["with_target"] > 0
    assert 0.0 <= report["slo"]["violation_rate"] <= 1.0


def test_sim_is_deterministic_to_the_byte():
    a = json.dumps(run_sim("affinity"), sort_keys=True)
    b = json.dumps(run_sim("affinity"), sort_keys=True)
    assert a == b


def test_replica_summaries_read_their_engines_counts():
    trace = generate_trace(TraceConfig(num_requests=1500, seed=4))
    sim = ClusterSimulation(ClusterConfig(
        initial_replicas=2, autoscaler=AutoscalerConfig(interval_seconds=10.0,
                                                        min_replicas=1)))
    report = sim.run(trace)
    assert len(report["replicas"]) == len(sim.replicas)
    for replica in sim.replicas:
        summary = report["replicas"][str(replica.replica_id)]
        engine = replica.engine.stats.report()
        assert summary["served"] == engine["requests"]["completed"]
        assert summary["batches"] == engine["batch"]["count"]
        assert summary["mean_batch_size"] == engine["batch"]["mean_size"]
        assert summary["by_scheme"] == engine["requests"]["by_scheme"]
    # every completion was served by exactly one replica, in one batch
    summaries = report["replicas"].values()
    assert (sum(s["served"] for s in summaries)
            == report["requests"]["completed"] > 0)
    assert (sum(s["batches"] for s in summaries)
            == report["events"]["completions"])


def test_affinity_beats_round_robin():
    """The acceptance-criteria comparison: lower tail latency, less churn."""
    affinity = run_sim("affinity")
    round_robin = run_sim("round_robin")
    # Same admission decisions (policy only changes placement).
    assert (affinity["requests"]["offered"]
            == round_robin["requests"]["offered"])
    assert affinity["latency_s"]["p99"] < round_robin["latency_s"]["p99"]
    assert (affinity["variants"]["reloads"]
            < round_robin["variants"]["reloads"])
    assert (affinity["slo"]["violation_rate"]
            <= round_robin["slo"]["violation_rate"])


def test_sim_autoscaler_reacts_and_respects_warmup():
    config = AutoscalerConfig(min_replicas=2, max_replicas=8,
                              warmup_seconds=30.0, cooldown_seconds=30.0)
    report = run_sim("affinity", autoscaler=config, replicas=2)
    summary = report["autoscaler"]
    assert summary["enabled"] and summary["scale_ups"] >= 1
    assert summary["peak_active"] <= 8
    # A scale-up's replicas exist but are warming at the decision tick;
    # they activate warmup_seconds later (visible in later ticks).
    first_up = next(p for p in summary["timeline"]
                    if p["action"] == "scale_up")
    same_or_later = [p for p in summary["timeline"]
                     if p["t"] > first_up["t"] + config.warmup_seconds]
    assert any(p["active"] > first_up["active"] for p in same_or_later)


def test_sim_rejections_attributed_per_tenant():
    # A tight per-tenant bucket forces throttling of the hottest tenant.
    trace = generate_trace(TraceConfig(num_requests=3000, seed=3,
                                       tenant_skew=1.5))
    config = ClusterConfig(
        initial_replicas=3,
        frontdoor=FrontDoorConfig(tenant_rate=0.5, tenant_burst=5.0))
    report = ClusterSimulation(config).run(trace)
    rejected = report["requests"]["rejected"]
    assert rejected["by_reason"].get("throttled", 0) > 0
    assert "tenant-000" in rejected["by_tenant"]
    # The hottest (Zipf rank-1) tenant absorbs the most throttling.
    assert (rejected["by_tenant"]["tenant-000"]
            == max(rejected["by_tenant"].values()))
    # ... and rejection accounting shows up in per-tenant rates.
    assert report["tenant_rejection_rates"]["tenant-000"] > 0


def test_sim_virtual_time_only():
    """The report must be a pure function of (trace, config): no wall time."""
    import time as time_module
    trace = generate_trace(TraceConfig(num_requests=500, seed=1))
    before = time_module.perf_counter()
    report_a = ClusterSimulation(ClusterConfig(initial_replicas=2)).run(trace)
    time_module.sleep(0.05)  # wall time passes between the two runs
    report_b = ClusterSimulation(ClusterConfig(initial_replicas=2)).run(trace)
    assert json.dumps(report_a, sort_keys=True) == json.dumps(report_b,
                                                              sort_keys=True)


# ---------------------------------------------------------------------------
# satellite: single engines are deterministic under a virtual clock
# ---------------------------------------------------------------------------

def test_engine_fully_deterministic_under_virtual_clock(router, cost_model):
    """No wall-clock leakage: identical virtual runs -> identical reports."""
    def one_run():
        replica, clock = make_replica(router, cost_model)
        replica.engine.stats = ServingStats()     # keep per-request records
        now = 0.0
        for index in range(12):
            replica.submit(sd_request(seed=index, latency_slo=None,
                                      tenant=f"t-{index % 3}"))
            for batch in replica.collect(flush=True):
                started, finished = replica.schedule(batch, now)
                clock.advance_to(finished)
                replica.complete(batch, started, finished)
                now = finished
        replica.engine.sync_component_stats()
        return replica.engine.stats.report()

    report_a, report_b = one_run(), one_run()
    assert json.dumps(report_a, sort_keys=True) == json.dumps(
        report_b, sort_keys=True)
    # Variant build times come from the virtual clock (0.0 between ticks),
    # not from wall time.
    pool_stats = report_a["components"]["variant_pool"]
    for meta in pool_stats["variants"].values():
        assert meta["build_time_s"] == 0.0
