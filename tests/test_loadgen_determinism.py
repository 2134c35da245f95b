"""Determinism and popularity-law tests for the load generators.

Satellite coverage: the same seed must produce the identical request
stream on every run (generate_workload) and the identical trace
regardless of how many replicas will consume it (generate_trace takes no
cluster parameters at all — the trace is a pure function of its config),
plus property tests for the shared Zipf popularity law.
"""

import inspect

import numpy as np
import pytest

from repro.models import get_model_spec
from repro.serving.cluster import (
    TraceConfig,
    default_cluster_router,
    generate_trace,
)
from repro.serving.loadgen import (
    WorkloadConfig,
    generate_workload,
    slo_for_tier,
    zipf_weights,
)


def stream_key(requests):
    return [(r.model, r.prompt, r.num_steps, r.latency_slo, r.plan, r.seed,
             r.tier) for r in requests]


# ---------------------------------------------------------------------------
# generate_workload (single-engine loadgen)
# ---------------------------------------------------------------------------

def test_workload_same_seed_identical_stream():
    config = WorkloadConfig(num_requests=64, seed=42,
                            slo_tiers=("loose", "tight", None))
    assert stream_key(generate_workload(config)) == stream_key(
        generate_workload(config))


def test_workload_different_seed_different_stream():
    base = WorkloadConfig(num_requests=64, seed=42)
    other = WorkloadConfig(num_requests=64, seed=43)
    assert stream_key(generate_workload(base)) != stream_key(
        generate_workload(other))


def test_workload_prompts_follow_popularity():
    config = WorkloadConfig(num_requests=512, seed=0, prompt_pool_size=8,
                            popularity_skew=1.4)
    requests = generate_workload(config)
    counts = {}
    for request in requests:
        counts[request.prompt] = counts.get(request.prompt, 0) + 1
    # With skew 1.4 over 8 prompts the hottest should clearly dominate
    # the coldest.
    assert max(counts.values()) > 4 * min(counts.values())


# ---------------------------------------------------------------------------
# generate_trace (cluster traffic)
# ---------------------------------------------------------------------------

TRACE = TraceConfig(num_requests=2000, seed=11)


def test_trace_same_seed_identical_fingerprint():
    assert (generate_trace(TRACE).fingerprint()
            == generate_trace(TRACE).fingerprint())


def test_trace_same_seed_identical_requests():
    a, b = generate_trace(TRACE), generate_trace(TRACE)
    assert len(a) == len(b) == TRACE.num_requests
    for (t_a, r_a), (t_b, r_b) in zip(a, b):
        assert t_a == t_b
        assert (r_a.model, r_a.prompt, r_a.tenant, r_a.tier, r_a.latency_slo,
                r_a.plan, r_a.seed) == (r_b.model, r_b.prompt, r_b.tenant,
                                        r_b.tier, r_b.latency_slo, r_b.plan,
                                        r_b.seed)


def test_trace_independent_of_cluster_shape():
    """The trace never sees the cluster: one stream feeds any fleet size.

    generate_trace takes its config and nothing else — no replica count,
    no router — so cluster state cannot be threaded into the generator.
    """
    assert list(inspect.signature(generate_trace).parameters) == ["config"]
    assert (generate_trace(TRACE).fingerprint()
            == generate_trace(TRACE).fingerprint())


def _anchors(router, model, num_steps):
    predictions = router.predictions(model, num_steps)
    cheapest, dearest = min(predictions.values()), max(predictions.values())
    return {"tight": cheapest, "medium": 0.5 * (cheapest + dearest),
            "loose": dearest}


def test_slo_for_tier_default_is_the_single_engine_table():
    router = default_cluster_router()
    anchors = _anchors(router, "stable-diffusion", 20)
    assert (slo_for_tier(router, "stable-diffusion", 20, "loose")
            == 2.0 * anchors["loose"])
    assert (slo_for_tier(router, "stable-diffusion", 20, "medium")
            == anchors["medium"])
    assert (slo_for_tier(router, "stable-diffusion", 20, "tight")
            == 1.0001 * anchors["tight"])
    assert slo_for_tier(router, "stable-diffusion", 20, None) is None
    with pytest.raises(ValueError, match="unknown SLO tier"):
        slo_for_tier(router, "stable-diffusion", 20, "ultra")


def test_trace_slos_are_headroom_times_the_same_anchors():
    config = TraceConfig(num_requests=200, seed=3, tier_headroom={
        "loose": 5.0, "medium": 2.5, "tight": 1.5})
    trace = generate_trace(config)
    router = default_cluster_router()
    for model in config.models:
        steps = get_model_spec(model).default_sampling_steps
        anchors = _anchors(router, model, steps)
        for tier, anchor in anchors.items():
            assert (trace.catalog["slo"][(model, tier)]
                    == config.tier_headroom[tier] * anchor)
        assert trace.catalog["slo"][(model, None)] is None
    for _, request in trace:
        assert (request.latency_slo
                == trace.catalog["slo"][(request.model, request.tier)])


def test_trace_different_seed_differs():
    other = TraceConfig(num_requests=2000, seed=12)
    assert (generate_trace(TRACE).fingerprint()
            != generate_trace(other).fingerprint())


def test_trace_arrivals_strictly_ordered():
    trace = generate_trace(TraceConfig(num_requests=1000, seed=5))
    times = [t for t, _ in trace]
    assert times == sorted(times)
    assert times[0] >= 0.0
    assert trace.duration_s == pytest.approx(times[-1])


def test_trace_tenant_popularity_is_zipf_skewed():
    trace = generate_trace(TraceConfig(num_requests=5000, seed=2,
                                       num_tenants=10, tenant_skew=1.2))
    counts = {}
    for _, request in trace:
        counts[request.tenant] = counts.get(request.tenant, 0) + 1
    ranked = sorted(counts.values(), reverse=True)
    assert counts["tenant-000"] == ranked[0]      # rank-1 tenant hottest
    assert ranked[0] > 3 * ranked[-1]


def test_trace_config_validation():
    with pytest.raises(ValueError):
        TraceConfig(num_requests=0)
    with pytest.raises(ValueError):
        TraceConfig(base_rate=0.0)
    with pytest.raises(ValueError):
        # Negative skew is rejected by the shared zipf law at draw time.
        generate_trace(TraceConfig(num_requests=10, tenant_skew=-1.0))
    # values the arrival loop cannot run: a zero-length day divides by
    # zero, a non-positive burst multiplier makes gaps negative or infinite
    for field, value in (("diurnal_period_s", 0.0),
                         ("diurnal_period_s", -60.0),
                         ("burst_multiplier", -1.0),
                         ("burst_multiplier", 0.0)):
        with pytest.raises(ValueError, match=field):
            TraceConfig(**{field: value})
    # every configured tier needs a headroom factor, and must be known
    with pytest.raises(ValueError, match="tier_headroom"):
        TraceConfig(tier_headroom={"loose": 4.0, "tight": 2.0})
    with pytest.raises(ValueError, match="tiers"):
        TraceConfig(tiers=("loose", "ultra"))
    TraceConfig(tiers=("tight", None), tier_headroom={"tight": 2.0})


# ---------------------------------------------------------------------------
# zipf_weights property tests (shared popularity law)
# ---------------------------------------------------------------------------

def test_zipf_weights_normalized_and_monotone():
    for skew in (0.5, 1.0, 1.4):
        weights = zipf_weights(16, skew)
        assert weights.sum() == pytest.approx(1.0)
        assert np.all(np.diff(weights) < 0)       # strictly decreasing


def test_zipf_weights_zero_skew_uniform():
    weights = zipf_weights(8, 0.0)
    assert np.allclose(weights, 1.0 / 8)


def test_zipf_weights_skew_concentrates_mass():
    low = zipf_weights(32, 0.5)
    high = zipf_weights(32, 1.5)
    assert high[0] > low[0]                        # hotter head
    assert high[-1] < low[-1]                      # colder tail


def test_zipf_weights_validation():
    with pytest.raises(ValueError):
        zipf_weights(0, 1.0)
    with pytest.raises(ValueError):
        zipf_weights(4, -0.5)
