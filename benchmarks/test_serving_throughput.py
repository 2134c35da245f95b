"""Serving load benchmark: dynamic batching vs sequential per-request serving.

Drives the same deterministic mixed workload (popular prompts, fixed seeds)
through two identically-configured engines over the same tiny
text-to-image model:

* **sequential** — one generation pass per request, the pre-serving
  behaviour (``ServingEngine.serve_sequential``);
* **batched** — the dynamic batcher groups compatible requests into shared
  sampler passes (``ServingEngine.serve``).

Time is **virtual**: both engines and their batchers run on an injected
:class:`~repro.serving.VirtualClock`, and every generation pass advances it
by a deterministic cost model — a fixed per-pass overhead (the sampler walk
itself: each denoising step dispatches the full U-Net layer stack whatever
the batch size) plus a per-image increment (the marginal batched-row cost).
The measured ≥2x batching speedup is therefore an exact function of the
batching policy and cannot flake on a loaded CI runner; generation still
runs for real, so the correctness and cache assertions exercise the true
pipeline.  Both arms' stats reports (and a side-by-side comparison) land in
``benchmarks/results/`` for inspection; CI's smoke job uploads them.

Run with: ``PYTHONPATH=src python -m pytest benchmarks/test_serving_throughput.py -q``
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.diffusion import DiffusionPipeline
from repro.models import DiffusionModel, ModelSpec, UNetConfig
from repro.serving import (
    EngineConfig,
    ModelVariantPool,
    ServingEngine,
    SLORouter,
    VirtualClock,
    WorkloadConfig,
    generate_workload,
)

RESULTS_DIR = Path(__file__).resolve().parent / "results"

NUM_REQUESTS = 24
NUM_STEPS = 6
MAX_BATCH = 8

#: Virtual cost of one generation pass: the sampler walk costs PASS_COST
#: regardless of batch size (the per-step layer dispatch is shared), and
#: each image in the batch adds IMAGE_COST of marginal work.
PASS_COST = 1.0
IMAGE_COST = 0.25


def _tiny_text_pipeline() -> DiffusionPipeline:
    """An untrained tiny text-to-image stand-in (throughput only needs shapes)."""
    spec = ModelSpec(
        name="stable-diffusion", task="text-to-image", image_size=16,
        image_channels=3, latent=True, latent_channels=4, latent_downsample=4,
        unet=UNetConfig(in_channels=4, out_channels=4, base_channels=8,
                        channel_multipliers=(1, 2), num_res_blocks=1,
                        attention_levels=(1,), num_heads=2, context_dim=16),
        text_embed_dim=16, train_timesteps=20, default_sampling_steps=NUM_STEPS,
        seed=3)
    model = DiffusionModel(spec, rng=np.random.default_rng(21))
    return DiffusionPipeline(model, num_steps=NUM_STEPS)


class _MeteredPipeline:
    """Delegating pipeline wrapper that charges virtual time per pass."""

    def __init__(self, pipeline: DiffusionPipeline, clock: VirtualClock):
        self._pipeline = pipeline
        self._clock = clock

    def __getattr__(self, name):
        return getattr(self._pipeline, name)

    def generate_batch(self, seeds, context=None, plan=None):
        images = self._pipeline.generate_batch(seeds, context=context,
                                               plan=plan)
        self._clock.advance(PASS_COST + IMAGE_COST * len(list(seeds)))
        return images


@pytest.fixture(scope="module")
def workload():
    return generate_workload(WorkloadConfig(
        num_requests=NUM_REQUESTS, models=("stable-diffusion",),
        num_steps=NUM_STEPS, prompt_pool_size=6, popularity_skew=1.2,
        slo_tiers=(None,), seed=1234))


def _make_engine(pipeline: DiffusionPipeline,
                 clock: VirtualClock) -> ServingEngine:
    metered = _MeteredPipeline(pipeline, clock)
    pool = ModelVariantPool(builder=lambda model, scheme: metered)
    engine = ServingEngine(pool, router=SLORouter(),
                           config=EngineConfig(max_batch_size=MAX_BATCH),
                           clock=clock)
    pool.prewarm([("stable-diffusion", "fp32")])  # exclude cold-start from timing
    return engine


def test_dynamic_batching_doubles_throughput(workload):
    pipeline = _tiny_text_pipeline()

    sequential_clock = VirtualClock()
    sequential = _make_engine(pipeline, sequential_clock)
    sequential_responses = sequential.serve_sequential(list(workload))
    sequential_report = sequential.stats.report()

    batched_clock = VirtualClock()
    batched = _make_engine(pipeline, batched_clock)
    batched.serve(list(workload))
    batched.stats.to_json(RESULTS_DIR / "serving_stats.json")
    batched_report = batched.stats.report()

    assert len(sequential_responses) == NUM_REQUESTS
    assert sequential_report["requests"]["completed"] == NUM_REQUESTS
    assert batched_report["requests"]["completed"] == NUM_REQUESTS

    # ------------------------------------------------------------------
    # the headline claim: >= 2x throughput from dynamic batching, now an
    # exact deterministic function of the batching policy under the
    # virtual cost model (pass overhead amortized across the batch)
    # ------------------------------------------------------------------
    speedup = (batched_report["throughput_rps"]
               / sequential_report["throughput_rps"])
    assert speedup >= 2.0, (
        f"dynamic batching speedup {speedup:.2f}x < 2x "
        f"(sequential {sequential_report['throughput_rps']:.1f} rps, "
        f"batched {batched_report['throughput_rps']:.1f} rps)")

    # the virtual wall times are exact: one pass per request sequentially,
    # one pass per formed batch when batching
    expected_sequential = NUM_REQUESTS * (PASS_COST + IMAGE_COST)
    assert sequential_report["wall_time_s"] == pytest.approx(expected_sequential)
    num_batches = batched_report["batch"]["count"]
    expected_batched = (num_batches * PASS_COST
                        + NUM_REQUESTS * IMAGE_COST)
    assert batched_report["wall_time_s"] == pytest.approx(expected_batched)

    # batching actually formed multi-request batches
    assert batched_report["batch"]["mean_size"] > 1.5
    assert sequential_report["batch"]["mean_size"] == 1.0
    # popular prompts hit the embedding cache
    assert batched_report["components"]["embedding_cache"]["hit_rate"] > 0.0

    # ------------------------------------------------------------------
    # the stats report records everything the acceptance criteria name
    # ------------------------------------------------------------------
    for block in ("queue_wait_s", "latency_s"):
        assert set(batched_report[block]) == {"mean", "p50", "p95", "max"}
    assert batched_report["batch"]["size_histogram"]
    assert 0.0 <= batched_report["components"]["embedding_cache"]["hit_rate"] <= 1.0

    RESULTS_DIR.mkdir(exist_ok=True)
    comparison = {
        "num_requests": NUM_REQUESTS,
        "num_steps": NUM_STEPS,
        "max_batch_size": MAX_BATCH,
        "virtual_pass_cost_s": PASS_COST,
        "virtual_image_cost_s": IMAGE_COST,
        "sequential_throughput_rps": sequential_report["throughput_rps"],
        "batched_throughput_rps": batched_report["throughput_rps"],
        "speedup": speedup,
        "batched_mean_batch_size": batched_report["batch"]["mean_size"],
        "embedding_cache_hit_rate":
            batched_report["components"]["embedding_cache"]["hit_rate"],
    }
    (RESULTS_DIR / "serving_throughput.json").write_text(
        json.dumps(comparison, indent=2, sort_keys=True) + "\n")

    # the JSON stats report written by the benchmark is well-formed
    saved = json.loads((RESULTS_DIR / "serving_stats.json").read_text())
    assert saved["requests"]["completed"] == NUM_REQUESTS


def test_served_images_match_between_arms(workload):
    """Batched serving returns the same images as per-request serving."""
    pipeline = _tiny_text_pipeline()
    sequential = _make_engine(pipeline, VirtualClock())
    batched = _make_engine(pipeline, VirtualClock())
    seq_images = {r.request_id: r.image
                  for r in sequential.serve_sequential(list(workload))}
    for response in batched.serve(list(workload)):
        np.testing.assert_allclose(response.image,
                                   seq_images[response.request_id],
                                   atol=1e-3, rtol=1e-3)
