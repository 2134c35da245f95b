"""Example server loop: SLO-routed, dynamically batched serving over the zoo.

Builds a real serving stack — zoo checkpoint, quantized variant pool with a
memory budget, SLO router, embedding cache — then drives it two ways:

1. a *live* loop that submits traffic in small waves and calls
   ``engine.pump()`` between waves (partial batches close when they fill or
   age past ``max_wait``), and
2. a final drain with ``run_until_idle()``.

Prints the JSON stats report (queue wait, batch sizes, cache hit rates,
p50/p95 latency, throughput, per-scheme request counts) at the end.

Run with: ``PYTHONPATH=src python examples/serving_demo.py``
"""

import time

from repro.experiments import RunStore
from repro.profiling import paper_scale_stable_diffusion_config, unet_layer_costs
from repro.serving import (
    EngineConfig,
    ModelVariantPool,
    ServingEngine,
    SLORouter,
    WorkloadConfig,
    generate_workload,
)
from repro.zoo import PretrainConfig


def main():
    # Route with paper-scale layer costs: the stand-in models are so small
    # that launch overhead would flatten the per-scheme latency spread.
    paper_costs = unet_layer_costs(paper_scale_stable_diffusion_config(), 64)
    router = SLORouter(costs_fn=lambda model: paper_costs)

    # Variant pool over the zoo checkpoint, charged with the bytes each
    # variant measurably holds (FP32 and FP8 ~1.5 MB here, FP4 ~0.7 MB), and
    # a budget of about two FP32 variants: serving all three schemes
    # evicts the least recently used one.  Backing
    # the pool with the experiments' RunStore means every quantized variant
    # is loaded from the content-addressed artifact store when available
    # (and left there for the next process when not).
    pool = ModelVariantPool(
        memory_budget_bytes=3e6,
        pretrain=PretrainConfig(dataset_size=32, autoencoder_steps=10,
                                denoiser_steps=20),
        run_store=RunStore(),
    )
    engine = ServingEngine(pool, router=router,
                           config=EngineConfig(max_batch_size=8, max_wait=0.05))

    # Pre-build the variants the workload will route to before traffic
    # arrives; on a second run these are pure artifact loads.
    prewarm = pool.prewarm([("stable-diffusion", "fp8"),
                            ("stable-diffusion", "fp4")])
    print(f"prewarmed {prewarm['prewarmed']} in {prewarm['duration_s']:.1f}s "
          f"(store loads: {prewarm['store_loads']}, "
          f"cold builds: {prewarm['cold_builds']})")

    workload = generate_workload(
        WorkloadConfig(num_requests=32, models=("stable-diffusion",),
                       num_steps=6, prompt_pool_size=6, popularity_skew=1.3,
                       slo_tiers=("loose", "medium", "tight", None), seed=0),
        router=router)

    print(f"serving {len(workload)} requests in waves of 8 ...")
    started = time.perf_counter()
    served = 0
    for wave_start in range(0, len(workload), 8):
        for request in workload[wave_start:wave_start + 8]:
            engine.submit(request)
        served += len(engine.pump())        # close full/aged batches
        time.sleep(0.01)                    # traffic gap
    served += len(engine.run_until_idle())  # drain what's left
    elapsed = time.perf_counter() - started

    print(f"served {served} requests in {elapsed:.2f}s")
    print(engine.stats.to_json())


if __name__ == "__main__":
    main()
