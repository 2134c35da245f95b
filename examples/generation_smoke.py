"""Generation-API smoke: a sampler x guidance matrix through the experiment
runner AND the serving engine.

Used by the CI ``smoke`` job (and runnable locally):

    PYTHONPATH=src python examples/generation_smoke.py

Part 1 runs a tiny text-to-image spec whose rows sweep generation plans
(DDIM, DPM-Solver-2, classifier-free guidance) over one quantization config
and writes the run manifest to
``benchmarks/results/generation_manifest.json``.

Part 2 drives the same plan matrix through the serving engine — including
tight-SLO requests that force the two-dimensional router to *reduce the step
budget* — and writes the per-plan stats report to
``benchmarks/results/generation_serving_stats.json``.  Both files are
uploaded as CI artifacts.
"""

import sys
import tempfile
from pathlib import Path

from repro.diffusion import GenerationPlan
from repro.experiments import (
    BenchSettings,
    ExperimentSpec,
    RowSpec,
    RunStore,
    run_experiment,
)
from repro.profiling import paper_scale_stable_diffusion_config, unet_layer_costs
from repro.serving import (
    EngineConfig,
    ModelVariantPool,
    Request,
    ServingEngine,
    SLORouter,
)
from repro.zoo import PretrainConfig

RESULTS_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "results"

MODEL = "stable-diffusion"
STEPS = 3

#: The sampler x guidance matrix both halves of the smoke exercise.
PLAN_MATRIX = (
    GenerationPlan(num_steps=STEPS),
    GenerationPlan(sampler="dpm2", num_steps=STEPS),
    GenerationPlan(num_steps=STEPS, guidance_scale=2.0),
    GenerationPlan(sampler="dpm2", num_steps=STEPS, guidance_scale=2.0),
)


def tiny_settings() -> BenchSettings:
    return BenchSettings(
        num_images=4, num_steps=STEPS, seed=2026, batch_size=4,
        num_bias_candidates=5, rounding_iterations=3,
        calibration_samples=2, calibration_records_per_layer=3,
        pretrain=PretrainConfig(dataset_size=16, autoencoder_steps=4,
                                denoiser_steps=8))


def run_experiment_matrix(store: RunStore):
    spec = ExperimentSpec(
        model=MODEL,
        rows=[RowSpec(preset="FP8/FP8", plan=plan) for plan in PLAN_MATRIX],
        settings=tiny_settings(), references=("full-precision generated",),
        with_clip=False, name="generation-smoke")
    run = run_experiment(spec, store=store, max_workers=2)
    print(run.table.format_table())
    kinds = run.manifest.kind_counts()
    assert kinds["quantize"] == 1, kinds       # matrix shares one quantize
    assert kinds["generate"] == len(PLAN_MATRIX) + 1, kinds  # rows + FP ref
    generate_keys = {stage.key for stage in run.manifest.stages
                     if stage.kind == "generate"}
    assert len(generate_keys) == kinds["generate"], generate_keys
    manifest_path = run.manifest.save(RESULTS_DIR / "generation_manifest.json")
    print(f"experiment matrix OK ({len(PLAN_MATRIX)} plan rows) -> "
          f"{manifest_path}")
    return run


def run_serving_matrix(store: RunStore):
    costs = unet_layer_costs(paper_scale_stable_diffusion_config(), 64)
    router = SLORouter(costs_fn=lambda model: costs)
    pool = ModelVariantPool(run_store=store,
                            pretrain=tiny_settings().pretrain)
    engine = ServingEngine(pool, router=router,
                           config=EngineConfig(max_batch_size=4))

    requests = []
    for index in range(16):
        plan = PLAN_MATRIX[index % len(PLAN_MATRIX)]
        slo = None
        if index % 4 == 3:
            # an SLO below every scheme at the full budget: the router must
            # trade steps, not just precision
            slo = 0.9 * min(router.predictions(MODEL, STEPS).values())
        requests.append(Request(model=MODEL, prompt=f"a red circle {index % 3}",
                                plan=plan, latency_slo=slo, seed=index))
    responses = engine.serve(requests)
    assert len(responses) == len(requests)

    reduced = [r for r in responses if r.plan.num_steps < STEPS]
    assert reduced, "tight-SLO requests should be served with reduced steps"
    report = engine.stats.report()
    assert len(report["plans"]) >= len(PLAN_MATRIX), sorted(report["plans"])
    for label, block in report["plans"].items():
        assert block["count"] > 0, label
        assert set(block["latency_s"]) == {"mean", "p50", "p95", "max"}, label
        assert sum(block["by_scheme"].values()) == block["count"], label
    stats_path = RESULTS_DIR / "generation_serving_stats.json"
    engine.stats.to_json(stats_path)
    print(f"serving matrix OK: {len(report['plans'])} routed plans, "
          f"{len(reduced)} step-reduced responses under tight SLOs -> "
          f"{stats_path}")
    return report


def main() -> int:
    store = RunStore(Path(tempfile.mkdtemp(prefix="generation-smoke-")) / "store")
    run_experiment_matrix(store)
    run_serving_matrix(store)
    print("generation smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
