"""End-to-end telemetry smoke: one trace spanning runner, serving, cluster.

Drives the three instrumented layers against ONE shared tracer — a tiny
cached experiment through the :class:`~repro.experiments.Runner`, a
burst of requests through a single :class:`~repro.serving.ServingEngine`,
and a fleet simulation on the virtual clock — then runs the roofline
cost-model calibration loop and writes:

* ``telemetry_trace.json``     — Chrome trace-event JSON; open it in
  ui.perfetto.dev to see runner stages, per-request serving segments and
  per-replica cluster lanes side by side.  Every ``batch.execute`` span
  carries ``predicted_s``, the router's price of the batch's routed plan.
* ``calibration_report.json``  — predicted-vs-measured sampler latency
  per (workload, scheme), with the fitted cost-model scale.
* ``metrics_snapshot.json``    — serving counters/histograms snapshot.

    PYTHONPATH=src python examples/telemetry_smoke.py
    PYTHONPATH=src python examples/telemetry_smoke.py --out-dir artifacts
"""

import argparse
import copy
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro import schemas
from repro.diffusion import DiffusionPipeline, GenerationPlan
from repro.experiments import BenchSettings, ExperimentSpec, RunStore, \
    run_experiment
from repro.models import DiffusionModel, ModelSpec, UNetConfig
from repro.obs import MetricsRegistry, Tracer, run_cost_model_calibration, \
    validate_chrome_trace
from repro.serving import (
    EngineConfig,
    ModelVariantPool,
    ServingEngine,
    SLORouter,
    WorkloadConfig,
    generate_workload,
)
from repro.serving.cluster import ClusterConfig, ClusterSimulation, \
    TraceConfig, generate_trace
from repro.zoo import PretrainConfig


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default=".", type=Path)
    parser.add_argument("--cluster-requests", type=int, default=2000)
    parser.add_argument("--serving-requests", type=int, default=12)
    return parser.parse_args()


def tiny_experiment_spec() -> ExperimentSpec:
    settings = BenchSettings(
        num_images=4, num_steps=2, seed=5, batch_size=4,
        num_bias_candidates=5, rounding_iterations=3,
        calibration_samples=2, calibration_records_per_layer=2,
        pretrain=PretrainConfig(dataset_size=8, autoencoder_steps=2,
                                denoiser_steps=4))
    return ExperimentSpec.from_labels("ddim-cifar10", ("FP32/FP32",),
                                      settings)


def serving_model() -> DiffusionPipeline:
    spec = ModelSpec(
        name="stable-diffusion", task="text-to-image", image_size=8,
        image_channels=3, latent=False, latent_channels=4,
        latent_downsample=4,
        unet=UNetConfig(in_channels=3, out_channels=3, base_channels=8,
                        channel_multipliers=(1, 2), num_res_blocks=1,
                        attention_levels=(1,), num_heads=2, context_dim=16),
        text_embed_dim=16, train_timesteps=8, default_sampling_steps=4,
        seed=3)
    model = DiffusionModel(spec, rng=np.random.default_rng(23))
    return DiffusionPipeline(model, num_steps=4)


def main():
    args = parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    metrics = MetricsRegistry()

    # 1. Experiment runner: one span per stage on the "runner" process.
    print("runner: tiny FP32 experiment through the cached runner ...")
    with tempfile.TemporaryDirectory() as tmp:
        run = run_experiment(tiny_experiment_spec(),
                             store=RunStore(Path(tmp) / "store"),
                             zoo_cache_dir=Path(tmp) / "zoo", tracer=tracer)
    print(f"  {len(run.manifest.stages)} stages, "
          f"hit rate {run.manifest.hit_rate:.2f}")

    # 2. Single serving engine: queue/batch/embed/execute segments plus an
    #    async span per request, on the "serving" process.
    print("serving: one engine, bursty text-to-image workload ...")
    pipeline = serving_model()
    requests = generate_workload(WorkloadConfig(
        num_requests=args.serving_requests, models=("stable-diffusion",),
        num_steps=4, prompt_pool_size=4, popularity_skew=1.2,
        slo_tiers=(None,), seed=77))
    pool = ModelVariantPool(builder=lambda _model, _scheme: pipeline)
    engine = ServingEngine(pool, router=SLORouter(),
                           config=EngineConfig(max_batch_size=8),
                           tracer=tracer, trace_lane="engine-0",
                           metrics=metrics)
    pool.prewarm([("stable-diffusion", "fp32")])
    responses = engine.serve([copy.copy(r) for r in requests])
    print(f"  {len(responses)} responses")

    # 3. Cluster simulation: per-replica lanes, admission rejections and
    #    autoscaler decisions on the "cluster" process (virtual time — the
    #    tracer's own clock is never read here).
    print(f"cluster: {args.cluster_requests}-request fleet simulation ...")
    trace = generate_trace(TraceConfig(num_requests=args.cluster_requests,
                                       seed=13))
    report = ClusterSimulation(
        ClusterConfig(initial_replicas=3, policy="affinity"),
        tracer=tracer).run(trace)
    print(f"  admitted {report['requests']['admitted']}"
          f"/{report['requests']['offered']}")

    # 4. Roofline calibration: predicted vs measured sampler-loop latency,
    #    on the harness's default workloads (spelled out so each cell's
    #    plan is known).
    print("calibration: roofline cost model vs measured sampler loops ...")
    plans = {"sampler_loop.ddim": GenerationPlan(sampler="ddim", num_steps=4),
             "sampler_loop.dpm2": GenerationPlan(sampler="dpm2", num_steps=4)}
    calibration = run_cost_model_calibration(schemes=("fp32", "int8"),
                                             workloads=plans, repeats=2,
                                             tracer=tracer)
    document = calibration.to_dict()
    schemas.validate_document(document, expect=schemas.OBS_CALIBRATION)
    summary = document["summary"]
    print(f"  {summary['num_cells']} cells, median abs error "
          f"{summary['median_abs_error_pct']:.1f}% "
          f"(scale {document['fitted_scale']:.2f})")

    trace_path = args.out_dir / "telemetry_trace.json"
    document = tracer.to_chrome_trace()
    validate_chrome_trace(document)
    tracer.save(trace_path)
    calibration.save(args.out_dir / "calibration_report.json")
    (args.out_dir / "metrics_snapshot.json").write_text(
        json.dumps(metrics.snapshot(), indent=2, sort_keys=True))

    # Checked after the artifacts are written, so a failing run still
    # leaves them behind for inspection.
    processes = {event["pid"]: event["args"]["name"]
                 for event in document["traceEvents"]
                 if event["ph"] == "M" and event["name"] == "process_name"}
    assert {"runner", "serving", "cluster"} <= set(processes.values()), \
        processes
    for process in ("serving", "cluster"):
        executes = [event for event in document["traceEvents"]
                    if event["ph"] == "X" and event["name"] == "batch.execute"
                    and processes[event["pid"]] == process]
        unpriced = [event for event in executes
                    if not event["args"].get("predicted_s", 0.0) > 0.0]
        assert executes and not unpriced, (process, unpriced[:3])
    assert summary["num_cells"] >= 4, summary
    assert summary["median_abs_error_pct"] < 50.0, summary
    # The calibration fixture samples 4 steps of an 8-step training grid.
    for cell in calibration.cells:
        assert cell["model_evals"] == \
            plans[cell["workload"]].model_evals(4, 8), cell

    lanes = sorted({event.get("pid") for event in document["traceEvents"]})
    print(f"\ntrace: {len(document['traceEvents'])} events across "
          f"{len(lanes)} processes -> {trace_path}")
    print(f"calibration report -> {args.out_dir / 'calibration_report.json'}")
    print(f"metrics snapshot   -> {args.out_dir / 'metrics_snapshot.json'}")
    print("open the trace in ui.perfetto.dev")
    return 0


if __name__ == "__main__":
    sys.exit(main())
