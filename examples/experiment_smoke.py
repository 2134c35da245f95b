"""Experiment-run API smoke: run a tiny spec twice, prove the cache works.

Used by the CI ``smoke`` job (and runnable locally):

    PYTHONPATH=src python examples/experiment_smoke.py

The first run executes the full stage graph cold; the second must be at
least 90% cache hits with bit-identical metrics.  The second run's manifest
is written to ``benchmarks/results/experiment_manifest.json`` and uploaded
as a CI build artifact.
"""

import sys
import tempfile
from pathlib import Path

from repro.experiments import BenchSettings, ExperimentSpec, RunStore, run_experiment
from repro.zoo import PretrainConfig

RESULTS_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "results"


def tiny_spec() -> ExperimentSpec:
    return ExperimentSpec.from_labels(
        "ddim-cifar10",
        ["FP32/FP32", "INT8/INT8", "FP8/FP8", "FP4/FP8"],
        BenchSettings(
            num_images=6, num_steps=3, seed=2024, batch_size=6,
            num_bias_candidates=7, rounding_iterations=5,
            calibration_samples=2, calibration_records_per_layer=3,
            pretrain=PretrainConfig(dataset_size=16, autoencoder_steps=4,
                                    denoiser_steps=8)),
        name="experiment-smoke")


def metrics_of(table):
    return {(row.label, name): (result.fid, result.sfid,
                                result.precision, result.recall)
            for row in table.rows for name, result in row.metrics.items()}


def main() -> int:
    spec = tiny_spec()
    store = RunStore(Path(tempfile.mkdtemp(prefix="experiment-smoke-")) / "store")
    print(f"spec fingerprint: {spec.fingerprint()}  store: {store.root}")

    cold = run_experiment(spec, store=store, max_workers=2)
    print(f"cold run : {cold.manifest.total_duration_s:6.1f}s  "
          f"hit rate {cold.manifest.hit_rate:5.1%}  "
          f"stages {cold.manifest.kind_counts()}")

    warm = run_experiment(spec, store=store, max_workers=2)
    print(f"warm run : {warm.manifest.total_duration_s:6.1f}s  "
          f"hit rate {warm.manifest.hit_rate:5.1%}")
    print(warm.table.format_table())

    assert warm.manifest.hit_rate >= 0.9, (
        f"second run hit rate {warm.manifest.hit_rate:.1%} < 90%")
    assert metrics_of(cold.table) == metrics_of(warm.table), (
        "metrics changed between identical runs")
    # the stage graph dedupes the shared work: one pretrain, one
    # calibration-data collection, one FP32 generation for all rows
    kinds = warm.manifest.kind_counts()
    assert kinds["pretrain"] == 1 and kinds["calibration"] == 1
    for stage in warm.manifest.stages:
        assert stage.key and stage.kind, stage.stage_id
        assert stage.artifact_path, stage.stage_id

    manifest_path = warm.manifest.save(RESULTS_DIR / "experiment_manifest.json")
    print(f"OK: second run {warm.manifest.hit_rate:.0%} cache hits, "
          f"metrics bit-identical; manifest -> {manifest_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
