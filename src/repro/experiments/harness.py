"""Benchmark-harness helpers that sit above the declarative run API.

The classic one-shot shims (``run_quantization_table``,
``run_config_experiment``, ``run_experiment_spec``) are gone: every
caller now builds an :class:`~repro.experiments.spec.ExperimentSpec` —
``ExperimentSpec.from_labels`` for paper-table rows, explicit
:class:`~repro.experiments.spec.RowSpec` objects for custom configs —
and executes it with :func:`repro.experiments.runner.run_experiment`,
which defaults to the shared process-wide store
(:func:`repro.experiments.runner.default_run_store`).  The consequences
the shims existed to provide are now properties of the core path:

* calibration data is collected once per model and shared across rows,
* the FP32 reference generation is computed once per (model, seed,
  steps) — even across separate calls and processes,
* repeating a run with identical settings is almost entirely cache hits,
* every result carries the run manifest (``table.manifest``).

What remains here are the pieces with no declarative equivalent: loading
a bench-scaled pipeline outside any stage graph, and the weight-sparsity
experiment (Figure 11), which quantizes weights without calibration or
generation and therefore never touches the store.
"""

from __future__ import annotations

from typing import Dict

from ..core import QuantizationConfig, measure_weight_sparsity, quantize_pipeline
from ..diffusion import DiffusionPipeline
from ..zoo import load_pretrained
from .spec import DEFAULT_BENCH_SETTINGS, BenchSettings
from .stages import _dataset_reference  # noqa: F401  (re-exported for tests)


def load_benchmark_pipeline(model_name: str,
                            settings: BenchSettings = DEFAULT_BENCH_SETTINGS
                            ) -> DiffusionPipeline:
    """Load the cached pre-trained model and wrap it in a bench pipeline."""
    model = load_pretrained(model_name, settings.pretrain)
    return DiffusionPipeline(model, num_steps=settings.num_steps)


def run_sparsity_experiment(model_name: str,
                            settings: BenchSettings = DEFAULT_BENCH_SETTINGS
                            ) -> Dict[str, float]:
    """Reproduce one model's bars of Figure 11: weight sparsity percentages."""
    pipeline = load_benchmark_pipeline(model_name, settings)
    results: Dict[str, float] = {}
    # Sparsity is a property of the quantized *weights*, so activations are
    # left in FP32 here; this avoids needing calibration data and keeps the
    # experiment weight-only, exactly what Figure 11 measures.
    fp8_weights = settings.scale_config(QuantizationConfig(
        weight_dtype="fp8", activation_dtype="fp32"))
    fp4_weights = settings.scale_config(QuantizationConfig(
        weight_dtype="fp4", activation_dtype="fp32", rounding_learning=False))
    fp8_pipe, _ = quantize_pipeline(pipeline, fp8_weights)
    fp4_pipe, _ = quantize_pipeline(pipeline, fp4_weights)
    results["FP32"] = measure_weight_sparsity(pipeline.model).percent
    results["FP8"] = measure_weight_sparsity(fp8_pipe.model).percent
    results["FP4"] = measure_weight_sparsity(fp4_pipe.model).percent
    return results
