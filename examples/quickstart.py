"""Quickstart: quantize a diffusion model to FP8 and compare against FP32.

This walks the core workflow of the paper in a few lines:

1. load a "pre-trained" diffusion model from the zoo (a scaled-down DDIM
   trained on the CIFAR-10 stand-in dataset),
2. generate a reference image set with the full-precision model,
3. post-training-quantize weights and activations to FP8 with the per-tensor
   format/bias search (Algorithm 1),
4. generate the same images (same seed, same starting noise) with the
   quantized model and score them with FID / sFID / Precision / Recall.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.core import fp8_fp8_config, measure_weight_sparsity, quantize_pipeline
from repro.diffusion import DiffusionPipeline
from repro.metrics import evaluate_images
from repro.zoo import PretrainConfig, load_pretrained


def main() -> None:
    # A small training budget keeps this example fast; the checkpoint is
    # cached on disk, so subsequent runs skip straight to quantization.
    print("loading pre-trained ddim-cifar10 (training on first run)...")
    model = load_pretrained("ddim-cifar10", PretrainConfig(dataset_size=96,
                                                           denoiser_steps=80))
    pipeline = DiffusionPipeline(model, num_steps=10)

    print("generating full-precision reference images...")
    reference = pipeline.generate(num_images=16, seed=0, batch_size=8)

    print("quantizing to FP8 weights / FP8 activations...")
    config = fp8_fp8_config().scaled_for_speed(num_bias_candidates=21)
    quantized_pipeline, report = quantize_pipeline(pipeline, config)
    print(report.summary())

    print("generating images with the quantized model (same seed)...")
    generated = quantized_pipeline.generate(num_images=16, seed=0, batch_size=8)

    drift = float(np.mean((generated - reference) ** 2))
    metrics = evaluate_images(generated, reference)
    sparsity_before = measure_weight_sparsity(pipeline.model)
    sparsity_after = measure_weight_sparsity(quantized_pipeline.model)

    print("\n=== FP8/FP8 vs full-precision (same starting noise) ===")
    print(f"pixel MSE drift          : {drift:.2e}")
    print(f"FID  (vs FP32 outputs)   : {metrics.fid:.4f}")
    print(f"sFID (vs FP32 outputs)   : {metrics.sfid:.4f}")
    print(f"precision / recall       : {metrics.precision:.3f} / {metrics.recall:.3f}")
    print(f"weight sparsity          : {sparsity_before.percent:.3f}% -> "
          f"{sparsity_after.percent:.3f}%")
    print("\nPer-layer schemes and formats chosen by the search (first 5 layers):")
    for record in report.layers[:5]:
        print(f"  {record.path:<40} [{record.weight_scheme}] "
              f"W={record.weight_format:<24} A={record.activation_format}")

    # Reports are serializable: save the experiment for diffing/replaying.
    # (See examples/mixed_precision_policy.py for per-layer scheme policies.)
    with open("quickstart_report.json", "w") as handle:
        handle.write(report.to_json(indent=2))
    print("\nfull report saved to quickstart_report.json")


if __name__ == "__main__":
    main()
