"""Figure 5: peak inference memory versus batch size.

The paper measures 8.37 GB of VRAM for batch size 1 and up to 54.9 GB for
batch size 16 on an A100, dominated by the attention score tensors, and notes
that FP8/FP4 quantization would shrink the requirement by 4x/8x.

The reproduction estimates the same series analytically at the paper-scale
U-Net configuration, and measures the bytes the weight-quantized variants of
a zoo model really hold next to the analytic weight estimate.
"""

from conftest import BENCH_SETTINGS, write_result

from repro.core import QuantizationConfig, quantize_pipeline, resident_nbytes
from repro.experiments.harness import load_benchmark_pipeline
from repro.profiling import (
    BYTES_FP8,
    estimate_peak_memory,
    memory_vs_batch_size,
    paper_scale_stable_diffusion_config,
    scheme_bytes_per_element,
)

BATCH_SIZES = (1, 2, 4, 8, 16)


def test_fig5_memory_vs_batch_size(benchmark):
    config = paper_scale_stable_diffusion_config()
    estimates = benchmark.pedantic(
        lambda: memory_vs_batch_size(config, 64, BATCH_SIZES, context_tokens=77),
        rounds=1, iterations=1)

    lines = ["Figure 5: estimated peak inference memory (GiB) vs batch size",
             f"{'batch':>5} {'FP32':>8} {'FP8':>8}  peak layer"]
    for batch in BATCH_SIZES:
        fp32 = estimates[batch]
        fp8 = estimate_peak_memory(config, 64, batch,
                                   weight_bytes_per_element=BYTES_FP8,
                                   activation_bytes_per_element=BYTES_FP8,
                                   context_tokens=77)
        lines.append(f"{batch:>5} {fp32.total_gib:>8.1f} {fp8.total_gib:>8.1f}  "
                     f"{fp32.peak_layer_name}")
    text = "\n".join(lines)
    write_result("fig5_memory", text)
    print("\n" + text)

    totals = [estimates[b].total_bytes for b in BATCH_SIZES]
    # Memory grows steeply (super-linearly relative to the batch-1 baseline is
    # not required, but strict monotonic growth is).
    assert all(later > earlier for earlier, later in zip(totals, totals[1:]))
    # Batch 16 should require tens of GiB at paper scale (paper: ~55 GB).
    assert estimates[16].total_gib > 10.0
    # The peak layer at large batch is an attention score tensor.
    assert "attention" in estimates[16].peak_layer_name
    # FP8 storage cuts the estimate by ~4x.
    fp8_16 = estimate_peak_memory(config, 64, 16,
                                  weight_bytes_per_element=BYTES_FP8,
                                  activation_bytes_per_element=BYTES_FP8,
                                  context_tokens=77)
    ratio = estimates[16].total_bytes / fp8_16.total_bytes
    assert 3.5 < ratio < 4.5


MEASURED_MODEL = "ddim-cifar10"
MEASURED_SCHEMES = ("fp32", "fp8", "fp4", "int8", "int4")


def test_fig5_measured_variant_bytes(benchmark):
    pipeline = load_benchmark_pipeline(MEASURED_MODEL, BENCH_SETTINGS)
    spec = pipeline.model.spec

    def measure():
        measured = {}
        for scheme in MEASURED_SCHEMES:
            # Weight-only: activations stay FP32, so no calibration runs.
            config = BENCH_SETTINGS.scale_config(QuantizationConfig(
                weight_dtype=scheme, activation_dtype="fp32"))
            variant, _report = quantize_pipeline(pipeline, config)
            measured[scheme] = resident_nbytes(variant.model.unet)
        return measured

    measured = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = [f"Measured resident U-Net bytes of the {MEASURED_MODEL} zoo model's "
             "weight-quantized variants vs the analytic weight estimate (KiB)",
             f"{'scheme':>6} {'measured':>9} {'estimate':>9} {'vs FP32':>8}"]
    for scheme in MEASURED_SCHEMES:
        estimate = estimate_peak_memory(
            spec.unet, spec.sample_shape[-1], 1,
            weight_bytes_per_element=scheme_bytes_per_element(scheme)).weight_bytes
        lines.append(f"{scheme:>6} {measured[scheme] / 1024:>9.1f} "
                     f"{estimate / 1024:>9.1f} "
                     f"{measured[scheme] / measured['fp32']:>8.3f}")
    text = "\n".join(lines)
    write_result("fig5_measured_bytes", text)
    print("\n" + text)

    # Packed integer variants hold their levels, not a float copy; FP8
    # weights (levels past 8 bits) keep their float32 simulation.
    assert measured["int8"] <= 0.30 * measured["fp32"]
    assert measured["int4"] <= 0.17 * measured["fp32"]
    assert measured["fp4"] <= 0.30 * measured["fp32"]
    assert measured["fp8"] <= measured["fp32"]
