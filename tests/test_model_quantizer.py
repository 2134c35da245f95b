"""Tests for the end-to-end model quantization orchestration and sparsity."""

import numpy as np
import pytest

from repro.core import (
    PAPER_CONFIGS,
    CalibrationConfig,
    QuantizationConfig,
    QuantizedConv2d,
    QuantizedLinear,
    QuantizedSkipConcat,
    fp4_fp8_config,
    fp8_fp8_config,
    full_precision_config,
    int8_int8_config,
    measure_weight_sparsity,
    quantizable_layer_paths,
    quantize_pipeline,
    sparsity_increase,
    tensor_sparsity,
)
from repro.core.fp import quantize_fp
from repro.core.qmodules import PackedIntWeight
from repro.core.rounding import RoundingLearningConfig
from repro.core.schemes import FPSearchScheme


def fast_config(config: QuantizationConfig) -> QuantizationConfig:
    """Shrink a preset so unit tests stay fast."""
    config = config.scaled_for_speed(num_bias_candidates=7, rounding_iterations=5)
    config.calibration = CalibrationConfig(num_samples=2, max_records_per_layer=2,
                                           batch_size=2)
    config.rounding = RoundingLearningConfig(iterations=5, samples_per_iteration=2)
    return config


class TestQuantizationConfig:
    def test_labels_match_paper_rows(self):
        assert fp8_fp8_config().label == "FP8/FP8"
        assert int8_int8_config().label == "INT8/INT8"
        assert fp4_fp8_config(rounding_learning=False).label == "FP4/FP8 (no RL)"
        assert full_precision_config().label == "FP32/FP32"

    def test_invalid_dtype_rejected_at_use(self, tiny_pipeline):
        config = QuantizationConfig(weight_dtype="fp16", activation_dtype="fp8")
        with pytest.raises(ValueError):
            quantize_pipeline(tiny_pipeline, config)

    def test_paper_configs_cover_all_rows(self):
        assert set(PAPER_CONFIGS) == {"FP32/FP32", "INT8/INT8", "FP8/FP8",
                                      "INT4/INT8", "FP4/FP8", "FP4/FP8 (no RL)"}

    def test_scaled_for_speed_reduces_search(self):
        config = fp4_fp8_config().scaled_for_speed(num_bias_candidates=5,
                                                   rounding_iterations=3)
        assert config.num_bias_candidates == 5
        assert config.rounding.iterations == 3


class TestQuantizePipeline:
    def test_full_precision_config_returns_distinct_pipeline(self, tiny_pipeline):
        quantized, report = quantize_pipeline(tiny_pipeline, full_precision_config())
        # A distinct pipeline and model: mutating the result can never
        # corrupt the caller's full-precision baseline.
        assert quantized is not tiny_pipeline
        assert quantized.model is not tiny_pipeline.model
        assert report.num_quantized_layers == 0
        # ... but it is functionally identical (no layer was touched).
        types = {path: type(module) for path, module
                 in quantizable_layer_paths(quantized.model.unet)}
        original = {path: type(module) for path, module
                    in quantizable_layer_paths(tiny_pipeline.model.unet)}
        assert types == original
        reference = tiny_pipeline.generate(2, seed=0, batch_size=2)
        clone_images = quantized.generate(2, seed=0, batch_size=2)
        assert np.allclose(reference, clone_images)

    def test_fp8_replaces_all_layers_and_preserves_original(self, tiny_pipeline):
        original_types = {path: type(module) for path, module
                          in quantizable_layer_paths(tiny_pipeline.model.unet)}
        quantized, report = quantize_pipeline(tiny_pipeline,
                                              fast_config(fp8_fp8_config()))
        # Original pipeline untouched.
        after = {path: type(module) for path, module
                 in quantizable_layer_paths(tiny_pipeline.model.unet)}
        assert original_types == after
        # Every Conv2d/Linear replaced in the clone.
        wrapped = [m for m in quantized.model.unet.modules()
                   if isinstance(m, (QuantizedConv2d, QuantizedLinear))]
        assert len(wrapped) == len(original_types)
        assert report.num_quantized_layers == len(original_types)
        # Skip concats replaced too.
        skips = [m for m in quantized.model.unet.modules()
                 if isinstance(m, QuantizedSkipConcat)]
        assert len(skips) == len(report.skip_concats) > 0

    def test_report_records_formats_and_mse(self, tiny_pipeline):
        _, report = quantize_pipeline(tiny_pipeline, fast_config(fp8_fp8_config()))
        assert all(record.weight_format.startswith("FP8") for record in report.layers)
        assert all(record.weight_mse >= 0.0 for record in report.layers)
        assert report.mean_weight_mse() > 0.0
        assert "FP8/FP8" in report.summary()

    def test_int8_uses_int_formats(self, tiny_pipeline):
        _, report = quantize_pipeline(tiny_pipeline, fast_config(int8_int8_config()))
        assert all(record.weight_format == "INT8" for record in report.layers)
        assert all(record.activation_format.startswith("INT8")
                   for record in report.layers)

    def test_weight_only_quantization_keeps_activations_fp32(self, tiny_pipeline):
        config = fast_config(QuantizationConfig(weight_dtype="fp8",
                                                activation_dtype="fp32"))
        quantized, report = quantize_pipeline(tiny_pipeline, config)
        assert all(record.activation_format == "FP32" for record in report.layers)
        # No skip concat quantization when activations stay FP32.
        assert report.skip_concats == []

    def test_rounding_learning_flag_recorded(self, tiny_pipeline):
        config = fast_config(fp4_fp8_config(rounding_learning=True))
        _, report = quantize_pipeline(tiny_pipeline, config)
        assert any(record.rounding_learning_used for record in report.layers)
        config_no = fast_config(fp4_fp8_config(rounding_learning=False))
        _, report_no = quantize_pipeline(tiny_pipeline, config_no)
        assert not any(record.rounding_learning_used for record in report_no.layers)

    def test_fp4_packs_the_learned_rounding(self, tiny_pipeline, monkeypatch):
        # The packed weight is the one the layer serves: with rounding
        # learning that is the learned rounding, not round-to-nearest.
        served = {}
        quantize_weights = FPSearchScheme.quantize_weights

        def recording(self, layer, config, calibration, path, record):
            quantized, quantizer = quantize_weights(self, layer, config,
                                                    calibration, path, record)
            served[path] = (quantized, quantizer.fmt, record)
            return quantized, quantizer

        monkeypatch.setattr(FPSearchScheme, "quantize_weights", recording)
        config = fast_config(fp4_fp8_config(rounding_learning=True))
        quantized, _ = quantize_pipeline(tiny_pipeline, config)
        layers = dict(quantized.model.unet.named_modules())
        fp32_layers = dict(tiny_pipeline.model.unet.named_modules())
        learned = [path for path, (_, _, record) in served.items()
                   if record.rounding_learning_used]
        assert learned
        differs = False
        for path in learned:
            weight, fmt, _ = served[path]
            packed = layers[path].packed_weight
            assert packed is not None, path
            np.testing.assert_array_equal(packed.dequantize().view(np.uint32),
                                          weight.view(np.uint32))
            nearest = quantize_fp(fp32_layers[path].weight.data, fmt)
            differs = differs or not np.array_equal(weight, nearest)
        assert differs

    @pytest.mark.parametrize("weights", ["int8", "int4", "int8_pc"])
    def test_int_layers_pack_the_levels_of_the_original_weight(
            self, tiny_pipeline, weights):
        config = QuantizationConfig(weight_dtype=weights,
                                    activation_dtype="int8")
        quantized, _ = quantize_pipeline(tiny_pipeline, fast_config(config))
        fp32_layers = dict(tiny_pipeline.model.unet.named_modules())
        layers = [(path, module) for path, module
                  in quantized.model.unet.named_modules()
                  if isinstance(module, (QuantizedConv2d, QuantizedLinear))]
        assert layers
        for path, layer in layers:
            packed = layer.packed_weight
            expected = PackedIntWeight.pack(fp32_layers[path].weight.data,
                                            packed.fmt)
            np.testing.assert_array_equal(packed.levels(), expected.levels())

    def test_quantized_pipeline_generates_images(self, tiny_pipeline):
        quantized, _ = quantize_pipeline(tiny_pipeline, fast_config(fp8_fp8_config()))
        images = quantized.generate(2, seed=0, batch_size=2)
        assert images.shape == (2, 3, 16, 16)
        assert np.all(np.isfinite(images))

    def test_fp8_output_closer_to_reference_than_fp4_no_rl(self, pretrained_cifar):
        """On a trained model, 8-bit FP tracks the FP32 output much more
        closely than 4-bit FP with plain round-to-nearest."""
        from repro.diffusion import DiffusionPipeline
        pipeline = DiffusionPipeline(pretrained_cifar, num_steps=5)
        reference = pipeline.generate(4, seed=7, batch_size=4)
        fp8_pipe, _ = quantize_pipeline(pipeline, fast_config(fp8_fp8_config()))
        fp4_pipe, _ = quantize_pipeline(
            pipeline, fast_config(fp4_fp8_config(rounding_learning=False)))
        fp8_drift = np.mean((fp8_pipe.generate(4, seed=7, batch_size=4) - reference) ** 2)
        fp4_drift = np.mean((fp4_pipe.generate(4, seed=7, batch_size=4) - reference) ** 2)
        assert fp8_drift < fp4_drift

    def test_text_to_image_quantization(self, tiny_text_pipeline):
        prompts = ["a red circle above a blue square on a gray background",
                   "a large green ring below a yellow cross on a dark background"]
        quantized, report = quantize_pipeline(tiny_text_pipeline,
                                              fast_config(fp8_fp8_config()),
                                              prompts=prompts)
        assert report.num_quantized_layers > 0
        images = quantized.generate_from_prompts(prompts, seed=0)
        assert images.shape == (2, 3, 16, 16)
        # Text encoder and autoencoder must remain unquantized (full precision).
        text_modules = list(quantized.model.text_encoder.modules())
        ae_modules = list(quantized.model.autoencoder.modules())
        assert not any(isinstance(m, (QuantizedConv2d, QuantizedLinear))
                       for m in text_modules + ae_modules)


class TestSparsity:
    def test_tensor_sparsity_basic(self):
        values = np.array([0.0, 1.0, 0.0, -2.0], dtype=np.float32)
        assert tensor_sparsity(values) == pytest.approx(0.5)
        assert tensor_sparsity(np.zeros(0)) == 0.0

    def test_tolerance_counts_near_zeros(self):
        values = np.array([1e-9, 0.5], dtype=np.float32)
        assert tensor_sparsity(values, tolerance=1e-6) == pytest.approx(0.5)

    def test_quantization_increases_sparsity(self, tiny_pipeline):
        fp8_pipe, _ = quantize_pipeline(tiny_pipeline, fast_config(fp8_fp8_config()))
        fp4_pipe, _ = quantize_pipeline(
            tiny_pipeline, fast_config(fp4_fp8_config(rounding_learning=False)))
        baseline = measure_weight_sparsity(tiny_pipeline.model)
        fp8 = measure_weight_sparsity(fp8_pipe.model)
        fp4 = measure_weight_sparsity(fp4_pipe.model)
        assert fp8.sparsity >= baseline.sparsity
        assert fp4.sparsity > fp8.sparsity
        assert fp4.total_weights == fp8.total_weights > 0

    def test_sparsity_increase_handles_zero_baseline(self):
        from repro.core import SparsityReport
        baseline = SparsityReport(per_layer={}, total_weights=10, zero_weights=0)
        quantized = SparsityReport(per_layer={}, total_weights=10, zero_weights=5)
        assert sparsity_increase(baseline, quantized) is None
        baseline_nonzero = SparsityReport(per_layer={}, total_weights=10, zero_weights=1)
        assert sparsity_increase(baseline_nonzero, quantized) == pytest.approx(5.0)
