"""Tests for calibration data collection and the quantized layer wrappers."""

import numpy as np
import pytest

from repro import nn
from repro.core import (
    CalibrationConfig,
    CalibrationData,
    FPFormat,
    FPTensorQuantizer,
    IdentityQuantizer,
    IntTensorQuantizer,
    QuantizedConv2d,
    QuantizedLinear,
    QuantizedSkipConcat,
    collect_calibration_data,
    quantizable_layer_paths,
    quantize_fp,
    skip_concat_paths,
)
from repro.models import SkipConcat
from repro.tensor import Tensor


class TestCalibrationData:
    def test_record_respects_limit(self):
        data = CalibrationData()
        for i in range(10):
            data.record("layer", np.full((2, 2), i, dtype=np.float32), limit=3)
        assert len(data.samples("layer")) == 3

    def test_concatenated_flattens_all_records(self):
        data = CalibrationData()
        data.record("layer", np.ones((2, 3)), limit=5)
        data.record("layer", np.zeros((4,)), limit=5)
        assert data.concatenated("layer").shape == (10,)

    def test_missing_layer_gives_empty(self):
        data = CalibrationData()
        assert data.concatenated("nope").size == 0
        assert data.samples("nope") == []


class TestLayerDiscovery:
    def test_quantizable_paths_cover_conv_and_linear(self, tiny_model):
        paths = quantizable_layer_paths(tiny_model.unet)
        types = {type(module) for _, module in paths}
        assert types == {nn.Conv2d, nn.Linear}
        assert len(paths) > 20

    def test_paths_are_breadth_first(self, tiny_model):
        paths = [path for path, _ in quantizable_layer_paths(tiny_model.unet)]
        depths = [path.count(".") for path in paths]
        assert depths == sorted(depths)

    def test_skip_concat_paths_found(self, tiny_model):
        paths = skip_concat_paths(tiny_model.unet)
        assert len(paths) >= 2
        assert all(isinstance(module, SkipConcat) for _, module in paths)


class TestCollectCalibrationData:
    def test_collects_and_restores_unconditional(self, tiny_pipeline):
        unet = tiny_pipeline.model.unet
        before_types = {path: type(module)
                        for path, module in quantizable_layer_paths(unet)}
        data = collect_calibration_data(
            tiny_pipeline, CalibrationConfig(num_samples=2, max_records_per_layer=3,
                                             batch_size=2))
        # Every quantizable layer and both sides of every skip concat recorded.
        for path in before_types:
            assert len(data.samples(path)) >= 1
        for path, _ in skip_concat_paths(unet):
            assert len(data.samples(f"{path}.main")) >= 1
            assert len(data.samples(f"{path}.skip")) >= 1
        # Originals restored (no recording shims left behind).
        after_types = {path: type(module)
                       for path, module in quantizable_layer_paths(unet)}
        assert before_types == after_types

    def test_respects_record_limit(self, tiny_pipeline):
        data = collect_calibration_data(
            tiny_pipeline, CalibrationConfig(num_samples=2, max_records_per_layer=2,
                                             batch_size=2))
        assert all(len(records) <= 2 for records in data.activations.values())

    def test_text_pipeline_requires_prompts(self, tiny_text_pipeline):
        with pytest.raises(ValueError):
            collect_calibration_data(tiny_text_pipeline,
                                     CalibrationConfig(num_samples=1))

    def test_text_pipeline_collects_with_prompts(self, tiny_text_pipeline):
        data = collect_calibration_data(
            tiny_text_pipeline,
            CalibrationConfig(num_samples=2, max_records_per_layer=2, batch_size=2),
            prompts=["a red circle above a blue square on a gray background",
                     "a small green ring below a yellow cross on a dark background"])
        assert len(data.layer_names()) > 10


class TestTensorQuantizers:
    def test_identity_quantizer(self):
        quantizer = IdentityQuantizer()
        values = np.random.default_rng(0).standard_normal(16).astype(np.float32)
        np.testing.assert_allclose(quantizer.quantize(values), values)
        assert quantizer.describe() == "FP32"
        assert quantizer.bits == 32

    def test_fp_quantizer_matches_primitive(self):
        fmt = FPFormat.from_name("E4M3")
        quantizer = FPTensorQuantizer(fmt)
        values = np.random.default_rng(1).standard_normal(32).astype(np.float32)
        np.testing.assert_allclose(quantizer.quantize(values), quantize_fp(values, fmt))
        assert "E4M3" in quantizer.describe()
        assert quantizer.bits == 8

    def test_int_quantizer_calibrated(self):
        values = np.linspace(-2, 2, 64).astype(np.float32)
        quantizer = IntTensorQuantizer.calibrated(values, 8)
        out = quantizer.quantize(values)
        assert np.max(np.abs(out - values)) <= quantizer.fmt.scale
        assert quantizer.describe().startswith("INT8")


class TestQuantizedLayers:
    def test_quantized_linear_uses_quantized_weight_and_inputs(self):
        rng = np.random.default_rng(2)
        original = nn.Linear(8, 4, rng=rng)
        fmt = FPFormat(4, 3, FPFormat.bias_for_max_value(
            4, 3, float(np.max(np.abs(original.weight.data)))))
        quantized_weight = quantize_fp(original.weight.data, fmt)
        act_fmt = FPFormat(4, 3, FPFormat.bias_for_max_value(4, 3, 3.0))
        wrapper = QuantizedLinear(original, quantized_weight,
                                  FPTensorQuantizer(act_fmt), FPTensorQuantizer(fmt))
        x = rng.standard_normal((2, 8)).astype(np.float32)
        expected = quantize_fp(x, act_fmt) @ quantized_weight.T + original.bias.data
        np.testing.assert_allclose(wrapper(Tensor(x)).data, expected, atol=1e-5)

    def test_quantized_conv_preserves_geometry(self):
        rng = np.random.default_rng(3)
        original = nn.Conv2d(3, 6, kernel_size=3, stride=2, padding=1, rng=rng)
        wrapper = QuantizedConv2d(original, original.weight.data.copy(),
                                  IdentityQuantizer(), IdentityQuantizer())
        x = Tensor(rng.standard_normal((1, 3, 8, 8)).astype(np.float32))
        np.testing.assert_allclose(wrapper(x).data, original(x).data, atol=1e-5)

    def test_quantized_skip_concat_quantizes_sides_independently(self):
        main_fmt = FPFormat(2, 1, FPFormat.bias_for_max_value(2, 1, 1.0))
        skip_fmt = FPFormat(2, 1, FPFormat.bias_for_max_value(2, 1, 10.0))
        wrapper = QuantizedSkipConcat(FPTensorQuantizer(main_fmt),
                                      FPTensorQuantizer(skip_fmt))
        rng = np.random.default_rng(4)
        main = rng.standard_normal((1, 2, 4, 4)).astype(np.float32)
        skip = (rng.standard_normal((1, 3, 4, 4)) * 8).astype(np.float32)
        out = wrapper(Tensor(main), Tensor(skip)).data
        assert out.shape == (1, 5, 4, 4)
        np.testing.assert_allclose(out[:, :2], quantize_fp(main, main_fmt), atol=1e-6)
        np.testing.assert_allclose(out[:, 2:], quantize_fp(skip, skip_fmt), atol=1e-6)
