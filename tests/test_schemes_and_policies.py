"""Tests for the extensible quantization-scheme API.

Covers the scheme registry (unknown names, duplicate registration, custom
schemes), the per-layer policy layer (glob/type/predicate rules, resolution
order), config/report JSON round-trips and the end-to-end mixed-precision
experiment the API was built for.
"""

import json

import numpy as np
import pytest

from repro.core import (
    PAPER_CONFIGS,
    CalibrationConfig,
    PolicyRule,
    QuantizationConfig,
    QuantizationPolicy,
    QuantizationReport,
    QuantizedConv2d,
    QuantizedLinear,
    QuantScheme,
    available_schemes,
    calibrate_block_biases,
    calibrate_int_format,
    calibrate_int_format_per_channel,
    get_scheme,
    mixed_precision_config,
    quantizable_layer_paths,
    quantize_fp_blockwise,
    quantize_int,
    quantize_int_per_channel,
    quantize_pipeline,
    register_scheme,
    scheme_name,
    unregister_scheme,
)
from repro.core.formats import FPFormat
from repro.core.quantizer import LayerQuantizationRecord
from repro.core.schemes import FPSearchScheme, IdentityScheme, subsample


def fast_config(**overrides) -> QuantizationConfig:
    defaults = dict(num_bias_candidates=7,
                    calibration=CalibrationConfig(num_samples=2,
                                                  max_records_per_layer=2,
                                                  batch_size=2))
    defaults.update(overrides)
    return QuantizationConfig(**defaults)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestSchemeRegistry:
    def test_builtins_are_registered(self):
        for name in ("fp32", "fp8", "fp4", "int8", "int4",
                     "int8_pc", "int4_pc", "fp8_block", "fp4_block"):
            assert name in available_schemes()
            assert get_scheme(name).name == name

    def test_get_scheme_is_case_insensitive_and_passes_through(self):
        assert get_scheme("FP8") is get_scheme("fp8")
        scheme = get_scheme("fp8")
        assert get_scheme(scheme) is scheme

    def test_unknown_scheme_error_lists_known_names(self):
        with pytest.raises(ValueError) as excinfo:
            get_scheme("fp16")
        assert "fp16" in str(excinfo.value)
        assert "fp8" in str(excinfo.value)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scheme(FPSearchScheme(8))

    def test_override_replaces_and_unregister_removes(self):
        original = get_scheme("fp8")
        try:
            replacement = FPSearchScheme(8)
            register_scheme(replacement, override=True)
            assert get_scheme("fp8") is replacement
        finally:
            register_scheme(original, override=True)
        marker = IdentityScheme()
        marker.name = "test_marker_scheme"
        register_scheme(marker)
        try:
            assert "test_marker_scheme" in available_schemes()
        finally:
            unregister_scheme("test_marker_scheme")
        assert "test_marker_scheme" not in available_schemes()

    def test_unnamed_scheme_rejected(self):
        with pytest.raises(ValueError, match="non-empty name"):
            register_scheme(QuantScheme())

    def test_paper_configs_resolve_through_registry(self):
        for label, config in PAPER_CONFIGS.items():
            assert config.weight_scheme().name == config.weight_dtype
            assert config.activation_scheme().name == config.activation_dtype
            assert config.label == label

    def test_custom_registered_scheme_runs_end_to_end(self, tiny_pipeline):
        class HalfScaleScheme(QuantScheme):
            """Toy scheme: scales weights onto a crude 1-bit sign grid."""

            name = "test_sign"
            label = "SIGN"
            bits = 1

            def quantize_weights(self, layer, config, calibration, path, record):
                weights = layer.weight.data
                magnitude = float(np.mean(np.abs(weights))) or 1.0
                quantized = np.sign(weights).astype(np.float32) * magnitude
                record.weight_format = "SIGN"
                record.weight_mse = float(np.mean((weights - quantized) ** 2))
                from repro.core import IdentityQuantizer
                return quantized, IdentityQuantizer()

            def build_activation_quantizer(self, samples, config):
                from repro.core import IdentityQuantizer
                return IdentityQuantizer()

        register_scheme(HalfScaleScheme())
        try:
            config = fast_config(weight_dtype="test_sign",
                                 activation_dtype="fp32")
            quantized, report = quantize_pipeline(tiny_pipeline, config)
            assert report.num_quantized_layers > 0
            assert all(r.weight_scheme == "test_sign" for r in report.layers)
            images = quantized.generate(2, seed=0, batch_size=2)
            assert np.all(np.isfinite(images))
        finally:
            unregister_scheme("test_sign")


# ----------------------------------------------------------------------
# new built-in schemes
# ----------------------------------------------------------------------
class TestNewSchemes:
    def test_per_channel_int_beats_per_tensor_on_skewed_channels(self, rng):
        # Channels with very different scales: per-channel grids must win.
        weights = np.stack([rng.normal(0, 10 ** -i, size=(4, 3, 3))
                            for i in range(4)]).astype(np.float32)
        per_tensor = quantize_int(weights, calibrate_int_format(weights, 8))
        per_channel = quantize_int_per_channel(
            weights, calibrate_int_format_per_channel(weights, 8))
        assert per_channel.shape == weights.shape
        mse_tensor = np.mean((weights - per_tensor) ** 2)
        mse_channel = np.mean((weights - per_channel) ** 2)
        assert mse_channel < mse_tensor

    def test_per_channel_format_channel_mismatch_rejected(self, rng):
        fmt = calibrate_int_format_per_channel(
            rng.normal(size=(4, 8)).astype(np.float32), 8)
        with pytest.raises(ValueError, match="channels"):
            quantize_int_per_channel(rng.normal(size=(5, 8)), fmt)

    def test_blockwise_fp_beats_per_tensor_on_blocky_data(self, rng):
        # Blocks with wildly different magnitude ranges.
        blocks = [rng.normal(0, 10 ** -i, size=16) for i in range(4)]
        values = np.concatenate(blocks).astype(np.float32)
        fmt = FPFormat.from_name("E2M1")
        biases = calibrate_block_biases(values, fmt, block_size=16)
        blockwise = quantize_fp_blockwise(values, fmt, biases, block_size=16)
        assert blockwise.shape == values.shape
        from repro.core import quantize_fp
        per_tensor = quantize_fp(values, fmt)
        assert (np.mean((values - blockwise) ** 2)
                < np.mean((values - per_tensor) ** 2))

    def test_blockwise_matches_scalar_quantize_fp_per_block(self, rng):
        # The vectorized per-element-bias path must agree with quantizing
        # each block separately through the scalar quantize_fp.
        from repro.core import quantize_fp
        values = rng.normal(scale=3.0, size=100).astype(np.float32)
        fmt = FPFormat.from_name("E2M1")
        block_size = 16
        biases = calibrate_block_biases(values, fmt, block_size)
        vectorized = quantize_fp_blockwise(values, fmt, biases, block_size)
        for index in range(biases.size):
            block = values[index * block_size: (index + 1) * block_size]
            expected = quantize_fp(block, fmt.with_bias(float(biases[index])))
            np.testing.assert_array_equal(
                vectorized[index * block_size: (index + 1) * block_size],
                expected)

    def test_blockwise_handles_ragged_final_block(self, rng):
        values = rng.normal(size=37).astype(np.float32)
        fmt = FPFormat.from_name("E4M3")
        biases = calibrate_block_biases(values, fmt, block_size=16)
        assert biases.size == 3
        out = quantize_fp_blockwise(values, fmt, biases, block_size=16)
        assert out.shape == values.shape and np.all(np.isfinite(out))

    def test_per_channel_scheme_end_to_end(self, tiny_pipeline):
        config = fast_config(weight_dtype="int8_pc", activation_dtype="int8")
        quantized, report = quantize_pipeline(tiny_pipeline, config)
        assert all(r.weight_format.startswith("INT8(per-channel")
                   for r in report.layers)
        assert config.label.startswith("INT8-PC/INT8")
        images = quantized.generate(2, seed=0, batch_size=2)
        assert np.all(np.isfinite(images))

    def test_block_fp_scheme_end_to_end(self, tiny_pipeline):
        config = fast_config(weight_dtype="fp8_block", activation_dtype="fp32")
        quantized, report = quantize_pipeline(tiny_pipeline, config)
        assert all("block=" in r.weight_format for r in report.layers)
        images = quantized.generate(2, seed=0, batch_size=2)
        assert np.all(np.isfinite(images))


# ----------------------------------------------------------------------
# policies
# ----------------------------------------------------------------------
class TestPolicyResolution:
    def test_first_match_wins_per_side(self):
        policy = QuantizationPolicy(rules=[
            PolicyRule(pattern="down.*", weights="fp8", name="down-weights"),
            PolicyRule(pattern="down.0", weights="int8", activations="int8",
                       name="down-0"),
            PolicyRule(weights="fp4", name="catch-all"),
        ])
        # Weight side: the first matching rule wins even though a later rule
        # also matches; activation side falls through to the later rule.
        decision = policy.resolve("down.0")
        assert scheme_name(decision.weights) == "fp8"
        assert decision.weight_rule == "down-weights"
        assert scheme_name(decision.activations) == "int8"
        assert decision.activation_rule == "down-0"
        # Non-matching path hits only the catch-all; activations unresolved.
        decision = policy.resolve("mid.conv")
        assert scheme_name(decision.weights) == "fp4"
        assert decision.activations is None

    def test_layer_type_and_predicate_rules(self, tiny_pipeline):
        layers = quantizable_layer_paths(tiny_pipeline.model.unet)
        conv_path, conv = next((p, m) for p, m in layers
                               if type(m).__name__ == "Conv2d")
        linear_path, linear = next((p, m) for p, m in layers
                                   if type(m).__name__ == "Linear")
        policy = QuantizationPolicy(rules=[
            PolicyRule(layer_type="Conv2d", weights="fp8"),
            PolicyRule(predicate=lambda path, layer: "attention" in path
                       or layer is linear, weights="int8"),
        ])
        assert scheme_name(policy.resolve(conv_path, conv).weights) == "fp8"
        assert scheme_name(policy.resolve(linear_path, linear).weights) == "int8"

    def test_rule_with_no_criteria_matches_everything(self):
        rule = PolicyRule(weights="fp4")
        assert rule.matches("anything.at.all")

    def test_predicate_rules_refuse_serialization(self):
        policy = QuantizationPolicy(rules=[
            PolicyRule(predicate=lambda p, layer: True, weights="fp8")])
        with pytest.raises(ValueError, match="predicate"):
            policy.to_dict()

    def test_policy_round_trips_through_json(self):
        policy = QuantizationPolicy(rules=[
            PolicyRule(pattern="down.*", layer_type="Conv2d", weights="fp8",
                       activations="int8", name="boundary"),
            PolicyRule(weights="fp4"),
        ])
        restored = QuantizationPolicy.from_dict(
            json.loads(json.dumps(policy.to_dict())))
        assert [r.to_dict() for r in restored.rules] == [
            r.to_dict() for r in policy.rules]
        assert restored.referenced_schemes() == ["fp8", "int8", "fp4"]


# ----------------------------------------------------------------------
# config / report serialization
# ----------------------------------------------------------------------
class TestSerialization:
    def test_config_round_trips_through_json(self):
        config = QuantizationConfig(
            weight_dtype="fp4", activation_dtype="fp8",
            rounding_learning=True, num_bias_candidates=13,
            policy=QuantizationPolicy(rules=[
                PolicyRule(pattern="*.conv", weights="fp8", name="convs")]))
        restored = QuantizationConfig.from_json(config.to_json())
        assert restored.to_dict() == config.to_dict()
        assert restored.label == config.label
        assert restored.policy.rules[0].pattern == "*.conv"

    def test_config_json_with_the_dropped_search_fields_loads(self):
        data = {**QuantizationConfig().to_dict(),
                "max_search_elements": 16384, "subsample_seed": 0}
        assert QuantizationConfig.from_dict(data) == QuantizationConfig()

    def test_config_without_policy_round_trips(self):
        for config in PAPER_CONFIGS.values():
            restored = QuantizationConfig.from_json(config.to_json())
            assert restored.to_dict() == config.to_dict()

    def test_record_round_trip(self):
        record = LayerQuantizationRecord(
            path="down.0.conv", layer_type="Conv2d", weight_format="FP4(E2M1)",
            activation_format="FP8(E4M3)", weight_mse=1e-4,
            weight_scheme="fp4", activation_scheme="fp8",
            policy_rule="interior", rounding_learning_used=True,
            rounding_mse_before=2.0, rounding_mse_after=1.0)
        assert LayerQuantizationRecord.from_dict(record.to_dict()) == record

    def test_report_round_trips_through_json(self, tiny_pipeline):
        config = fast_config(weight_dtype="fp8", activation_dtype="fp8")
        _, report = quantize_pipeline(tiny_pipeline, config)
        restored = QuantizationReport.from_json(report.to_json())
        assert restored.to_dict() == report.to_dict()
        assert restored.num_quantized_layers == report.num_quantized_layers
        assert [r.weight_scheme for r in restored.layers] == [
            r.weight_scheme for r in report.layers]
        assert restored.summary() == report.summary()


# ----------------------------------------------------------------------
# mixed precision end-to-end (the acceptance experiment)
# ----------------------------------------------------------------------
class TestMixedPrecision:
    def test_boundary_fp8_interior_fp4_end_to_end(self, tiny_pipeline):
        config = mixed_precision_config(tiny_pipeline.model, boundary="fp8",
                                        interior="fp4")
        config = fast_config(weight_dtype=config.weight_dtype,
                             activation_dtype=config.activation_dtype,
                             policy=config.policy)
        quantized, report = quantize_pipeline(tiny_pipeline, config)

        paths = [p for p, _ in quantizable_layer_paths(tiny_pipeline.model.unet)]
        by_path = {record.path: record for record in report.layers}
        # The true I/O boundary layers are pinned to the boundary scheme.
        assert by_path["input_conv"].weight_scheme == "fp8"
        assert by_path["input_conv"].policy_rule == "first-layer"
        assert by_path["output_conv"].weight_scheme == "fp8"
        assert by_path["output_conv"].policy_rule == "last-layer"
        interior = [by_path[p] for p in paths
                    if p not in ("input_conv", "output_conv")]
        assert interior and all(r.weight_scheme == "fp4" for r in interior)
        assert report.scheme_histogram() == {"fp8": 2, "fp4": len(interior)}
        assert config.label.endswith("[mixed]")
        assert "weight scheme mix" in report.summary()

        # Quantized wrappers installed and the pipeline still generates.
        wrapped = [m for m in quantized.model.unet.modules()
                   if isinstance(m, (QuantizedConv2d, QuantizedLinear))]
        assert len(wrapped) == len(paths)
        images = quantized.generate(2, seed=0, batch_size=2)
        assert np.all(np.isfinite(images))

        # The report (config + per-layer scheme names) survives JSON.
        restored = QuantizationReport.from_json(report.to_json())
        assert [r.weight_scheme for r in restored.layers] == [
            r.weight_scheme for r in report.layers]
        assert restored.config.policy is not None
        assert [rule.name for rule in restored.config.policy.rules] == [
            "first-layer", "last-layer"]

    def test_policy_layers_on_fp32_keep_original_modules(self, tiny_pipeline):
        paths = [p for p, _ in quantizable_layer_paths(tiny_pipeline.model.unet)]
        policy = QuantizationPolicy(rules=[
            PolicyRule(pattern=paths[0], weights="fp32", activations="fp32")])
        config = fast_config(weight_dtype="fp8", activation_dtype="fp32",
                             policy=policy)
        quantized, report = quantize_pipeline(tiny_pipeline, config)
        # The excluded layer is neither wrapped nor reported.
        assert paths[0] not in [r.path for r in report.layers]
        assert report.num_quantized_layers == len(paths) - 1
        excluded = quantized.model.unet.get_submodule(paths[0])
        assert not isinstance(excluded, (QuantizedConv2d, QuantizedLinear))


# ----------------------------------------------------------------------
# satellites: subsample seed, full-precision aliasing, harness errors
# ----------------------------------------------------------------------
class TestSatellites:
    def test_subsample_seed_is_deterministic_and_threaded(self):
        values = np.arange(10000, dtype=np.float32)
        a = subsample(values, 64, seed=0)
        b = subsample(values, 64, seed=0)
        c = subsample(values, 64, seed=1)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_full_precision_policy_only_config_not_passthrough(self, tiny_pipeline):
        # fp32 defaults + a policy quantizing one layer must NOT shortcut.
        paths = [p for p, _ in quantizable_layer_paths(tiny_pipeline.model.unet)]
        policy = QuantizationPolicy(rules=[
            PolicyRule(pattern=paths[0], weights="int8")])
        config = fast_config(weight_dtype="fp32", activation_dtype="fp32",
                             policy=policy)
        assert not config.is_full_precision()
        _, report = quantize_pipeline(tiny_pipeline, config)
        assert report.num_quantized_layers == 1
        assert report.layers[0].weight_scheme == "int8"

    def test_unknown_table_label_raises_value_error(self):
        from repro.experiments import ExperimentSpec
        with pytest.raises(ValueError) as excinfo:
            ExperimentSpec.from_labels("ddim-cifar10",
                                       ["FP8/FP8", "FP7/FP7"])
        message = str(excinfo.value)
        assert "FP7/FP7" in message
        assert "FP8/FP8" in message and "FP4/FP8" in message
