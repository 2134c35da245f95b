"""Unit and property-based tests for the FP and INT quantization primitives."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import (
    FPFormat,
    PackedIntWeight,
    blocks,
    calibrate_block_biases,
    calibrate_int_format,
    calibrate_int_format_per_channel,
    fp_levels,
    fp_scales,
    int_quantization_mse,
    qmodules,
    quantization_mse,
    quantize_fp,
    quantize_fp_blockwise,
    quantize_fp_with_rounding,
    quantize_int,
    quantize_int_per_channel,
)
from repro.core.blocks import BLOCK
from repro.core.qmodules import FPTensorQuantizer

from tiny_factories import fp_probe_values

E4M3 = FPFormat.from_name("E4M3")
E2M1 = FPFormat.from_name("E2M1")

finite_arrays = hnp.arrays(
    dtype=np.float32, shape=hnp.array_shapes(min_dims=1, max_dims=2, max_side=40),
    elements=st.floats(min_value=-50.0, max_value=50.0, width=32))


class TestFPQuantization:
    def test_values_land_on_representable_grid(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(-200, 200, size=256).astype(np.float32)
        quantized = quantize_fp(values, E4M3)
        grid = E4M3.representable_values()
        full_grid = np.concatenate([-grid[::-1], grid])
        distances = np.min(np.abs(quantized[:, None] - full_grid[None, :]), axis=1)
        assert np.max(distances) < 1e-5

    def test_exactly_representable_values_unchanged(self):
        grid = E4M3.representable_values()
        sample = grid[[0, 3, 10, 50, len(grid) - 1]].astype(np.float32)
        np.testing.assert_allclose(quantize_fp(sample, E4M3), sample, rtol=1e-6)

    def test_clipping_to_max_value(self):
        values = np.array([1e6, -1e6], dtype=np.float32)
        quantized = quantize_fp(values, E4M3)
        np.testing.assert_allclose(np.abs(quantized), E4M3.max_value)

    def test_zero_maps_to_zero(self):
        assert quantize_fp(np.zeros(4, dtype=np.float32), E2M1).sum() == 0.0

    def test_sign_symmetry(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(0, 10, size=64).astype(np.float32)
        np.testing.assert_allclose(quantize_fp(-values, E4M3),
                                   -quantize_fp(values, E4M3))

    def test_fp4_is_coarser_than_fp8(self):
        rng = np.random.default_rng(2)
        values = rng.standard_normal(512).astype(np.float32)
        fp8_fmt = FPFormat(4, 3, FPFormat.bias_for_max_value(4, 3, 3.0))
        fp4_fmt = FPFormat(2, 1, FPFormat.bias_for_max_value(2, 1, 3.0))
        assert quantization_mse(values, fp4_fmt) > quantization_mse(values, fp8_fmt)

    def test_scales_are_powers_of_two_times_mantissa_step(self):
        values = np.array([0.3, 1.7, 100.0, 0.001], dtype=np.float64)
        scales = fp_scales(values, E4M3)
        exponents = np.log2(scales) + E4M3.bias + E4M3.mantissa_bits
        np.testing.assert_allclose(exponents, np.round(exponents), atol=1e-9)

    def test_rounding_error_bounded_by_half_step(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(-E4M3.max_value, E4M3.max_value, size=1024)
        quantized = quantize_fp(values, E4M3)
        scales = fp_scales(values, E4M3)
        assert np.all(np.abs(values - quantized) <= scales * 0.5 + 1e-9)

    @given(values=finite_arrays)
    @settings(max_examples=60, deadline=None)
    def test_idempotence_property(self, values):
        once = quantize_fp(values, E4M3)
        twice = quantize_fp(once, E4M3)
        np.testing.assert_allclose(once, twice, rtol=1e-6, atol=1e-7)

    @given(values=finite_arrays)
    @settings(max_examples=60, deadline=None)
    def test_output_bounded_by_max_value(self, values):
        quantized = quantize_fp(values, E2M1)
        assert np.all(np.abs(quantized) <= E2M1.max_value * (1 + 1e-6))

    @given(values=finite_arrays)
    @settings(max_examples=40, deadline=None)
    def test_monotonicity_property(self, values):
        flat = np.sort(values.reshape(-1))
        quantized = quantize_fp(flat, E4M3)
        assert np.all(np.diff(quantized) >= -1e-7)


class TestRoundingDirection:
    def test_round_up_and_down_bracket_the_value(self):
        values = np.array([0.3, 1.26, 5.1, -2.7], dtype=np.float32)
        down = quantize_fp_with_rounding(values, E4M3,
                                         np.zeros(values.shape, dtype=bool))
        up = quantize_fp_with_rounding(values, E4M3,
                                       np.ones(values.shape, dtype=bool))
        assert np.all(down <= values + 1e-6)
        assert np.all(up >= values - 1e-6)
        assert np.all(up >= down)

    def test_nearest_rounding_is_one_of_the_two_choices(self):
        rng = np.random.default_rng(4)
        values = rng.uniform(-5, 5, size=128).astype(np.float32)
        nearest = quantize_fp(values, E4M3)
        down = quantize_fp_with_rounding(values, E4M3,
                                         np.zeros(values.shape, dtype=bool))
        up = quantize_fp_with_rounding(values, E4M3, np.ones(values.shape, dtype=bool))
        matches = np.isclose(nearest, down, rtol=1e-6) | np.isclose(nearest, up, rtol=1e-6)
        assert np.all(matches)


class TestFPLevels:
    """``fp_levels`` is the integer form of ``quantize_fp``: the level
    reference the integer kernels reproduce."""

    @pytest.mark.parametrize("name", ["E1M2", "E2M1", "E2M5", "E3M4",
                                      "E4M3", "E5M2"])
    def test_levels_times_unit_equal_quantize_fp(self, name):
        rng = np.random.default_rng(12)
        for bias in [FPFormat.from_name(name).bias,
                     *rng.uniform(-30, 8, size=12)]:
            fmt = FPFormat.from_name(name, float(bias))
            values = fp_probe_values(fmt, rng)
            levels = fp_levels(values, fmt)
            assert np.array_equal(levels, np.rint(levels))
            assert np.max(np.abs(levels)) <= fmt.max_level
            served = (levels * fmt.min_subnormal).astype(np.float32)
            np.testing.assert_array_equal(
                served.view(np.uint32),
                quantize_fp(values, fmt).view(np.uint32),
                err_msg=f"{name} bias {bias}")

    def test_max_level_is_the_largest_value_in_units(self):
        for name in ["E1M2", "E2M1", "E2M5", "E3M4", "E4M3", "E5M2"]:
            fmt = FPFormat.from_name(name, 1.7)
            assert fmt.max_level * fmt.min_subnormal == pytest.approx(
                fmt.max_value, rel=1e-12)
        assert [FPFormat.from_name(name).max_level
                for name in ("E1M2", "E2M1", "E2M5", "E3M4")] == [7, 12, 252, 1984]


class TestIntQuantization:
    def test_calibration_covers_range(self):
        values = np.linspace(-3.0, 5.0, 100).astype(np.float32)
        fmt = calibrate_int_format(values, 8)
        assert fmt.bitwidth == 8
        assert fmt.scale == pytest.approx(8.0 / 255.0, rel=1e-5)

    def test_quantized_values_at_most_one_step_off(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(-4, 4, size=2048).astype(np.float32)
        fmt = calibrate_int_format(values, 8)
        quantized = quantize_int(values, fmt)
        assert np.max(np.abs(values - quantized)) <= fmt.scale * 0.5 + 1e-6

    def test_int4_much_coarser_than_int8(self):
        rng = np.random.default_rng(6)
        values = rng.standard_normal(2048).astype(np.float32)
        assert int_quantization_mse(values, 4) > 10 * int_quantization_mse(values, 8)

    def test_degenerate_constant_tensor(self):
        values = np.full(16, 3.0, dtype=np.float32)
        fmt = calibrate_int_format(values, 8)
        quantized = quantize_int(values, fmt)
        assert np.all(np.isfinite(quantized))
        np.testing.assert_allclose(quantized, values, atol=1e-3)

    def test_output_within_calibrated_range(self):
        values = np.linspace(-1.0, 1.0, 64).astype(np.float32)
        fmt = calibrate_int_format(values, 8)
        out_of_range = np.array([10.0, -10.0], dtype=np.float32)
        quantized = quantize_int(out_of_range, fmt)
        assert quantized.max() <= 1.0 + fmt.scale
        assert quantized.min() >= -1.0 - fmt.scale

    @given(values=finite_arrays, bitwidth=st.sampled_from([4, 8]))
    @settings(max_examples=60, deadline=None)
    def test_idempotence_property(self, values, bitwidth):
        fmt = calibrate_int_format(values, bitwidth)
        once = quantize_int(values, fmt)
        twice = quantize_int(once, fmt)
        np.testing.assert_allclose(once, twice, atol=1e-5)

    @given(values=finite_arrays)
    @settings(max_examples=40, deadline=None)
    def test_error_bounded_by_scale(self, values):
        fmt = calibrate_int_format(values, 8)
        quantized = quantize_int(values, fmt)
        assert np.max(np.abs(values - quantized)) <= fmt.scale + 1e-5


class TestPrecisionRangeTradeoff:
    """The paper's motivating observation: INT has finer steps near the range
    edge, FP has a wider dynamic range / finer steps near zero."""

    def test_fp_better_on_heavy_tailed_data(self):
        rng = np.random.default_rng(7)
        # Mostly small values with rare large outliers (long-tailed), like
        # diffusion-model activations.
        values = rng.standard_normal(4096)
        values[:4] = rng.uniform(50, 100, size=4)
        values = values.astype(np.float32)
        fp_fmt = FPFormat(4, 3, FPFormat.bias_for_max_value(4, 3, float(np.max(np.abs(values)))))
        fp_mse = quantization_mse(values, fp_fmt)
        int_mse = int_quantization_mse(values, 8)
        assert fp_mse < int_mse

    def test_int_better_on_uniform_data(self):
        rng = np.random.default_rng(8)
        values = rng.uniform(-1, 1, size=4096).astype(np.float32)
        fp_fmt = FPFormat(4, 3, FPFormat.bias_for_max_value(4, 3, 1.0))
        assert int_quantization_mse(values, 8) < quantization_mse(values, fp_fmt)



def prepared(values):
    """``values`` with the formats every full-tensor pass takes calibrated
    on it, and packed storages to dequantize."""
    fp4 = E2M1.with_bias(FPFormat.bias_for_max_value(
        2, 1, float(np.max(np.abs(values)))))
    int8 = calibrate_int_format(values, 8)
    pc4 = calibrate_int_format_per_channel(values, 4)
    return SimpleNamespace(
        values=values, fp4=fp4, int8=int8, int4=calibrate_int_format(values, 4),
        pc4=pc4, biases=calibrate_block_biases(values, fp4, 64),
        round_up=np.random.default_rng(1).random(np.shape(values)) > 0.5,
        on_grid=quantize_fp(values, fp4),
        packed8=PackedIntWeight.pack(values, int8),
        packed_pc4=PackedIntWeight.pack(values, pc4))


#: Every full-tensor quantize, pack and dequantize pass, on ``prepared``
#: inputs.
FULL_TENSOR_PASSES = {
    "quantize_fp": lambda p: quantize_fp(p.values, p.fp4),
    "quantize_fp_with_rounding":
        lambda p: quantize_fp_with_rounding(p.values, p.fp4, p.round_up),
    "quantize_fp_blockwise":
        lambda p: quantize_fp_blockwise(p.values, p.fp4, p.biases, 64),
    "calibrate_block_biases": lambda p: calibrate_block_biases(p.values, p.fp4, 64),
    "quantize_int": lambda p: quantize_int(p.values, p.int8),
    "quantize_int_per_channel": lambda p: quantize_int_per_channel(p.values, p.pc4),
    "pack": lambda p: PackedIntWeight.pack(p.values, p.int4),
    "pack_per_channel": lambda p: PackedIntWeight.pack(p.values, p.pc4),
    "pack_weights_fp4": lambda p: FPTensorQuantizer(p.fp4).pack_weights(p.on_grid),
    "dequantize": lambda p: p.packed8._dequantize_levels(),
    "dequantize_per_channel": lambda p: p.packed_pc4._dequantize_levels(),
    "calibrate_int_format": lambda p: calibrate_int_format(p.values, 8),
    "calibrate_int_format_per_channel":
        lambda p: calibrate_int_format_per_channel(p.values, 8),
}


def normal_weight(shape, seed=0):
    return (np.random.default_rng(seed).standard_normal(shape) * 0.05).astype(np.float32)


#: Inputs at and around block boundaries: contiguous, strided, a
#: transposed weight (odd rows, so nibble-packed blocks hold two), 0-d.
BLOCK_CASES = {
    "BLOCK-1": lambda: normal_weight(BLOCK - 1),
    "BLOCK": lambda: normal_weight(BLOCK),
    "BLOCK+1": lambda: normal_weight(BLOCK + 1),
    "3*BLOCK+7": lambda: normal_weight(3 * BLOCK + 7),
    "strided": lambda: normal_weight(2 * (3 * BLOCK + 7))[::2],
    "transposed": lambda: normal_weight((259, 773)).T,
    "0-d": lambda: normal_weight(()),
}


def result_bits(result):
    if isinstance(result, PackedIntWeight):
        return result.shape, result.fmt, result.packed.tobytes()
    if isinstance(result, np.ndarray):
        return result.shape, result.dtype, result.tobytes()
    return result  # a calibrated format: exact float fields


class TestBlockwisePasses:
    """Every full-tensor pass runs block by block: its temporaries stay
    within a few blocks, and its output is the single-block kernel's, bit
    for bit."""

    @pytest.mark.parametrize("case,name", [
        (case, name) for case in sorted(BLOCK_CASES)
        for name in sorted(FULL_TENSOR_PASSES)])
    def test_blocks_equal_the_single_block_kernel(self, case, name,
                                                  monkeypatch):
        inputs = prepared(BLOCK_CASES[case]())
        blocked = FULL_TENSOR_PASSES[name](inputs)
        for module in (blocks, qmodules):
            monkeypatch.setattr(module, "BLOCK", 2 ** 62)
        assert result_bits(blocked) == result_bits(FULL_TENSOR_PASSES[name](inputs))

    @pytest.fixture(scope="class")
    def large_weight(self):
        # 18.9 MB of float32: the largest weight of the ``generate``
        # benchmark U-Net.
        return prepared(normal_weight((1024, 4608)))

    @pytest.mark.parametrize("name", sorted(FULL_TENSOR_PASSES))
    def test_pass_holds_a_few_blocks_beyond_its_output(self, large_weight,
                                                       name):
        tracemalloc.start()
        try:
            result = FULL_TENSOR_PASSES[name](large_weight)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output = result.nbytes if hasattr(result, "nbytes") else 0
        assert peak <= output + 8 * 2 ** 20
