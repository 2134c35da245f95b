"""Tests for Algorithm 1 (format/bias search) and rounding learning (Sec. V-B)."""

import numpy as np
import pytest

from repro import nn
from repro.core import (
    CalibrationConfig,
    FPFormat,
    RoundingLearningConfig,
    SearchResult,
    bias_candidates,
    collect_calibration_data,
    encoding_candidates,
    learn_rounding,
    quantizable_layer_paths,
    quantization_mse,
    quantize_fp,
    quantize_fp_with_rounding,
    regularizer_value,
    rounding,
    search,
    search_tensor_format,
)
from repro.core.schemes import MAX_SEARCH_ELEMENTS, subsample
from repro.tensor import Tensor
from repro.tensor import functional as F


def exhaustive_search(values, bitwidth, num_bias_candidates, encodings=None):
    """Algorithm 1 with one exact pass per (encoding, bias) pair: the oracle
    the screened search must match bit for bit."""
    values = np.asarray(values, dtype=np.float32)
    encodings = list(encodings) if encodings is not None else encoding_candidates(bitwidth)
    best_fmt, best_mse, evaluated = None, np.inf, 0
    for encoding in encodings:
        for bias in bias_candidates(values, encoding, num_bias_candidates):
            candidate = encoding.with_bias(bias)
            mse = quantization_mse(values, candidate)
            evaluated += 1
            if mse < best_mse:
                best_mse, best_fmt = mse, candidate
    return SearchResult(fmt=best_fmt, mse=float(best_mse),
                        candidates_evaluated=evaluated)


def assert_same_search(values, bitwidth, num_bias_candidates, encodings=None):
    got = search_tensor_format(values, bitwidth, num_bias_candidates, encodings)
    expected = exhaustive_search(values, bitwidth, num_bias_candidates, encodings)
    assert got.fmt == expected.fmt
    assert got.mse == expected.mse
    assert got.candidates_evaluated == expected.candidates_evaluated


def _on_grid_format():
    """E4M3 with bias 14, whose maximum is 3.75: for data whose largest
    magnitude is 3.75 the last E4M3 bias candidate is exactly this format,
    whatever the number of candidates, and its points and midpoints are
    exact float32 values."""
    fmt = FPFormat(4, 3, 14.0)
    assert bias_candidates(np.array([fmt.max_value]), fmt, 7)[-1] == fmt.bias
    return fmt


def _oracle_inputs():
    rng = np.random.default_rng(7)
    grid = _on_grid_format().representable_values()
    return {
        "zeros": np.zeros(16),
        "constant": np.full(16, -0.37),
        "one element": np.array([0.7]),
        "two elements": np.array([0.7, -2.5]),
        "three elements": np.array([1e-3, 0.5, -3.0]),
        "negatives only": -np.abs(rng.standard_normal(300)),
        "on a candidate's grid": np.concatenate([grid, -grid[1::2]]),
        "on its midpoints": np.append((grid[1:] + grid[:-1]) / 2, grid[-1]),
        "around 1e-30": rng.standard_normal(300) * 1e-30,
        "one 1e6 outlier": np.append(rng.standard_normal(999), 1e6),
    }


ORACLE_INPUTS = _oracle_inputs()


@pytest.fixture(scope="module")
def unet_tensors(tiny_pipeline):
    """Every weight and recorded input activation the tiny U-Net's
    quantization searches, activations subsampled as the schemes do."""
    calibration = collect_calibration_data(
        tiny_pipeline, CalibrationConfig(num_samples=2, max_records_per_layer=2,
                                         batch_size=2))
    tensors = [layer.weight.data for _, layer
               in quantizable_layer_paths(tiny_pipeline.model.unet)]
    tensors += [subsample(calibration.concatenated(name), MAX_SEARCH_ELEMENTS)
                for name in sorted(calibration.activations)]
    return tensors


class TestBiasCandidates:
    def test_number_of_candidates(self):
        values = np.random.default_rng(0).standard_normal(128).astype(np.float32)
        fmt = FPFormat.from_name("E4M3")
        candidates = bias_candidates(values, fmt, num_candidates=111)
        assert len(candidates) == 111

    def test_candidates_cover_data_maximum(self):
        values = np.array([0.1, -7.5, 3.0], dtype=np.float32)
        fmt = FPFormat.from_name("E4M3")
        candidates = bias_candidates(values, fmt, num_candidates=11)
        maxima = [fmt.with_bias(b).max_value for b in candidates]
        assert min(maxima) == pytest.approx(7.5 / 11, rel=1e-5)
        assert max(maxima) == pytest.approx(7.5, rel=1e-5)

    def test_all_zero_tensor_falls_back_to_default_bias(self):
        fmt = FPFormat.from_name("E2M1")
        candidates = bias_candidates(np.zeros(10, dtype=np.float32), fmt)
        assert candidates == [FPFormat.default_bias(2)]


class TestFormatSearch:
    def test_search_beats_or_matches_default_bias(self):
        rng = np.random.default_rng(1)
        values = (rng.standard_normal(512) * 0.2).astype(np.float32)
        result = search_tensor_format(values, 8, num_bias_candidates=31)
        default_best = min(quantization_mse(values, FPFormat.from_name(name))
                           for name in ("E2M5", "E3M4", "E4M3", "E5M2"))
        assert result.mse <= default_best + 1e-12

    def test_search_counts_all_combinations(self):
        values = np.random.default_rng(2).standard_normal(64).astype(np.float32)
        result = search_tensor_format(values, 8, num_bias_candidates=11)
        assert result.candidates_evaluated == 4 * 11
        result4 = search_tensor_format(values, 4, num_bias_candidates=11)
        assert result4.candidates_evaluated == 2 * 11

    def test_search_adapts_to_data_scale(self):
        rng = np.random.default_rng(3)
        small = (rng.standard_normal(256) * 0.01).astype(np.float32)
        result = search_tensor_format(small, 8, num_bias_candidates=31)
        # The chosen clipping range should be near the data maximum, far from
        # the default E4M3 range of 240.
        assert result.fmt.max_value < 1.0

    def test_search_result_mse_is_achievable(self):
        values = np.random.default_rng(4).standard_normal(256).astype(np.float32)
        result = search_tensor_format(values, 4, num_bias_candidates=21)
        assert quantization_mse(values, result.fmt) == pytest.approx(result.mse)

    def test_fp8_search_much_better_than_fp4(self):
        values = np.random.default_rng(5).standard_normal(1024).astype(np.float32)
        mse8 = search_tensor_format(values, 8, num_bias_candidates=21).mse
        mse4 = search_tensor_format(values, 4, num_bias_candidates=21).mse
        assert mse8 < mse4 / 10


class TestScreenedSearch:
    """The screen and confirm steps pick the exhaustive loop's format."""

    @pytest.mark.parametrize("num_bias", [1, 7, 21, 111])
    @pytest.mark.parametrize("bitwidth", [4, 8])
    @pytest.mark.parametrize("name", sorted(ORACLE_INPUTS))
    def test_matches_exhaustive_search(self, name, bitwidth, num_bias):
        assert_same_search(ORACLE_INPUTS[name], bitwidth, num_bias)

    @pytest.mark.parametrize("num_bias", [1, 7, 21, 111])
    def test_matches_exhaustive_search_with_explicit_encodings(self, num_bias):
        encodings = [FPFormat.from_name("E3M4"), FPFormat.from_name("E2M1"),
                     FPFormat(3, 0, 4.0)]
        for values in ORACLE_INPUTS.values():
            assert_same_search(values, 8, num_bias, encodings)

    @pytest.mark.parametrize("num_bias", [1, 7, 21])
    def test_matches_exhaustive_search_on_a_large_tensor(self, num_bias):
        values = np.random.default_rng(8).laplace(size=2 ** 20) * 0.1
        for bitwidth in (4, 8):
            assert_same_search(values, bitwidth, num_bias)

    @pytest.mark.parametrize("num_bias", [1, 7, 21, 111])
    def test_matches_exhaustive_search_on_unet_tensors(self, unet_tensors,
                                                       num_bias):
        for values in unet_tensors:
            for bitwidth in (4, 8):
                assert_same_search(values, bitwidth, num_bias)

    def test_confirms_few_candidates_exactly(self, unet_tensors, monkeypatch):
        passes = []
        monkeypatch.setattr(search, "quantization_mse",
                            lambda values, fmt: passes.append(fmt)
                            or quantization_mse(values, fmt))
        searches = 0
        for values in unet_tensors:
            for bitwidth in (4, 8):
                result = search_tensor_format(values, bitwidth, 21)
                searches += 1
                assert result.fmt in passes
        assert len(passes) / searches <= 2

    def test_on_grid_data_is_quantized_exactly(self):
        fmt = _on_grid_format()
        values = ORACLE_INPUTS["on a candidate's grid"]
        result = search_tensor_format(values, 8, 7, encodings=[fmt])
        assert result.mse == 0.0
        assert result.fmt == fmt

    @pytest.mark.parametrize("bitwidth", [4, 8])
    @pytest.mark.parametrize("values", [[1.0, np.nan, 2.0], [1.0, np.inf],
                                        [-np.inf, 0.5, np.nan]])
    def test_non_finite_values_are_rejected(self, values, bitwidth):
        bad = int(np.sum(~np.isfinite(values)))
        with pytest.raises(ValueError, match=f"{bad} non-finite"):
            search_tensor_format(np.array(values), bitwidth, 7)


class TestRegularizer:
    def test_zero_at_hard_decisions(self):
        values = regularizer_value(np.array([0.0, 1.0]), exponent=20.0)
        np.testing.assert_allclose(values, [0.0, 0.0], atol=1e-12)

    def test_maximal_at_half(self):
        assert regularizer_value(np.array([0.5]))[0] == pytest.approx(1.0)

    def test_symmetric_around_half(self):
        left = regularizer_value(np.array([0.3]))
        right = regularizer_value(np.array([0.7]))
        np.testing.assert_allclose(left, right)

    def test_higher_exponent_flattens_center(self):
        soft = regularizer_value(np.array([0.4]), exponent=2.0)[0]
        sharp = regularizer_value(np.array([0.4]), exponent=20.0)[0]
        assert sharp > soft


class TestRoundingLearning:
    @pytest.fixture(scope="class")
    def fp4_format(self):
        return FPFormat(2, 1, FPFormat.bias_for_max_value(2, 1, 1.0))

    def test_learns_rounding_for_linear_layer(self, fp4_format):
        rng = np.random.default_rng(0)
        layer = nn.Linear(16, 8, rng=rng)
        layer.weight.data = (rng.standard_normal((8, 16)) * 0.3).astype(np.float32)
        calibration = [rng.standard_normal((4, 16)).astype(np.float32)
                       for _ in range(6)]
        config = RoundingLearningConfig(iterations=60, learning_rate=5e-2,
                                        samples_per_iteration=4, seed=0)
        result = learn_rounding(layer, fp4_format, calibration, config)
        assert result.round_up.shape == layer.weight.shape
        assert result.round_up.dtype == bool
        assert len(result.losses) == 60
        # Learned rounding should not be worse than round-to-nearest on the
        # layer-output MSE it optimizes (allow small tolerance for noise).
        assert result.final_output_mse <= result.initial_output_mse * 1.05

    def test_learns_rounding_for_conv_layer(self, fp4_format):
        rng = np.random.default_rng(1)
        layer = nn.Conv2d(3, 4, kernel_size=3, padding=1, rng=rng)
        layer.weight.data = (rng.standard_normal((4, 3, 3, 3)) * 0.3).astype(np.float32)
        calibration = [rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
                       for _ in range(4)]
        config = RoundingLearningConfig(iterations=40, learning_rate=5e-2,
                                        samples_per_iteration=2, seed=1)
        result = learn_rounding(layer, fp4_format, calibration, config)
        assert result.round_up.shape == layer.weight.shape
        assert result.final_output_mse <= result.initial_output_mse * 1.05

    def test_learned_rounding_improves_over_worst_case(self, fp4_format):
        """Learned rounding should clearly beat an adversarial rounding choice."""
        rng = np.random.default_rng(2)
        layer = nn.Linear(8, 4, rng=rng)
        layer.weight.data = (rng.standard_normal((4, 8)) * 0.4).astype(np.float32)
        calibration = [rng.standard_normal((4, 8)).astype(np.float32) for _ in range(4)]
        result = learn_rounding(layer, fp4_format, calibration,
                                RoundingLearningConfig(iterations=50, seed=2,
                                                       learning_rate=5e-2))
        inputs = Tensor(calibration[0])
        reference = F.linear(inputs, layer.weight, layer.bias).data

        def output_mse(weights):
            produced = F.linear(inputs, Tensor(weights), layer.bias).data
            return float(np.mean((produced - reference) ** 2))

        learned = output_mse(quantize_fp_with_rounding(
            layer.weight.data, fp4_format, result.round_up))
        adversarial = output_mse(quantize_fp_with_rounding(
            layer.weight.data, fp4_format, ~result.round_up))
        assert learned < adversarial

    def test_reference_outputs_are_computed_once_per_sample(self, fp4_format,
                                                             monkeypatch):
        rng = np.random.default_rng(4)
        layer = nn.Linear(6, 3, rng=rng)
        layer.weight.data = (rng.standard_normal((3, 6)) * 0.5).astype(np.float32)
        calibration = [rng.standard_normal((2, 6)).astype(np.float32)
                       for _ in range(3)]
        full_weight_forwards = []
        forward = rounding._layer_forward

        def counting(module, inputs, weight):
            if np.array_equal(weight.data, layer.weight.data):
                full_weight_forwards.append(inputs.data)
            return forward(module, inputs, weight)

        monkeypatch.setattr(rounding, "_layer_forward", counting)
        learn_rounding(layer, fp4_format, calibration,
                       RoundingLearningConfig(iterations=4,
                                              samples_per_iteration=2))
        assert len(full_weight_forwards) == len(calibration)
        for sample, seen in zip(calibration, full_weight_forwards):
            np.testing.assert_array_equal(seen, sample)

    def test_requires_calibration_inputs(self, fp4_format):
        layer = nn.Linear(4, 4)
        with pytest.raises(ValueError):
            learn_rounding(layer, fp4_format, [])

    def test_rejects_unsupported_layer(self, fp4_format):
        with pytest.raises(TypeError):
            learn_rounding(nn.GroupNorm(2, 4), fp4_format,
                           [np.zeros((1, 4, 2, 2), dtype=np.float32)])

    def test_round_to_nearest_is_recovered_without_training(self, fp4_format):
        """With zero iterations the hardened alpha equals round-to-nearest."""
        rng = np.random.default_rng(3)
        layer = nn.Linear(6, 3, rng=rng)
        layer.weight.data = (rng.standard_normal((3, 6)) * 0.5).astype(np.float32)
        calibration = [rng.standard_normal((2, 6)).astype(np.float32)]
        result = learn_rounding(layer, fp4_format, calibration,
                                RoundingLearningConfig(iterations=0))
        hardened = quantize_fp_with_rounding(layer.weight.data, fp4_format,
                                             result.round_up)
        nearest = quantize_fp(layer.weight.data, fp4_format)
        np.testing.assert_allclose(hardened, nearest, rtol=1e-5, atol=1e-7)
