"""Tests for Algorithm 1 (format/bias search) and rounding learning (Sec. V-B)."""

import copy
import warnings

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
    fp4_fp8_config,
    learn_rounding,
    quantizable_layer_paths,
    quantization_mse,
    quantize_fp,
    quantize_fp_with_rounding,
    quantize_pipeline,
    regularizer_value,
    rounding,
    schemes,
    search,
    search_tensor_format,
)
from repro.core.fp import _grid
from repro.core.rounding import RoundingLearningResult, _initial_alpha
from repro.core.schemes import MAX_SEARCH_ELEMENTS, subsample
from repro.diffusion import DiffusionPipeline
from repro.models import DiffusionModel
from repro.tensor import Tensor
from repro.tensor import functional as F

from tiny_factories import make_tiny_spec


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


def _layer_forward(layer, inputs, weight):
    """A Conv2d or Linear layer's forward pass with substituted weights."""
    if isinstance(layer, nn.Conv2d):
        return F.conv2d(inputs, weight, layer.bias, stride=layer.stride,
                        padding=layer.padding)
    return F.linear(inputs, weight, layer.bias)


def autograd_learn_rounding(layer, fmt, calibration_inputs, config):
    """Rounding learning through the autograd engine: Eq. 12-14 built as a
    graph of tensor operations and differentiated by ``backward``.  The
    oracle the closed-form gradient of :func:`learn_rounding` must match
    bit for bit.  It accumulates gradients on ``layer.bias``, so callers
    pass a copy."""
    rng = np.random.default_rng(config.seed)
    weights = layer.weight.data.astype(np.float64)
    c = fmt.max_value
    clipped, scales = _grid(weights, c, fmt.bias, fmt.mantissa_bits)
    levels = clipped / scales
    floor_levels = np.floor(levels)

    alpha = nn.Parameter(_initial_alpha(levels - floor_levels))
    scales_t = Tensor(scales.astype(np.float32))
    floor_t = Tensor(floor_levels.astype(np.float32))
    full_weight = Tensor(weights.astype(np.float32))

    optimizer = nn.Adam([alpha], lr=config.learning_rate)
    calibration_inputs = [np.asarray(x, dtype=np.float32) for x in calibration_inputs]

    def quantized_weight():
        return (scales_t * (floor_t + alpha.sigmoid())).clip(-c, c)

    references = [_layer_forward(layer, Tensor(sample), full_weight).detach()
                  for sample in calibration_inputs]

    def output_mse(weight_tensor):
        total = 0.0
        for sample, reference in zip(calibration_inputs, references):
            produced = _layer_forward(layer, Tensor(sample), weight_tensor)
            diff = produced.data - reference.data
            total += float(np.mean(diff * diff))
        return total / len(calibration_inputs)

    result = RoundingLearningResult(round_up=np.zeros_like(weights, dtype=bool))
    result.initial_output_mse = output_mse(Tensor(
        quantize_fp_with_rounding(
            weights, fmt, np.round(levels) > floor_levels)))

    for _ in range(config.iterations):
        chosen = rng.integers(0, len(calibration_inputs),
                              size=min(config.samples_per_iteration,
                                       len(calibration_inputs)))
        loss_total = None
        for index in chosen:
            produced = _layer_forward(layer, Tensor(calibration_inputs[index]),
                                      quantized_weight())
            loss = F.mse_loss(produced, references[index])
            loss_total = loss if loss_total is None else loss_total + loss
        loss_total = loss_total * (1.0 / len(chosen))
        sig = alpha.sigmoid()
        regularizer = (1.0 - ((sig - 0.5).abs() * 2.0) ** config.reg_exponent).mean()
        loss_total = loss_total + regularizer * config.reg_weight
        optimizer.zero_grad()
        loss_total.backward()
        optimizer.step()
        result.losses.append(loss_total.item())

    round_up = (1.0 / (1.0 + np.exp(-alpha.data)) >= 0.5)
    result.round_up = round_up
    result.final_output_mse = output_mse(Tensor(
        quantize_fp_with_rounding(weights, fmt, round_up)))
    return result


def assert_same_rounding(layer, fmt, samples, config):
    """The closed form and the autograd oracle agree bit for bit."""
    got = learn_rounding(layer, fmt, samples, config)
    expected = autograd_learn_rounding(copy.deepcopy(layer), fmt, samples, config)
    np.testing.assert_array_equal(got.round_up, expected.round_up)
    assert got.losses == expected.losses
    assert got.initial_output_mse == expected.initial_output_mse
    assert got.final_output_mse == expected.final_output_mse


#: FP4 encodings with non-integer biases whose clip value ``c`` lies inside
#: the weights' range, so the clip mask of Eq. 12 is exercised.
ROUNDING_FORMATS = {
    "E2M1": FPFormat(2, 1, 2.3),
    "E1M2": FPFormat(1, 2, 0.6),
    "E3M0": FPFormat(3, 0, 5.7),
}


def _rounding_case(name, seed):
    """A layer named by ``name`` (kind, geometry, bias) with weights that
    cover the FP4 grids above, plus three calibration samples."""
    rng = np.random.default_rng(seed)
    kind, geometry, bias = name.split(" ")
    if kind == "linear":
        layer = nn.Linear(12, 5, bias=bias != "none", rng=rng)
        shape = (3, 12) if geometry == "2d" else (2, 3, 12)
    else:
        kernel, stride, padding = (int(part) for part in geometry.split("/"))
        layer = nn.Conv2d(3, 4, kernel_size=kernel, stride=stride,
                          padding=padding, bias=bias != "none", rng=rng)
        shape = (2, 3, 5, 5)
    layer.weight.data = rng.standard_normal(layer.weight.shape).astype(np.float32)
    layer.weight.data.flat[:2] = (4.0, -4.0)  # clipped on both sides
    if layer.bias is not None:
        layer.bias.data = (rng.standard_normal(layer.bias.shape) * 0.1).astype(np.float32)
        layer.bias.requires_grad = bias != "frozen"
    samples = [rng.standard_normal(shape).astype(np.float32) for _ in range(3)]
    return layer, samples


#: ``kind geometry bias``: conv geometry is ``kernel/stride/padding``; a
#: ``frozen`` bias has ``requires_grad=False``.
ROUNDING_LAYERS = (
    [f"linear {dims} {bias}" for dims in ("2d", "3d")
     for bias in ("bias", "none", "frozen")]
    + [f"conv {kernel}/{stride}/{padding} {bias}" for kernel in (1, 3)
       for stride in (1, 2) for padding in (0, 1) for bias in ("bias", "none")]
    + ["conv 1/1/0 frozen", "conv 3/1/1 frozen"])


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

    @pytest.mark.parametrize("bitwidth", [4, 8])
    def test_empty_tensor_is_rejected_before_any_arithmetic(self, bitwidth):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="empty tensor"):
                search_tensor_format(np.zeros(0, np.float32), bitwidth, 7)


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
        builds, full_weight_forwards = [], []
        build = rounding._product

        def counting(module, sample):
            product = build(module, sample)
            builds.append(sample)
            forward = product.forward

            def recording(weight, view=True):
                if np.array_equal(weight, layer.weight.data):
                    full_weight_forwards.append(sample)
                return forward(weight, view)

            product.forward = recording
            return product

        monkeypatch.setattr(rounding, "_product", counting)
        learn_rounding(layer, fp4_format, calibration,
                       RoundingLearningConfig(iterations=4,
                                              samples_per_iteration=2))
        for seen in (builds, full_weight_forwards):
            assert len(seen) == len(calibration)
            for sample, recorded in zip(calibration, seen):
                np.testing.assert_array_equal(recorded, sample)

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


class TestRoundingConfigValidation:
    @pytest.mark.parametrize("field, value", [
        ("iterations", -3),
        ("samples_per_iteration", 0),
        ("learning_rate", -1.0),
        ("learning_rate", 0.0),
        ("learning_rate", float("nan")),
        ("learning_rate", float("inf")),
        ("reg_weight", -0.5),
        ("reg_weight", float("nan")),
        ("reg_exponent", 0.5),
        ("reg_exponent", float("inf")),
    ])
    def test_rejects_values_that_break_learning(self, field, value):
        with pytest.raises(ValueError, match=f"{field} .*{value}"):
            RoundingLearningConfig(**{field: value})

    def test_accepts_boundary_values(self):
        config = RoundingLearningConfig(iterations=0, samples_per_iteration=1,
                                        reg_weight=0.0, reg_exponent=1.0)
        assert config.iterations == 0


class TestClosedFormRounding:
    """:func:`learn_rounding` computes Eq. 13-14's gradient in closed form;
    it must equal the autograd spelling bit for bit: the learned rounding,
    every loss and both output MSEs."""

    @pytest.mark.parametrize("fmt_name", sorted(ROUNDING_FORMATS))
    @pytest.mark.parametrize("layer_name", ROUNDING_LAYERS)
    def test_matches_autograd_oracle(self, layer_name, fmt_name):
        layer, samples = _rounding_case(layer_name, seed=len(layer_name))
        assert_same_rounding(layer, ROUNDING_FORMATS[fmt_name], samples,
                             RoundingLearningConfig(iterations=5,
                                                    samples_per_iteration=2,
                                                    learning_rate=5e-2, seed=3))

    @pytest.mark.parametrize("samples_per_iteration", [1, 2, 5])
    @pytest.mark.parametrize("iterations", [0, 1, 40])
    @pytest.mark.parametrize("layer_name", ["linear 3d bias", "conv 3/2/1 bias"])
    def test_matches_autograd_oracle_across_budgets(self, layer_name, iterations,
                                                    samples_per_iteration):
        layer, samples = _rounding_case(layer_name, seed=11)
        assert_same_rounding(layer, ROUNDING_FORMATS["E2M1"], samples,
                             RoundingLearningConfig(
                                 iterations=iterations,
                                 samples_per_iteration=samples_per_iteration,
                                 learning_rate=5e-2, seed=iterations))

    @pytest.mark.parametrize("reg_weight, reg_exponent", [(0.0, 20.0), (0.5, 1.0),
                                                          (0.5, 2.0), (0.1, 3.5)])
    def test_matches_autograd_oracle_across_regularizers(self, reg_weight,
                                                         reg_exponent):
        layer, samples = _rounding_case("conv 3/1/1 bias", seed=5)
        assert_same_rounding(layer, ROUNDING_FORMATS["E1M2"], samples,
                             RoundingLearningConfig(
                                 iterations=8, samples_per_iteration=2,
                                 learning_rate=5e-2, reg_weight=reg_weight,
                                 reg_exponent=reg_exponent))

    def test_matches_autograd_oracle_on_unet_layers(self, tiny_pipeline,
                                                    monkeypatch):
        """Every layer the FP4/FP8 row learns rounding for on the tiny U-Net."""
        config = fp4_fp8_config().scaled_for_speed(num_bias_candidates=7,
                                                   rounding_iterations=6)
        config.calibration = CalibrationConfig(num_samples=2,
                                               max_records_per_layer=3,
                                               batch_size=2)
        config.rounding = RoundingLearningConfig(iterations=6,
                                                 samples_per_iteration=2, seed=4)
        calls = []

        def recording(layer, fmt, samples, rounding_config):
            calls.append((layer, fmt, samples, rounding_config))
            return learn_rounding(layer, fmt, samples, rounding_config)

        monkeypatch.setattr(schemes, "learn_rounding", recording)
        _, report = quantize_pipeline(tiny_pipeline, config)
        assert len(calls) == sum(record.rounding_learning_used
                                 for record in report.layers) > 0
        kinds = {type(layer) for layer, *_ in calls}
        assert kinds == {nn.Conv2d, nn.Linear}
        for layer, fmt, samples, rounding_config in calls:
            assert_same_rounding(layer, fmt, samples, rounding_config)

    def test_writes_no_gradient(self):
        """Neither learn_rounding nor a quantize run leaves a gradient on
        any parameter: quantized artifacts carry no optimizer state."""
        pipeline = DiffusionPipeline(
            DiffusionModel(make_tiny_spec(), rng=np.random.default_rng(5)),
            num_steps=4)
        config = fp4_fp8_config().scaled_for_speed(num_bias_candidates=7,
                                                   rounding_iterations=3)
        config.calibration = CalibrationConfig(num_samples=2,
                                               max_records_per_layer=2,
                                               batch_size=2)
        quantized, report = quantize_pipeline(pipeline, config)
        assert any(record.rounding_learning_used for record in report.layers)
        for model in (pipeline.model, quantized.model):
            assert [name for name, param in model.named_parameters()
                    if param.grad is not None] == []

        layer, samples = _rounding_case("conv 3/1/1 bias", seed=2)
        learn_rounding(layer, ROUNDING_FORMATS["E2M1"], samples,
                       RoundingLearningConfig(iterations=3))
        assert layer.bias.grad is None and layer.weight.grad is None
