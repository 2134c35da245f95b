"""Equivalence and selection tests for the pluggable compute backends.

The contract under test (see ``src/repro/tensor/backend.py``):

* the ``reference`` backend is bit-identical to the plain numpy
  spellings it replaced, for every kernel of the contract;
* the ``accelerated`` backend's integer GEMM quantizes activations with
  the exact arithmetic of ``int_levels`` (integer grids) or ``fp_levels``
  (FP grids, in units of the subnormal step), accumulates exact integer
  dot products, and matches the reference fake-quantize-then-GEMM within
  its documented tolerance (one float32 rounding against float32 operands
  and BLAS order), across schemes and shapes;
* every product the integer kernels cannot take — guards, gates,
  weight-only layers, no kernels — declines to the reference path, and
  a declined product is bit-identical to the reference backend;
* backend selection is explicit and scoped — process default via
  ``set_backend`` / ``REPRO_BACKEND``, thread-local override via
  ``use_backend`` — and never leaks across threads;
* the integer path only engages inside inference mode and within the
  eligibility gates, so autograd numerics are backend-independent.
"""

import copy
import gc
import os
import pickle
import subprocess
import sys
import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    CalibrationConfig,
    FPFormat,
    IdentityQuantizer,
    QuantizedConv2d,
    QuantizedLinear,
    fp4_fp8_config,
    fp_levels,
    int4_int8_config,
    int8_int8_config,
    quantize_fp,
    quantize_pipeline,
)
from repro.core.integer import (
    IntFormat,
    calibrate_int_format,
    int_levels,
    quantize_int,
)
from repro.core.qmodules import (
    BlockFPTensorQuantizer,
    FPTensorQuantizer,
    IntTensorQuantizer,
    PackedIntWeight,
    PerChannelIntTensorQuantizer,
    _pack_levels,
)
from repro.diffusion import DiffusionPipeline
from repro.models import DiffusionModel, ModelSpec, UNetConfig
from repro.nn import Conv2d, GroupNorm, LayerNorm, Linear
from repro.tensor import (
    Tensor,
    active_backend,
    count_macs,
    get_backend,
    inference_mode,
    list_backends,
    set_backend,
    use_backend,
)
from repro.tensor import functional as F
from repro.tensor import _ckernels
from repro.tensor.backend import (
    AcceleratedBackend,
    PackedLevelsView,
    reference_backend,
)
from repro.tensor.functional import _im2col

from tiny_factories import fp_probe_values

#: A fused-eligible weight: N * K >= _FUSED_MIN_WEIGHT.
ELIGIBLE_N, ELIGIBLE_K = 512, 1024

#: The process default honors REPRO_BACKEND (the backend-matrix CI job
#: runs this very suite under both values).
DEFAULT_BACKEND = os.environ.get("REPRO_BACKEND", "reference")

RNG = np.random.default_rng(11)


def _packed_storage(scheme: str, n: int, k: int, per_channel: bool = False):
    """(storage, float_weight) pair for a fused-eligible random weight."""
    bits = {"int8": 8, "int4": 4}[scheme]
    weight = (RNG.standard_normal((n, k)) * 0.05).astype(np.float32)
    if per_channel:
        quantizer = PerChannelIntTensorQuantizer.calibrated(weight, bits)
    else:
        quantizer = IntTensorQuantizer(calibrate_int_format(weight, bits))
    storage = quantizer.pack_weights(weight)
    assert storage is not None
    return storage, storage.dequantize()


def _reference_product(x2d: np.ndarray, act: IntFormat,
                       storage: PackedIntWeight) -> np.ndarray:
    """The float path: fake-quantize the input, GEMM the dequantized weight."""
    dequant = storage.dequantize().reshape(storage.shape[0], -1)
    return quantize_int(x2d, act) @ dequant.T


def _int_linear(backend, x2d: np.ndarray, storage: PackedIntWeight,
                act: IntFormat, bias=None):
    """``backend.fused_int_gemm`` on a ``(M, K)`` input, as ``(M, N)``."""
    out = backend.fused_int_gemm(x2d[:, :, None, None],
                                 storage.packed_view(), act, bias=bias)
    return None if out is None else out.reshape(x2d.shape[0], -1)


def _loaded_kernels():
    kernels = _ckernels.load_kernels()
    if kernels is None:
        pytest.skip(f"integer kernels {_ckernels.kernel_status()}")
    return kernels


def _assert_within_tolerance(actual, expected):
    scale = max(float(np.max(np.abs(expected))), 1.0)
    np.testing.assert_allclose(actual, expected, rtol=1e-3, atol=1e-3 * scale)


@pytest.fixture
def restore_default_backend():
    yield
    set_backend(DEFAULT_BACKEND)


@pytest.fixture
def reload_kernels():
    """Tests that flip the kernel env gates must not poison the memo."""
    _ckernels.reset_kernels_for_testing()
    yield
    _ckernels.reset_kernels_for_testing()


# ----------------------------------------------------------------------
# reference backend: bit-identical to the raw numpy spellings
# ----------------------------------------------------------------------
class TestReferenceBitIdentity:
    def test_gemm_matches_numpy(self):
        a = RNG.standard_normal((7, 13)).astype(np.float32)
        b = RNG.standard_normal((13, 5)).astype(np.float32)
        backend = reference_backend()
        assert np.array_equal(backend.gemm(a, b), a @ b)
        assert np.array_equal(backend.gemm(a, b.T, transpose_b=True),
                              a @ b)
        assert np.array_equal(backend.gemm(a.T, b, transpose_a=True),
                              a @ b)

    def test_batched_gemm_matches_numpy(self):
        a = RNG.standard_normal((3, 4, 6)).astype(np.float32)
        b = RNG.standard_normal((3, 6, 5)).astype(np.float32)
        assert np.array_equal(reference_backend().batched_gemm(a, b), a @ b)

    def test_im2col_conv_matches_numpy(self):
        cols = RNG.standard_normal((2, 9, 12)).astype(np.float32)
        w_mat = RNG.standard_normal((4, 12)).astype(np.float32)
        bias = RNG.standard_normal(4).astype(np.float32)
        expected = cols @ w_mat.T + bias.reshape(1, 1, -1)
        assert np.array_equal(
            reference_backend().im2col_conv(cols, w_mat, bias), expected)

    def test_norm_and_activation_fast_paths_match_numpy(self):
        # Norms and activations are plain numpy on every backend; their
        # graph-free outputs are these spellings, bit for bit.
        x = RNG.standard_normal((2, 8, 4, 4)).astype(np.float32)
        flat = RNG.standard_normal((3, 16)).astype(np.float32)
        sig = 1.0 / (1.0 + np.exp(-flat))
        assert np.array_equal(Tensor(flat).silu().data, flat * sig)
        shifted = flat - flat.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        assert np.array_equal(Tensor(flat).softmax().data,
                              exp / exp.sum(axis=-1, keepdims=True))

        def normalize(grouped):
            inv_count = np.float32(1.0 / grouped.shape[-1])
            centered = grouped - grouped.sum(axis=-1, keepdims=True) * inv_count
            var = (centered * centered).sum(axis=-1, keepdims=True) * inv_count
            return centered / np.sqrt(var + np.float32(1e-5))

        group_norm = GroupNorm(2, 8)
        group_norm.weight.data[...] = RNG.uniform(0.5, 1.5, 8)
        group_norm.bias.data[...] = RNG.uniform(-0.5, 0.5, 8)
        layer_norm = LayerNorm(16)
        layer_norm.weight.data[...] = RNG.uniform(0.5, 1.5, 16)
        with inference_mode():  # the parameters would build a graph
            grouped = group_norm(Tensor(x)).data
            layered = layer_norm(Tensor(flat)).data
        expected = (normalize(x.reshape(2, 2, -1)).reshape(x.shape)
                    * group_norm.weight.data.reshape(1, 8, 1, 1)
                    + group_norm.bias.data.reshape(1, 8, 1, 1))
        assert np.array_equal(grouped, expected)
        expected = normalize(flat) * layer_norm.weight.data + layer_norm.bias.data
        assert np.array_equal(layered, expected)

    def test_reference_never_fuses(self):
        storage, _ = _packed_storage("int8", ELIGIBLE_N, ELIGIBLE_K)
        x = RNG.standard_normal((1, ELIGIBLE_K)).astype(np.float32)
        assert _int_linear(reference_backend(), x, storage,
                           calibrate_int_format(x, 8)) is None


# ----------------------------------------------------------------------
# accelerated backend: integer GEMM within documented tolerance
# ----------------------------------------------------------------------
class TestFusedDequantGemm:
    """The integer GEMM, whose epilogue dequantizes the exact dots."""

    @pytest.mark.parametrize("scheme", ["int8", "int4"])
    @pytest.mark.parametrize("per_channel", [False, True])
    @pytest.mark.parametrize("m_rows", [1, 4, 8])
    def test_matches_reference_within_tolerance(self, scheme, per_channel,
                                                m_rows):
        _loaded_kernels()
        storage, _ = _packed_storage(scheme, ELIGIBLE_N, ELIGIBLE_K,
                                     per_channel=per_channel)
        x = RNG.standard_normal((m_rows, ELIGIBLE_K)).astype(np.float32)
        act = calibrate_int_format(x, 8)
        out = _int_linear(get_backend("accelerated"), x, storage, act)
        assert out is not None and out.dtype == np.float32
        _assert_within_tolerance(out, _reference_product(x, act, storage))

    @pytest.mark.parametrize("scheme", ["int8", "int4"])
    def test_bias_is_added(self, scheme):
        _loaded_kernels()
        storage, _ = _packed_storage(scheme, ELIGIBLE_N, ELIGIBLE_K)
        x = RNG.standard_normal((2, ELIGIBLE_K)).astype(np.float32)
        act = calibrate_int_format(x, 8)
        bias = RNG.standard_normal(ELIGIBLE_N).astype(np.float32)
        out = _int_linear(get_backend("accelerated"), x, storage, act,
                          bias=bias)
        _assert_within_tolerance(
            out, _reference_product(x, act, storage) + bias)

    def test_declines_wide_products(self):
        storage, _ = _packed_storage("int8", ELIGIBLE_N, ELIGIBLE_K)
        wide_m = AcceleratedBackend._FUSED_MAX_M + 1
        x = RNG.standard_normal((wide_m, ELIGIBLE_K)).astype(np.float32)
        assert _int_linear(get_backend("accelerated"), x, storage,
                           calibrate_int_format(x, 8)) is None

    def test_declines_below_the_smallest_measured_weight(self):
        _loaded_kernels()
        depth = 128
        rows = -(-AcceleratedBackend._FUSED_MIN_WEIGHT // depth)
        x = RNG.standard_normal((1, depth)).astype(np.float32)
        for n_rows, engages in ((rows - 1, False), (rows, True)):
            storage, _ = _packed_storage("int8", n_rows, depth)
            out = _int_linear(get_backend("accelerated"), x, storage,
                              calibrate_int_format(x, 8))
            assert (out is not None) == engages, n_rows

    def test_odd_reduction_depth_has_no_nibble_view(self):
        weight = (RNG.standard_normal((512, 1023)) * 0.05).astype(np.float32)
        quantizer = IntTensorQuantizer(calibrate_int_format(weight, 4))
        storage = quantizer.pack_weights(weight)
        assert storage.packed_view() is None

    @pytest.mark.parametrize("scheme", ["int8", "int4"])
    def test_disabled_kernels_decline_bit_identically(self, scheme,
                                                      monkeypatch,
                                                      reload_kernels):
        monkeypatch.setenv("REPRO_NO_CKERNELS", "1")
        module = _quantized_conv(scheme)
        x = Tensor(RNG.standard_normal((1, 64, 2, 2)).astype(np.float32))
        with inference_mode(), use_backend("accelerated"):
            assert F.fused_conv2d(x, module.packed_weight, module.bias,
                                  padding=1, kernel_size=3,
                                  act_format=module._integer_activations()
                                  ) is None
            actual = module(x).data
        assert _ckernels.kernel_status() == "disabled"
        with inference_mode(), use_backend("reference"):
            expected = module(x).data
        assert np.array_equal(actual, expected)


# ----------------------------------------------------------------------
# the C entry point, bound by kernel plans, against numpy
# ----------------------------------------------------------------------
def _levels_view(levels: np.ndarray, bits: int, zero_points) -> PackedLevelsView:
    """The packed view of ``(N, K)`` weight levels, with unit scales."""
    n_rows, k = levels.shape
    return PackedLevelsView(
        packed=_pack_levels(levels, bits).reshape(n_rows, -1), bitwidth=bits,
        shape=(n_rows, k), scales=np.ones(n_rows),
        zero_points=np.asarray(zero_points, dtype=np.float64),
        level_sums=levels.sum(axis=1, dtype=np.int64))


def _patch_levels(kernels, x: np.ndarray, act, kernel_size: int, stride: int,
                  padding: int) -> np.ndarray:
    """The ``(M, K)`` activation levels the C code gathers from ``x``.

    Read back through an identity weight: output channel ``j`` dots patch
    column ``j`` alone, and the epilogue returns ``s_a (q_a - z_a)`` in
    float64, rounded once to float32, which gives back ``q_a`` exactly.
    """
    k = x.shape[1] * kernel_size ** 2
    identity = _levels_view(np.eye(k, dtype=np.uint8), 8, np.zeros(k))
    out = kernels.plan(identity, act, x.shape, kernel_size, stride,
                       padding)(x)
    products = out.transpose(0, 2, 3, 1).reshape(-1, k).astype(np.float64)
    if hasattr(act, "mantissa_bits"):
        return np.rint(products / act.min_subnormal)
    return np.rint(products / act.scale) + act.zero_point


class TestIntegerKernels:
    @pytest.mark.parametrize("bits", [8, 4])
    @pytest.mark.parametrize("m_rows", range(1, 9))
    def test_int32_dots_equal_int64_matmul(self, bits, m_rows):
        kernels = _loaded_kernels()
        # K off the 16- and 64-byte vector widths; odd K for byte levels.
        depths = (1, 17, 63, 129, 1001) if bits == 8 else (2, 18, 62, 130, 998)
        for k in depths:
            n_rows = 7
            acts = RNG.integers(0, 256, (m_rows, k), dtype=np.uint8)
            levels = RNG.integers(0, 2 ** bits, (n_rows, k), dtype=np.uint8)
            # Zero points near mid-range keep the corrected dots below
            # 2**24, so the float32 output holds them exactly.
            zero_points = RNG.integers(2 ** bits // 2 - 3, 2 ** bits // 2 + 3,
                                       n_rows).astype(np.float64)
            act_zero_point = int(RNG.integers(125, 131))
            # On a unit grid the input q_a - z_a quantizes to q_a.
            x = (acts.astype(np.float32) - act_zero_point)[:, :, None, None]
            plan = kernels.plan(_levels_view(levels, bits, zero_points),
                                IntFormat(8, 1.0, act_zero_point), x.shape)
            exact = ((acts.astype(np.int64) - act_zero_point)
                     @ (levels.astype(np.int64)
                        - zero_points.astype(np.int64)[:, None]).T)
            assert np.all(np.abs(exact) < 2 ** 24)
            np.testing.assert_array_equal(plan(x)[:, :, 0, 0], exact,
                                          err_msg=f"K={k}")

    def test_int32_accumulator_reaches_its_bound_exactly(self):
        kernels = _loaded_kernels()
        # The largest K the byte-level guard admits drives the signed
        # accumulator to -K * 255 * 128, one step from int32 overflow.
        k = 2 ** 31 // (255 * 128)
        x = np.full((2, k, 1, 1), 255.0, dtype=np.float32)
        levels = np.stack([np.zeros(k, np.uint8), np.full(k, 255, np.uint8)])
        plan = kernels.plan(_levels_view(levels, 8, [1.0, 254.0]),
                            IntFormat(8, 1.0, 0), x.shape)
        # sum 255 * (0 - 1) and sum 255 * (255 - 254): +-16777215 < 2**24.
        np.testing.assert_array_equal(plan(x)[:, :, 0, 0],
                                      [[-k * 255, k * 255]] * 2)

    @pytest.mark.parametrize("kernel_size", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("batch", [1, 2])
    def test_quantize_patches_equals_int_levels_then_im2col(
            self, kernel_size, stride, padding, batch):
        kernels = _loaded_kernels()
        x = RNG.standard_normal((batch, 5, 7, 6)).astype(np.float32)
        act = calibrate_int_format(x, 8)
        levels = int_levels(x, act).astype(np.float32)
        padded = np.pad(levels, ((0, 0), (0, 0), (padding,) * 2,
                                 (padding,) * 2),
                        constant_values=act.zero_point)
        expected, _ = _im2col(padded, (kernel_size, kernel_size), stride, 0)
        expected = expected.reshape(-1, expected.shape[-1])
        np.testing.assert_array_equal(
            _patch_levels(kernels, x, act, kernel_size, stride, padding),
            expected)

    @pytest.mark.parametrize("bits", [8, 4, 2])
    def test_linear_levels_equal_int_levels(self, bits):
        kernels = _loaded_kernels()
        # Values past the calibrated range exercise the clipping.
        x = (RNG.standard_normal((3, 301, 1, 1)) * 3).astype(np.float32)
        act = calibrate_int_format(x[:, :100], bits)
        np.testing.assert_array_equal(_patch_levels(kernels, x, act, 1, 1, 0),
                                      int_levels(x, act).reshape(3, 301))

    def test_malformed_buffers_are_refused(self):
        # A plan checks every buffer once, when it is built.  The input is
        # converted on every call, and the output, the level image and the
        # patch matrix are allocated by the plan and the C code, so no
        # caller can hand over a malformed one.
        kernels = _loaded_kernels()
        levels = np.zeros((8, 64), dtype=np.uint8)
        view = _levels_view(levels, 8, np.zeros(8))
        act, shape = IntFormat(8, 1.0, 0), (4, 64, 1, 1)
        plan = kernels.plan(view, act, shape)
        assert plan(np.zeros(shape)).shape == (4, 8, 1, 1)
        with pytest.raises(ValueError):  # an input of another shape
            plan(np.zeros((4, 63, 1, 1), dtype=np.float32))
        bad_plans = [
            (replace(view, packed=np.zeros((8, 128), np.uint8)[:, ::2]), act,
             shape, {}),
            (replace(view, packed=levels.astype(np.int8)), act, shape, {}),
            (replace(view, bitwidth=4), act, shape, {}),  # bytes as nibbles
            (replace(view, scales=np.ones(7)), act, shape, {}),
            (replace(view, level_sums=view.level_sums.astype(np.int32)), act,
             shape, {}),
            (view, act, shape, {"bias": np.ones(8)}),  # float64 bias
            (view, IntFormat(9, 1.0, 0), shape, {}),  # levels past uint8
            (view, act, (4, 32, 1, 1), {}),  # K does not match the input
            (view, act, (1, 64, 3, 3), {"kernel_size": 3}),
            (_levels_view(np.zeros((8, 50), np.uint8), 8, np.zeros(8)), act,
             (1, 2, 3, 3), {"kernel_size": 5}),  # no 5x5 patches of 3x3
        ]
        for bad_view, bad_act, bad_shape, kwargs in bad_plans:
            with pytest.raises(ValueError):
                kernels.plan(bad_view, bad_act, bad_shape, **kwargs)

    def test_read_only_inputs_are_taken(self):
        kernels = _loaded_kernels()
        levels = RNG.integers(0, 256, (8, 64), dtype=np.uint8)
        x = RNG.standard_normal((2, 64, 1, 1)).astype(np.float32)
        plan = kernels.plan(_levels_view(levels, 8, np.full(8, 128.0)),
                            calibrate_int_format(x, 8), x.shape)
        expected = plan(x)
        x.flags.writeable = False
        _assert_bits_equal(plan(x), expected)

    def test_plans_are_never_pickled_or_copied(self):
        kernels = _loaded_kernels()
        view = _levels_view(np.zeros((8, 64), dtype=np.uint8), 8, np.zeros(8))
        plan = kernels.plan(view, IntFormat(8, 1.0, 0), (1, 64, 1, 1))
        for clone in (pickle.dumps, copy.copy, copy.deepcopy):
            with pytest.raises(TypeError):
                clone(plan)


class TestIntegerGuards:
    """Every product the integer kernels cannot take exactly declines."""

    def _storage(self, n_rows, k):
        levels = RNG.integers(0, 256, (n_rows, k), dtype=np.uint8)
        return PackedIntWeight(_pack_levels(levels, 8), (n_rows, k),
                               IntFormat(8, 0.01, 128))

    def test_byte_levels_past_the_int32_bound_decline(self):
        _loaded_kernels()
        backend = get_backend("accelerated")
        act = IntFormat(8, 0.05, 128)
        limit = 2 ** 31 // (255 * 128)  # 65793
        for k, engages in ((limit, True), (limit + 1, False)):
            storage = self._storage(4, k)
            x = RNG.standard_normal((1, k)).astype(np.float32)
            out = _int_linear(backend, x, storage, act)
            assert (out is not None) == engages, k

    def test_activation_bitwidth_above_eight_declines(self):
        _loaded_kernels()
        storage, _ = _packed_storage("int8", ELIGIBLE_N, ELIGIBLE_K)
        x = RNG.standard_normal((1, ELIGIBLE_K)).astype(np.float32)
        backend = get_backend("accelerated")
        for bits, engages in ((8, True), (9, False)):
            act = calibrate_int_format(x, bits)
            assert (_int_linear(backend, x, storage, act) is not None) == engages

    def test_padded_conv_without_a_zero_level_declines(self):
        _loaded_kernels()
        module = _quantized_conv("int8")
        # Only positive values: the zero point falls below level 0.
        x = np.abs(RNG.standard_normal((1, 64, 2, 2))).astype(np.float32) + 1
        act = calibrate_int_format(x, 8)
        assert act.zero_point < 0
        backend = get_backend("accelerated")
        view = module.packed_weight.packed_view()
        assert backend.fused_int_gemm(x, view, act, kernel_size=3,
                                      padding=1) is None
        unpadded = np.abs(RNG.standard_normal((1, 64, 4, 4))).astype(
            np.float32) + 1
        assert backend.fused_int_gemm(unpadded, view, act, kernel_size=3,
                                      padding=0) is not None

    def test_weight_only_layers_take_the_reference_path(self):
        layer = Linear(ELIGIBLE_K, ELIGIBLE_N, rng=np.random.default_rng(5))
        quantizer = IntTensorQuantizer(calibrate_int_format(
            layer.weight.data, 8))
        module = QuantizedLinear(
            layer, quantizer.quantize(layer.weight.data), IdentityQuantizer(),
            packed_weight=quantizer.pack_weights(layer.weight.data))
        assert module._integer_activations() is None
        x = Tensor(RNG.standard_normal((2, ELIGIBLE_K)).astype(np.float32))
        with inference_mode(), use_backend("accelerated"):
            assert F.fused_linear(x, module.packed_weight, module.bias) is None
            actual = module(x).data
        with inference_mode(), use_backend("reference"):
            expected = module(x).data
        assert np.array_equal(actual, expected)


# ----------------------------------------------------------------------
# the FP path: FP4 weights as packed levels, FP activations as int16
# ----------------------------------------------------------------------
#: The FP encodings whose levels fit the integer kernels (FP4 weights and
#: FP4/FP8 activations); E4M3/E5M2 levels exceed int16.
KERNEL_FP_FORMATS = ("E1M2", "E2M1", "E2M5", "E3M4")


def _fp_format(name: str, max_value: float) -> FPFormat:
    """``name`` with the bias that makes ``max_value`` its largest value."""
    fmt = FPFormat.from_name(name)
    return fmt.with_bias(float(FPFormat.bias_for_max_value(
        fmt.exponent_bits, fmt.mantissa_bits, max_value)))


def _fp_quantized(cls, layer, weight_name: str, act_name: str):
    """(module, served weight): ``weight_name`` weights packed when the
    format allows it, ``act_name`` activations with range 3."""
    weight = layer.weight.data
    quantizer = FPTensorQuantizer(_fp_format(weight_name,
                                             float(np.abs(weight).max())))
    served = quantizer.quantize(weight)
    module = cls(layer, served, FPTensorQuantizer(_fp_format(act_name, 3.0)),
                 packed_weight=quantizer.pack_weights(served))
    return module, served


def _fp_linear(weight_name="E1M2", act_name="E2M5"):
    layer = Linear(ELIGIBLE_K, ELIGIBLE_N, rng=np.random.default_rng(5))
    return _fp_quantized(QuantizedLinear, layer, weight_name, act_name)


def _fp_conv(weight_name="E1M2", act_name="E2M5"):
    layer = Conv2d(64, 512, kernel_size=3, padding=1,
                   rng=np.random.default_rng(6))
    return _fp_quantized(QuantizedConv2d, layer, weight_name, act_name)


def _parent_output(module, served, x: np.ndarray) -> np.ndarray:
    """What the layer computes without a packed weight: fake-quantize the
    input, then GEMM the served float weight on the reference backend."""
    quantized = Tensor(module.activation_quantizer.quantize(x))
    weight = Tensor(served)
    with inference_mode(), use_backend("reference"):
        if isinstance(module, QuantizedConv2d):
            return F.conv2d(quantized, weight, module.bias,
                            stride=module.stride, padding=module.padding).data
        return F.linear(quantized, weight, module.bias).data


def _assert_bits_equal(actual, expected):
    np.testing.assert_array_equal(actual.view(np.uint32),
                                  expected.view(np.uint32))


class TestFPKernels:
    @pytest.mark.parametrize("kernel_size", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("batch", [1, 2])
    def test_quantize_fp_patches_equals_fp_levels_then_im2col(
            self, kernel_size, stride, padding, batch):
        kernels = _loaded_kernels()
        rng = np.random.default_rng(kernel_size * 8 + stride * 4 + padding * 2
                                    + batch)
        shape = (batch, 5, 7, 6)
        for name in KERNEL_FP_FORMATS:
            for bias in (FPFormat.from_name(name).bias,
                         *rng.uniform(-30, 8, size=3)):
                fmt = FPFormat.from_name(name, float(bias))
                x = rng.choice(fp_probe_values(fmt, rng, size=200),
                               size=shape).astype(np.float32)
                levels = np.pad(fp_levels(x, fmt),
                                ((0, 0), (0, 0), (padding,) * 2,
                                 (padding,) * 2))
                expected, _ = _im2col(levels, (kernel_size, kernel_size),
                                      stride, 0)
                np.testing.assert_array_equal(
                    _patch_levels(kernels, x, fmt, kernel_size, stride,
                                  padding),
                    expected.reshape(-1, expected.shape[-1]),
                    err_msg=f"{name} bias {bias}")

    @pytest.mark.parametrize("name", KERNEL_FP_FORMATS)
    def test_linear_levels_equal_fp_levels(self, name):
        kernels = _loaded_kernels()
        rng = np.random.default_rng(3)
        fmt = _fp_format(name, 2.5)
        values = fp_probe_values(fmt, rng, size=500)
        x = rng.choice(values, size=(3, 301, 1, 1)).astype(np.float32)
        np.testing.assert_array_equal(_patch_levels(kernels, x, fmt, 1, 1, 0),
                                      fp_levels(x, fmt).reshape(3, 301))

    @pytest.mark.parametrize("bits", [8, 4])
    @pytest.mark.parametrize("m_rows", range(1, 9))
    def test_int16_dots_equal_int64_matmul(self, bits, m_rows):
        kernels = _loaded_kernels()
        fmt = FPFormat.from_name("E3M4")
        # Every level of the grid, up to 1984 units of its subnormal step.
        grid = np.unique(fp_levels(fmt.representable_values(), fmt))
        depths = (1, 17, 63, 129, 1001) if bits == 8 else (2, 18, 62, 130, 998)
        for k in depths:
            n_rows = 7
            acts = RNG.choice(grid, (m_rows, k))
            levels = RNG.integers(0, 2 ** bits, (n_rows, k), dtype=np.uint8)
            zero_points = RNG.integers(0, 2 ** bits, n_rows).astype(np.float64)
            x = (acts * fmt.min_subnormal).astype(np.float32)[:, :, None, None]
            plan = kernels.plan(_levels_view(levels, bits, zero_points), fmt,
                                x.shape)
            exact = acts.astype(np.int64) @ (
                levels.astype(np.int64)
                - zero_points.astype(np.int64)[:, None]).T
            # One rounding of the exact integer, in units of the step.
            np.testing.assert_array_equal(
                plan(x)[:, :, 0, 0],
                (exact * fmt.min_subnormal).astype(np.float32),
                err_msg=f"K={k}")

    @pytest.mark.parametrize("bits", [8, 4])
    def test_int16_accumulator_reaches_its_bound_exactly(self, bits):
        kernels = _loaded_kernels()
        # The largest K the E3M4 guard admits: byte levels enter the dots as
        # w - 128, so a row of zero levels drives the accumulator to
        # -K * 1984 * 128; nibbles enter as they are, up to K * 1984 * 15.
        fmt = FPFormat.from_name("E3M4")
        weight_max, top = (128, 255) if bits == 8 else (15, 15)
        k = (2 ** 31 - 1) // (1984 * weight_max)
        k -= k % 2
        x = np.full((2, k, 1, 1), fmt.max_value, dtype=np.float32)
        levels = np.stack([np.zeros(k, np.uint8), np.full(k, top, np.uint8)])
        plan = kernels.plan(_levels_view(levels, bits, [0.0, top - 1.0]), fmt,
                            x.shape)
        np.testing.assert_array_equal(
            plan(x)[:, :, 0, 0],
            np.float32([[0, k * 1984 * fmt.min_subnormal]] * 2))

    def test_malformed_fp_buffers_are_refused(self):
        # The int16 levels and their scratch are allocated in C, and an FP
        # grid has no zero point to get wrong; what is left to refuse at
        # plan build is a grid whose levels do not fit int16.
        kernels = _loaded_kernels()
        view = _levels_view(np.zeros((8, 18), dtype=np.uint8), 8, np.zeros(8))
        shape = (1, 2, 3, 3)
        kernels.plan(view, FPFormat.from_name("E3M4"), shape, kernel_size=3,
                     padding=1)
        for name in ("E4M3", "E5M2"):  # levels past int16
            with pytest.raises(ValueError):
                kernels.plan(view, FPFormat.from_name(name), shape,
                             kernel_size=3, padding=1)


class TestIntPacking:
    @pytest.mark.parametrize("bits", [8, 4, 2])
    @pytest.mark.parametrize("per_channel", [False, True])
    def test_dequantize_is_the_simulated_quantization(self, bits,
                                                      per_channel):
        weight = (RNG.standard_normal((64, 289)) * 0.05).astype(np.float32)
        if per_channel:
            quantizer = PerChannelIntTensorQuantizer.calibrated(weight, bits)
        else:
            quantizer = IntTensorQuantizer(calibrate_int_format(weight, bits))
        served = quantizer.quantize(weight)
        storage = quantizer.pack_weights(served)
        _assert_bits_equal(storage.dequantize(), served)


class TestFPPacking:
    @pytest.mark.parametrize("name, bitwidth", [("E1M2", 4), ("E2M1", 5)])
    def test_fp4_weights_pack_as_levels_of_the_subnormal_step(self, name,
                                                              bitwidth):
        weight = (RNG.standard_normal((64, 288)) * 0.05).astype(np.float32)
        fmt = _fp_format(name, float(np.abs(weight).max()))
        served = quantize_fp(weight, fmt)
        storage = FPTensorQuantizer(fmt).pack_weights(served)
        assert storage.fmt == IntFormat(bitwidth, fmt.min_subnormal,
                                        fmt.max_level)
        assert np.array_equal(storage.dequantize(), served)
        np.testing.assert_array_equal(
            storage.levels().astype(np.float64) - fmt.max_level,
            fp_levels(served, fmt).reshape(-1))

    @pytest.mark.parametrize("name", ["E2M5", "E3M4", "E4M3", "E5M2"])
    def test_fp8_weights_do_not_pack(self, name):
        weight = (RNG.standard_normal((64, 288)) * 0.05).astype(np.float32)
        quantizer = FPTensorQuantizer(_fp_format(name, 0.2))
        assert quantizer.pack_weights(quantizer.quantize(weight)) is None

    def test_block_fp_weights_do_not_pack(self):
        weight = (RNG.standard_normal((64, 288)) * 0.05).astype(np.float32)
        quantizer = BlockFPTensorQuantizer.calibrated(
            weight, FPFormat.from_name("E2M1"), 64)
        assert quantizer.pack_weights(quantizer.quantize(weight)) is None

    def test_off_grid_weights_do_not_pack(self):
        weight = (RNG.standard_normal((64, 288)) * 0.05).astype(np.float32)
        quantizer = FPTensorQuantizer(_fp_format("E1M2", 0.2))
        assert quantizer.pack_weights(weight) is None


class TestFPLayers:
    @pytest.mark.parametrize("weights", ["E1M2", "E2M1"])
    @pytest.mark.parametrize("activations", KERNEL_FP_FORMATS)
    @pytest.mark.parametrize("layer", ["linear", "conv"])
    def test_fp_layers_engage_and_match_reference(self, layer, activations,
                                                  weights):
        _loaded_kernels()
        if layer == "linear":
            module, _ = _fp_linear(weights, activations)
            x = Tensor(RNG.standard_normal((2, ELIGIBLE_K)).astype(np.float32))
            engaged, kwargs = F.fused_linear, {}
        else:
            module, _ = _fp_conv(weights, activations)
            x = Tensor(RNG.standard_normal((1, 64, 2, 2)).astype(np.float32))
            engaged, kwargs = F.fused_conv2d, {"padding": 1, "kernel_size": 3}
        with inference_mode(), use_backend("reference"):
            expected = module(x).data
        with inference_mode(), use_backend("accelerated"):
            assert engaged(x, module.packed_weight, module.bias,
                           act_format=module._integer_activations(),
                           **kwargs) is not None
            actual = module(x).data
        _assert_within_tolerance(actual, expected)

    @pytest.mark.parametrize("layer", ["linear", "conv"])
    def test_reference_backend_output_is_the_parents(self, layer):
        # Packing changes where the FP4 weight lives, not what the
        # reference path computes with it.
        if layer == "linear":
            module, served = _fp_linear()
            x = RNG.standard_normal((2, ELIGIBLE_K)).astype(np.float32)
        else:
            module, served = _fp_conv()
            x = RNG.standard_normal((1, 64, 2, 2)).astype(np.float32)
        assert module.packed_weight is not None
        for inference in (False, True):
            with use_backend("reference"):
                if inference:
                    with inference_mode():
                        actual = module(Tensor(x)).data
                else:
                    actual = module(Tensor(x)).data
            _assert_bits_equal(actual, _parent_output(module, served, x))


class TestFPGuards:
    """Every FP product the kernels cannot take declines, and the layer
    then computes, bit for bit, what it computes without a packed weight."""

    def _declines_bit_identically(self, module, served, x, fused):
        with inference_mode(), use_backend("accelerated"):
            assert fused() is None
            actual = module(Tensor(x)).data
        _assert_bits_equal(actual, _parent_output(module, served, x))

    def test_reference_backend_declines(self):
        module, served = _fp_linear()
        x = RNG.standard_normal((1, ELIGIBLE_K)).astype(np.float32)
        view = module.packed_weight.packed_view()
        act = module._integer_activations()
        assert reference_backend().fused_int_gemm(
            x[:, :, None, None], view, act) is None

    def test_disabled_kernels_decline_bit_identically(self, monkeypatch,
                                                      reload_kernels):
        monkeypatch.setenv("REPRO_NO_CKERNELS", "1")
        module, served = _fp_conv()
        x = RNG.standard_normal((1, 64, 2, 2)).astype(np.float32)
        self._declines_bit_identically(
            module, served, x, lambda: F.fused_conv2d(
                Tensor(x), module.packed_weight, module.bias, padding=1,
                kernel_size=3, act_format=module._integer_activations()))
        assert _ckernels.kernel_status() == "disabled"

    @pytest.mark.parametrize("activations", ["E4M3", "E5M2"])
    def test_activation_levels_past_int16_decline(self, activations):
        module, served = _fp_conv(act_name=activations)
        x = RNG.standard_normal((1, 64, 2, 2)).astype(np.float32)
        self._declines_bit_identically(
            module, served, x, lambda: F.fused_conv2d(
                Tensor(x), module.packed_weight, module.bias, padding=1,
                kernel_size=3, act_format=module._integer_activations()))

    @pytest.mark.parametrize("weights", ["E2M5", "E3M4"])
    def test_fp8_weights_keep_the_float_path(self, weights):
        module, served = _fp_conv(weight_name=weights)
        assert module.packed_weight is None
        x = RNG.standard_normal((1, 64, 2, 2)).astype(np.float32)
        with inference_mode(), use_backend("accelerated"):
            actual = module(Tensor(x)).data
        _assert_bits_equal(actual, _parent_output(module, served, x))

    @pytest.mark.parametrize("weights, weight_max", [("E1M2", 15),
                                                     ("E2M1", 128)])
    def test_reduction_depth_past_the_int32_bound_declines(self, weights,
                                                           weight_max):
        _loaded_kernels()
        backend = get_backend("accelerated")
        act = FPFormat.from_name("E3M4")
        limit = (2 ** 31 - 1) // (1984 * weight_max)
        for k, engages in ((limit - limit % 2, True), (limit + 2 - limit % 2,
                                                       False)):
            weight = (RNG.standard_normal((8, k)) * 0.05).astype(np.float32)
            quantizer = FPTensorQuantizer(_fp_format(weights, 0.2))
            storage = quantizer.pack_weights(quantizer.quantize(weight))
            x = RNG.standard_normal((1, k, 1, 1)).astype(np.float32)
            out = backend.fused_int_gemm(x, storage.packed_view(), act)
            assert (out is not None) == engages, k

    def test_gated_products_decline_bit_identically(self):
        module, served = _fp_linear()
        wide_m = AcceleratedBackend._FUSED_MAX_M + 1
        x = RNG.standard_normal((wide_m, ELIGIBLE_K)).astype(np.float32)
        self._declines_bit_identically(
            module, served, x, lambda: F.fused_linear(
                Tensor(x), module.packed_weight, module.bias,
                act_format=module._integer_activations()))
        side = 16
        assert side * side < AcceleratedBackend._FUSED_MIN_WEIGHT
        small = Linear(side, side, rng=np.random.default_rng(7))
        module, served = _fp_quantized(QuantizedLinear, small, "E1M2", "E2M5")
        x = RNG.standard_normal((1, side)).astype(np.float32)
        self._declines_bit_identically(
            module, served, x, lambda: F.fused_linear(
                Tensor(x), module.packed_weight, module.bias,
                act_format=module._integer_activations()))


# ----------------------------------------------------------------------
# kernel acquisition: status reasons and the per-CPU cache key
# ----------------------------------------------------------------------
class TestKernelAcquisition:
    def test_failed_compile_reports_a_reason(self, monkeypatch,
                                             reload_kernels):
        monkeypatch.setenv("REPRO_CC", "false")
        monkeypatch.delenv("REPRO_NO_CKERNELS", raising=False)
        assert _ckernels.load_kernels() is None
        status = _ckernels.kernel_status()
        assert status.startswith("unavailable: ")
        assert status[len("unavailable: "):].strip()

    def test_missing_compiler_reports_a_reason(self, monkeypatch,
                                               reload_kernels):
        monkeypatch.setenv("REPRO_CC", "no-such-compiler-repro")
        monkeypatch.delenv("REPRO_NO_CKERNELS", raising=False)
        assert _ckernels.load_kernels() is None
        assert _ckernels.kernel_status() == (
            "unavailable: REPRO_CC=no-such-compiler-repro not found")

    def test_cache_key_includes_the_host_isa(self):
        first = _ckernels._shared_object_path("cc", "sse2 avx2")
        second = _ckernels._shared_object_path("cc", "sse2 avx2 avx512_vnni")
        assert first != second
        assert first == _ckernels._shared_object_path("cc", "sse2 avx2")

    def test_host_isa_is_nonempty(self):
        assert _ckernels._host_isa()


# ----------------------------------------------------------------------
# quantized layers across schemes x backends
# ----------------------------------------------------------------------
def _quantized_linear(scheme: str, per_channel: bool = False):
    bits = {"int8": 8, "int4": 4}[scheme]
    layer = Linear(ELIGIBLE_K, ELIGIBLE_N, rng=np.random.default_rng(5))
    return _quantized(QuantizedLinear, layer, bits, per_channel,
                      RNG.standard_normal((16, ELIGIBLE_K)))


def _quantized_conv(scheme: str, per_channel: bool = False):
    bits = {"int8": 8, "int4": 4}[scheme]
    layer = Conv2d(64, 512, kernel_size=3, padding=1,
                   rng=np.random.default_rng(6))
    return _quantized(QuantizedConv2d, layer, bits, per_channel,
                      RNG.standard_normal((2, 64, 2, 2)))


def _quantized(cls, layer, bits, per_channel, samples):
    """An INT{bits}/INT8 layer: packed weights, per-tensor int8
    activations calibrated on ``samples``."""
    weight = layer.weight.data
    if per_channel:
        quantizer = PerChannelIntTensorQuantizer.calibrated(weight, bits)
    else:
        quantizer = IntTensorQuantizer(calibrate_int_format(weight, bits))
    return cls(layer, quantizer.quantize(weight),
               IntTensorQuantizer.calibrated(samples, 8),
               packed_weight=quantizer.pack_weights(weight))


class TestQuantizedLayerDispatch:
    @pytest.mark.parametrize("scheme", ["int8", "int4"])
    def test_linear_accelerated_matches_reference(self, scheme):
        module = _quantized_linear(scheme)
        x = Tensor(RNG.standard_normal((2, ELIGIBLE_K)).astype(np.float32))
        with inference_mode(), use_backend("reference"):
            expected = module(x).data
        with inference_mode(), use_backend("accelerated"):
            actual = module(x).data
        _assert_within_tolerance(actual, expected)

    @pytest.mark.parametrize("scheme", ["int8", "int4"])
    def test_conv_accelerated_matches_reference(self, scheme):
        module = _quantized_conv(scheme)
        x = Tensor(RNG.standard_normal((1, 64, 2, 2)).astype(np.float32))
        with inference_mode(), use_backend("reference"):
            expected = module(x).data
        with inference_mode(), use_backend("accelerated"):
            actual = module(x).data
        _assert_within_tolerance(actual, expected)

    def test_reference_backend_is_bit_identical_in_inference_mode(self):
        # The fused entry points return None on the reference backend, so
        # inference mode cannot change reference numerics.
        module = _quantized_linear("int8")
        x = Tensor(RNG.standard_normal((2, ELIGIBLE_K)).astype(np.float32))
        with use_backend("reference"):
            plain = module(x).data
            with inference_mode():
                inferred = module(x).data
        assert np.array_equal(plain, inferred)

    def test_fused_path_stays_off_outside_inference_mode(self):
        # Autograd numerics are backend-independent: without inference
        # mode the accelerated backend must produce the exact reference
        # result (the fused kernel is gated off, not just tolerated).
        module = _quantized_linear("int4")
        x = Tensor(RNG.standard_normal((2, ELIGIBLE_K)).astype(np.float32))
        with use_backend("reference"):
            expected = module(x).data
        with use_backend("accelerated"):
            actual = module(x).data
        assert np.array_equal(actual, expected)

    def test_fused_linear_entry_point_requires_inference_mode(self):
        _loaded_kernels()
        module = _quantized_linear("int8")
        x = Tensor(RNG.standard_normal((2, ELIGIBLE_K)).astype(np.float32))
        act = module._integer_activations()
        with use_backend("accelerated"):
            assert F.fused_linear(x, module.packed_weight,
                                  act_format=act) is None
            with inference_mode():
                assert F.fused_linear(x, module.packed_weight,
                                      act_format=act) is not None

    @pytest.mark.parametrize("scheme", ["int8", "int4"])
    @pytest.mark.parametrize("layer", ["linear", "conv"])
    @pytest.mark.parametrize("per_channel", [False, True])
    def test_integer_layers_engage_and_match_reference(self, per_channel,
                                                       layer, scheme):
        _loaded_kernels()
        if layer == "linear":
            module = _quantized_linear(scheme, per_channel=per_channel)
            x = Tensor(RNG.standard_normal((2, ELIGIBLE_K)).astype(np.float32))
            engaged = F.fused_linear
            kwargs = {}
        else:
            module = _quantized_conv(scheme, per_channel=per_channel)
            x = Tensor(RNG.standard_normal((1, 64, 2, 2)).astype(np.float32))
            engaged = F.fused_conv2d
            kwargs = {"padding": 1, "kernel_size": 3}
        with inference_mode(), use_backend("reference"):
            expected = module(x).data
        with inference_mode(), use_backend("accelerated"):
            assert engaged(x, module.packed_weight, module.bias,
                           act_format=module._integer_activations(),
                           **kwargs) is not None
            actual = module(x).data
        _assert_within_tolerance(actual, expected)


# ----------------------------------------------------------------------
# call plans: a packed layer binds its product once per input shape
# ----------------------------------------------------------------------
def _accelerated(module, x: np.ndarray) -> np.ndarray:
    with inference_mode(), use_backend("accelerated"):
        return module(Tensor(x)).data


class TestCallPlans:
    """A plan is a cache of checked pointers and decisions: whatever a
    layer has been called with before, each call returns what a fresh copy
    of the layer (which has no plan yet) returns for the same input."""

    def test_inputs_of_one_shape_get_their_own_results(self):
        module = _quantized_conv("int8")
        first, second = (RNG.standard_normal((1, 64, 2, 2)).astype(np.float32)
                         for _ in range(2))
        outputs = [_accelerated(module, x) for x in (first, second, first)]
        assert len(module.packed_weight.packed_view().plans) == 1
        _assert_bits_equal(outputs[1],
                           _accelerated(copy.deepcopy(module), second))
        _assert_bits_equal(outputs[0], outputs[2])
        assert not np.array_equal(outputs[0], outputs[1])

    def test_interleaved_shapes_get_their_own_results(self):
        module = _quantized_linear("int4")
        inputs = [RNG.standard_normal((batch, ELIGIBLE_K)).astype(np.float32)
                  for batch in (1, 2, 1)]
        outputs = [_accelerated(module, x) for x in inputs]
        assert len(module.packed_weight.packed_view().plans) == 2
        for x, out in zip(inputs, outputs):
            _assert_bits_equal(out, _accelerated(copy.deepcopy(module), x))

    def test_a_replaced_activation_grid_is_used(self):
        module = _quantized_linear("int8")
        x = RNG.standard_normal((2, ELIGIBLE_K)).astype(np.float32)
        before = _accelerated(module, x)
        module.activation_quantizer = IntTensorQuantizer.calibrated(x * 4, 8)
        after = _accelerated(module, x)
        _assert_bits_equal(after, _accelerated(copy.deepcopy(module), x))
        assert not np.array_equal(before, after)

    def test_a_loaded_weight_replaces_the_packed_one(self):
        module = _quantized_conv("int4")
        x = RNG.standard_normal((1, 64, 2, 2)).astype(np.float32)
        before = _accelerated(module, x)
        state = module.state_dict()
        state["weight"] = state["weight"] * np.float32(0.5)
        module.load_state_dict(state)
        assert module.packed_weight is None
        after = _accelerated(module, x)
        with inference_mode(), use_backend("reference"):
            expected = module(Tensor(x)).data
        _assert_bits_equal(after, expected)
        assert not np.array_equal(before, after)

    def test_a_dropped_layer_takes_its_plans_along(self):
        module = _quantized_conv("int8")
        _accelerated(module, RNG.standard_normal((1, 64, 2, 2)).astype(
            np.float32))
        assert module.packed_weight.packed_view().plans
        storage = weakref.ref(module.packed_weight)
        del module
        gc.collect()
        assert storage() is None

    def test_the_reference_backend_builds_no_plan(self):
        module = _quantized_linear("int8")
        x = Tensor(RNG.standard_normal((2, ELIGIBLE_K)).astype(np.float32))
        with inference_mode(), use_backend("reference"):
            module(x)
        assert not module.packed_weight.packed_view().plans


# ----------------------------------------------------------------------
# one U-Net forward, before the decoder clips anything
# ----------------------------------------------------------------------
def _bottom_heavy_spec() -> ModelSpec:
    """A reduced form of the ``generate`` benchmark's U-Net: most weights
    at a 2x2 deepest level, where products are skinny and pass the
    integer path's gates."""
    return ModelSpec(
        name="test-qheavy", task="unconditional", image_size=8,
        image_channels=3, latent=False, latent_channels=4,
        latent_downsample=4,
        unet=UNetConfig(in_channels=3, out_channels=3, base_channels=16,
                        channel_multipliers=(1, 2, 8), num_res_blocks=1,
                        attention_levels=(2,), num_heads=4, context_dim=None),
        text_embed_dim=None, train_timesteps=8, default_sampling_steps=4,
        seed=3)


@pytest.fixture(scope="module")
def bottom_heavy_pipeline():
    # One sampler step: calibration then records the activations of the
    # forward the test runs.  The untrained model's later steps diverge,
    # and ranges calibrated on them would quantize this forward's
    # activations to zero past the deepest level, hiding its products.
    model = DiffusionModel(_bottom_heavy_spec(), rng=np.random.default_rng(4))
    return DiffusionPipeline(model, num_steps=1)


class TestUNetForwardAcrossBackends:
    """The ``generate`` benchmark compares decoded images, and the decoder
    clips every pixel of that benchmark's images to ±1, so its check cannot
    see a wrong kernel.  This compares the U-Net's own output instead."""

    @pytest.mark.parametrize("preset", [
        pytest.param(lambda: fp4_fp8_config(rounding_learning=False),
                     id="fp4-fp8"),
        pytest.param(int8_int8_config, id="int8-int8"),
        pytest.param(int4_int8_config, id="int4-int8")])
    def test_accelerated_unet_output_matches_reference(
            self, preset, bottom_heavy_pipeline, monkeypatch):
        config = preset().scaled_for_speed(num_bias_candidates=7)
        config.calibration = CalibrationConfig(num_samples=2,
                                               max_records_per_layer=2,
                                               batch_size=2)
        quantized, _ = quantize_pipeline(bottom_heavy_pipeline, config)
        x = bottom_heavy_pipeline.initial_noise(1, seed=7)
        t_batch = np.full((1,), _bottom_heavy_spec().train_timesteps - 1,
                          dtype=np.int64)
        engaged = []
        fused = AcceleratedBackend.fused_int_gemm

        def counting(self, *args, **kwargs):
            out = fused(self, *args, **kwargs)
            engaged.append(out is not None)
            return out

        monkeypatch.setattr(AcceleratedBackend, "fused_int_gemm", counting)
        with inference_mode(), use_backend("reference"):
            expected = quantized.model(Tensor(x), t_batch).data
        with inference_mode(), use_backend("accelerated"):
            actual = quantized.model(Tensor(x), t_batch).data
        assert np.max(np.abs(expected)) > 1.0  # not a clipped image
        np.testing.assert_allclose(
            actual, expected, rtol=1e-3,
            atol=1e-3 * float(np.max(np.abs(expected))))
        if _ckernels.load_kernels() is not None:
            assert sum(engaged) > 0
        else:
            assert not any(engaged)


# ----------------------------------------------------------------------
# selection: process default, env var, scoped override
# ----------------------------------------------------------------------
class TestBackendSelection:
    def test_both_backends_are_registered(self):
        assert set(list_backends()) >= {"reference", "accelerated"}

    def test_unknown_backend_raises_with_known_names(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("cuda")

    def test_default_honors_environment(self):
        assert active_backend().name == DEFAULT_BACKEND

    def test_set_backend_switches_process_default(self,
                                                  restore_default_backend):
        set_backend("accelerated")
        assert active_backend().name == "accelerated"
        set_backend("reference")
        assert active_backend().name == "reference"

    def test_use_backend_is_scoped(self):
        assert active_backend().name == DEFAULT_BACKEND
        with use_backend("accelerated") as backend:
            assert backend.name == "accelerated"
            assert active_backend() is backend
            with use_backend("reference"):
                assert active_backend().name == "reference"
            assert active_backend().name == "accelerated"
        assert active_backend().name == DEFAULT_BACKEND

    def _run_subprocess(self, env_value):
        env = dict(os.environ)
        env.pop("REPRO_BACKEND", None)
        if env_value is not None:
            env["REPRO_BACKEND"] = env_value
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-c",
             "from repro.tensor import active_backend; "
             "print(active_backend().name)"],
            capture_output=True, text=True, env=env)

    def test_env_var_selects_default_at_import(self):
        result = self._run_subprocess("accelerated")
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "accelerated"

    def test_missing_env_var_keeps_reference_default(self):
        result = self._run_subprocess(None)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "reference"

    def test_unknown_env_var_fails_at_import(self):
        result = self._run_subprocess("tpu")
        assert result.returncode != 0
        assert "unknown backend" in result.stderr


# ----------------------------------------------------------------------
# thread safety
# ----------------------------------------------------------------------
class TestThreadSafety:
    def test_use_backend_does_not_leak_across_threads(self):
        iterations = 200
        errors = []
        barrier = threading.Barrier(2)

        def worker(name):
            try:
                barrier.wait(timeout=10)
                for _ in range(iterations):
                    with use_backend(name):
                        if active_backend().name != name:
                            errors.append(
                                f"{name} thread saw {active_backend().name}")
                            return
                    if active_backend().name != DEFAULT_BACKEND:
                        errors.append(f"{name} thread default corrupted")
                        return
            except Exception as exc:  # pragma: no cover - diagnostics
                errors.append(repr(exc))

        threads = [threading.Thread(target=worker, args=(name,))
                   for name in ("accelerated", "reference")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors

    def test_set_backend_races_are_never_torn(self, restore_default_backend):
        stop = threading.Event()
        errors = []

        def flipper():
            while not stop.is_set():
                set_backend("accelerated")
                set_backend("reference")

        def reader():
            for _ in range(2000):
                name = active_backend().name
                if name not in ("reference", "accelerated"):
                    errors.append(name)
                    return

        flip = threading.Thread(target=flipper)
        read = threading.Thread(target=reader)
        flip.start()
        read.start()
        read.join()
        stop.set()
        flip.join()
        assert not errors, errors

    @pytest.mark.parametrize("planned_elsewhere", [False, True])
    def test_fused_kernels_are_thread_safe(self, planned_elsewhere):
        _loaded_kernels()
        storage, _ = _packed_storage("int8", ELIGIBLE_N, ELIGIBLE_K)
        backend = get_backend("accelerated")
        x = RNG.standard_normal((4, ELIGIBLE_K)).astype(np.float32)
        act = calibrate_int_format(x, 8)
        expected = _reference_product(x, act, storage)
        if planned_elsewhere:  # the workers share a plan another thread built
            planner = threading.Thread(
                target=lambda: _int_linear(backend, x, storage, act))
            planner.start()
            planner.join()
            assert len(storage.packed_view().plans) == 1
        errors = []

        def worker():
            for _ in range(20):
                out = _int_linear(backend, x, storage, act)
                try:
                    _assert_within_tolerance(out, expected)
                except AssertionError as exc:
                    errors.append(str(exc))
                    return

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors


# ----------------------------------------------------------------------
# MACs accounting
# ----------------------------------------------------------------------
class TestCountMacs:
    def test_gemm_macs_are_exact(self):
        a = RNG.standard_normal((3, 7)).astype(np.float32)
        b = RNG.standard_normal((7, 5)).astype(np.float32)
        with count_macs() as counter:
            reference_backend().gemm(a, b)
        assert counter.macs == 3 * 7 * 5

    def test_counters_nest(self):
        a = RNG.standard_normal((2, 4)).astype(np.float32)
        b = RNG.standard_normal((4, 2)).astype(np.float32)
        with count_macs() as outer:
            reference_backend().gemm(a, b)
            with count_macs() as inner:
                reference_backend().gemm(a, b)
        assert inner.macs == 2 * 4 * 2
        assert outer.macs == 2 * (2 * 4 * 2)

    def test_fused_gemm_counts_full_reduction(self):
        _loaded_kernels()
        storage, _ = _packed_storage("int8", ELIGIBLE_N, ELIGIBLE_K)
        x = RNG.standard_normal((4, ELIGIBLE_K)).astype(np.float32)
        with count_macs() as counter:
            _int_linear(get_backend("accelerated"), x, storage,
                        calibrate_int_format(x, 8))
        assert counter.macs == 4 * ELIGIBLE_N * ELIGIBLE_K

    def test_integer_conv_counts_match_the_float_path(self):
        _loaded_kernels()
        module = _quantized_conv("int4")
        x = Tensor(RNG.standard_normal((1, 64, 2, 2)).astype(np.float32))
        expected = 1 * 2 * 2 * 512 * 64 * 3 * 3  # M * N * K
        for backend in ("accelerated", "reference"):
            with inference_mode(), use_backend(backend), \
                    count_macs() as counter:
                module(x)
            assert counter.macs == expected, backend
