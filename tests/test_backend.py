"""Equivalence and selection tests for the pluggable compute backends.

The contract under test (see ``src/repro/tensor/backend.py``):

* the ``reference`` backend is bit-identical to the plain numpy
  spellings it replaced, for every kernel of the contract;
* the ``accelerated`` backend's integer GEMM quantizes activations with
  the exact arithmetic of ``int_levels``, accumulates exact integer dot
  products, and matches the reference fake-quantize-then-GEMM within its
  documented tolerance (one float32 rounding against float32 operands
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

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.core import IdentityQuantizer, QuantizedConv2d, QuantizedLinear
from repro.core.integer import (
    IntFormat,
    calibrate_int_format,
    int_levels,
    quantize_int,
)
from repro.core.qmodules import (
    IntTensorQuantizer,
    PackedIntWeight,
    PerChannelIntTensorQuantizer,
    _pack_levels,
)
from repro.nn import Conv2d, Linear
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
from repro.tensor.backend import AcceleratedBackend, reference_backend
from repro.tensor.functional import _im2col

#: A fused-eligible weight: N * K >= _FUSED_MIN_WEIGHT elements.
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
        backend = reference_backend()
        x = RNG.standard_normal((2, 8, 4, 4)).astype(np.float32)
        flat = RNG.standard_normal((3, 16)).astype(np.float32)
        sig = 1.0 / (1.0 + np.exp(-flat))
        assert np.array_equal(backend.silu(flat), flat * sig)
        shifted = flat - flat.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        assert np.array_equal(backend.softmax(flat),
                              exp / exp.sum(axis=-1, keepdims=True))
        weight = np.ones(8, dtype=np.float32)
        bias = np.zeros(8, dtype=np.float32)
        normed = backend.group_norm(x, 2, weight, bias, 1e-5)
        assert normed.shape == x.shape and np.all(np.isfinite(normed))

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

    def test_declines_cache_resident_weights(self):
        storage, _ = _packed_storage("int8", 64, 64)
        x = RNG.standard_normal((1, 64)).astype(np.float32)
        assert _int_linear(get_backend("accelerated"), x, storage,
                           calibrate_int_format(x, 8)) is None

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
# the two C kernels, against numpy
# ----------------------------------------------------------------------
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
            packed = _pack_levels(levels, bits).reshape(n_rows, -1)
            # Zero points near mid-range keep the corrected dots below
            # 2**24, so the float32 output holds them exactly.
            zero_points = RNG.integers(2 ** bits // 2 - 3, 2 ** bits // 2 + 3,
                                       n_rows).astype(np.float64)
            act_zero_point = int(RNG.integers(125, 131))
            out = np.empty((1, n_rows, m_rows), dtype=np.float32)
            kernels.int_gemm(acts, packed, bits == 4,
                             levels.sum(axis=1, dtype=np.int64), zero_points,
                             np.ones(n_rows), 1.0, act_zero_point, None, out)
            exact = ((acts.astype(np.int64) - act_zero_point)
                     @ (levels.astype(np.int64)
                        - zero_points.astype(np.int64)[:, None]).T)
            assert np.all(np.abs(exact) < 2 ** 24)
            np.testing.assert_array_equal(out[0].T, exact, err_msg=f"K={k}")

    def test_int32_accumulator_reaches_its_bound_exactly(self):
        kernels = _loaded_kernels()
        # The largest K the byte-level guard admits drives the signed
        # accumulator to -K * 255 * 128, one step from int32 overflow.
        k = 2 ** 31 // (255 * 128)
        acts = np.full((2, k), 255, dtype=np.uint8)
        levels = np.stack([np.zeros(k, np.uint8), np.full(k, 255, np.uint8)])
        out = np.empty((1, 2, 2), dtype=np.float32)
        kernels.int_gemm(acts, levels, False, levels.sum(axis=1, dtype=np.int64),
                         np.array([1.0, 254.0]), np.ones(2), 1.0, 0, None, out)
        # sum 255 * (0 - 1) and sum 255 * (255 - 254): +-16777215 < 2**24.
        np.testing.assert_array_equal(out[0].T, [[-k * 255, k * 255]] * 2)

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
        expected = expected.reshape(-1, expected.shape[-1]).astype(np.uint8)
        cols = np.empty_like(expected)
        kernels.quantize_patches(x, np.empty(x.shape, np.uint8), cols, kernel_size, stride, padding,
                                 act.scale, act.zero_point, act.bitwidth)
        np.testing.assert_array_equal(cols, expected)

    @pytest.mark.parametrize("bits", [8, 4, 2])
    def test_linear_levels_equal_int_levels(self, bits):
        kernels = _loaded_kernels()
        # Values past the calibrated range exercise the clipping.
        x = (RNG.standard_normal((3, 301, 1, 1)) * 3).astype(np.float32)
        act = calibrate_int_format(x[:, :100], bits)
        cols = np.empty((3, 301), dtype=np.uint8)
        kernels.quantize_patches(x, np.empty(x.shape, np.uint8), cols, 1, 1, 0,
                                 act.scale, act.zero_point, act.bitwidth)
        np.testing.assert_array_equal(cols, int_levels(x, act).reshape(3, 301))

    def test_malformed_buffers_are_refused(self):
        kernels = _loaded_kernels()
        acts = np.zeros((4, 64), dtype=np.uint8)
        levels = np.zeros((8, 64), dtype=np.uint8)
        per_row = (levels.sum(axis=1, dtype=np.int64), np.zeros(8), np.ones(8))
        out = np.empty((1, 8, 4), dtype=np.float32)
        kernels.int_gemm(acts, levels, False, *per_row, 1.0, 0, None, out)
        bad_calls = [
            (acts.astype(np.int8), levels, False, per_row, None, out),
            (acts, levels[:, ::2], False, per_row, None, out),
            (acts, levels, True, per_row, None, out),  # bytes read as nibbles
            (acts, levels, False, per_row[:2] + (np.ones(7),), None, out),
            (acts, levels, False, per_row, np.ones(8), out),  # float64 bias
            (acts, levels, False, per_row, None, out[:, :4]),
            (acts, levels, False, per_row, None, np.empty((1, 8, 3), np.float32)),
        ]
        for a, w, nibbles, rows, bias, o in bad_calls:
            with pytest.raises(ValueError):
                kernels.int_gemm(a, w, nibbles, *rows, 1.0, 0, bias, o)
        x = np.zeros((1, 2, 3, 3), dtype=np.float32)
        for image, cols, kernel_size in (
                (np.empty(x.shape, np.uint8), np.empty((9, 17), np.uint8), 1),
                (np.empty(8, np.uint8), np.empty((9, 2), np.uint8), 1),
                (np.empty(x.shape, np.uint8), np.empty((0, 50), np.uint8), 5)):
            with pytest.raises(ValueError):
                kernels.quantize_patches(x, image, cols, kernel_size, 1, 0,
                                         0.1, 0, 8)


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
            quantizer, packed_weight=quantizer.pack_weights(layer.weight.data))
        assert module._integer_activations() is None
        x = Tensor(RNG.standard_normal((2, ELIGIBLE_K)).astype(np.float32))
        with inference_mode(), use_backend("accelerated"):
            assert F.fused_linear(x, module.packed_weight, module.bias) is None
            actual = module(x).data
        with inference_mode(), use_backend("reference"):
            expected = module(x).data
        assert np.array_equal(actual, expected)


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
               IntTensorQuantizer.calibrated(samples, 8), quantizer,
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

    def test_fused_kernels_are_thread_safe(self):
        _loaded_kernels()
        storage, _ = _packed_storage("int8", ELIGIBLE_N, ELIGIBLE_K)
        backend = get_backend("accelerated")
        x = RNG.standard_normal((4, ELIGIBLE_K)).astype(np.float32)
        act = calibrate_int_format(x, 8)
        expected = _reference_product(x, act, storage)
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
