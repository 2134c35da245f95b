"""Quantized layer wrappers installed into the U-Net by the model quantizer.

Each wrapper simulates low-bitwidth execution of a Conv2d / Linear layer:

* the weight tensor was quantized ahead of time (per-tensor format chosen by
  Algorithm 1, optionally with learned rounding), and
* the input activation tensor is quantized on the fly with its own per-tensor
  format, calibrated on the initialization dataset.

Normalization layers, SiLU activations, the text encoder and the autoencoder
decoder are never wrapped — they stay in full precision, matching the paper.
``QuantizedSkipConcat`` implements the Q-diffusion technique (adopted by the
paper for the floating-point method as well) of quantizing the two inputs of
a skip-connection concatenation separately because their value distributions
differ.
"""

from __future__ import annotations

from typing import Optional, Protocol, runtime_checkable

import numpy as np

from .. import nn
from ..tensor import Tensor, concatenate
from ..tensor import functional as F
from ..tensor.backend import PackedLevelsView
from .formats import FPFormat
from .fp import calibrate_block_biases, quantize_fp, quantize_fp_blockwise
from .integer import (
    IntFormat,
    PerChannelIntFormat,
    calibrate_int_format,
    calibrate_int_format_per_channel,
    dequantize_int_levels,
    dequantize_int_levels_per_channel,
    int_levels,
    int_levels_per_channel,
    quantize_int,
    quantize_int_per_channel,
)


def _pack_levels(levels: np.ndarray, bitwidth: int) -> np.ndarray:
    """Pack integer grid levels into bytes (two per byte at <= 4 bits)."""
    flat = levels.astype(np.uint8).reshape(-1)
    if bitwidth > 4:
        return flat
    if flat.size % 2:
        flat = np.concatenate([flat, np.zeros(1, dtype=np.uint8)])
    return (flat[0::2] | (flat[1::2] << np.uint8(4))).astype(np.uint8)


def _unpack_levels(packed: np.ndarray, bitwidth: int, size: int) -> np.ndarray:
    """Inverse of :func:`_pack_levels` for the first ``size`` elements."""
    if bitwidth > 4:
        return packed[:size]
    levels = np.empty(packed.size * 2, dtype=np.uint8)
    levels[0::2] = packed & np.uint8(0x0F)
    levels[1::2] = packed >> np.uint8(4)
    return levels[:size]


@runtime_checkable
class QuantizedStorage(Protocol):
    """The storage contract quantized layers and fused kernels consume.

    Everything a layer wrapper (or the integer-GEMM entry points in
    :mod:`repro.tensor.functional`) may do with a quantized weight goes
    through these three methods — layer code never reaches into storage
    internals such as the dequantization memo:

    * :meth:`dequantize` — the memoized float32 simulation, for the
      reference (dequantize-then-GEMM) path;
    * :meth:`drop_dequantized` — release the float memo when memory
      matters more than the next forward's latency;
    * :meth:`packed_view` — a GEMM-ready
      :class:`~repro.tensor.backend.PackedLevelsView` of the packed
      bytes, or ``None`` when the storage cannot present one.
    """

    def dequantize(self) -> np.ndarray: ...

    def drop_dequantized(self) -> None: ...

    def packed_view(self) -> Optional[PackedLevelsView]: ...


class PackedIntWeight:
    """Integer weight levels in packed byte storage + a memoized float form.

    The levels of a uniform-integer-quantized weight tensor fit in one byte
    each (one nibble at <= 4 bits), so this is the storage the quantized
    layer wrappers keep and the pickled quantize-stage artifacts ship — an
    int8 weight costs 1/4 and an int4 weight 1/8 of its float32 simulation
    (the artifacts still carry the layer's pre-quantization
    ``original_weight`` for the sparsity analysis, which packing cannot
    replace).
    :meth:`dequantize` materializes (and memoizes) the float32 grid values,
    bit-identical to :func:`~repro.core.integer.quantize_int` /
    :func:`~repro.core.integer.quantize_int_per_channel` of the original
    weights, so a served variant pays the dequantization once on first
    forward instead of re-simulating quantization per forward.  The memo is
    dropped on pickling.
    """

    def __init__(self, packed: np.ndarray, shape, fmt):
        self.packed = packed
        self.shape = tuple(shape)
        self.fmt = fmt  # IntFormat or PerChannelIntFormat
        self._dequantized: Optional[np.ndarray] = None
        self._packed_view: Optional[PackedLevelsView] = None

    # ------------------------------------------------------------------
    @property
    def bitwidth(self) -> int:
        return self.fmt.bitwidth

    @property
    def num_elements(self) -> int:
        return int(np.prod(self.shape))

    @property
    def nbytes(self) -> int:
        """Bytes of packed storage (excluding the transient float memo)."""
        return int(self.packed.nbytes)

    # ------------------------------------------------------------------
    @classmethod
    def pack(cls, values: np.ndarray, fmt) -> "PackedIntWeight":
        """Quantize ``values`` onto ``fmt``'s grid and pack the levels.

        The level arithmetic is :func:`~repro.core.integer.int_levels` /
        its per-channel sibling — the same helpers the simulated
        ``quantize_int*`` functions use, which is what guarantees
        ``dequantize()`` reproduces them bit-for-bit.
        """
        shape = np.asarray(values).shape
        if isinstance(fmt, PerChannelIntFormat):
            levels = int_levels_per_channel(values, fmt)
        else:
            levels = int_levels(values, fmt)
        return cls(_pack_levels(levels, fmt.bitwidth), shape, fmt)

    def levels(self) -> np.ndarray:
        """Unpacked integer levels, flattened."""
        return _unpack_levels(self.packed, self.fmt.bitwidth, self.num_elements)

    # repro: hot -- weight-only layers dequantize on every forward until memoized
    def dequantize(self) -> np.ndarray:
        """Memoized float32 grid values of the packed levels."""
        if self._dequantized is None:
            levels = self.levels().astype(np.float64)
            if isinstance(self.fmt, PerChannelIntFormat):
                dequantized = dequantize_int_levels_per_channel(
                    levels.reshape(self.shape[0], -1), self.fmt)
            else:
                dequantized = dequantize_int_levels(levels, self.fmt)
            self._dequantized = dequantized.reshape(self.shape)
        return self._dequantized

    def drop_dequantized(self) -> None:
        """Release the float memo (it is rebuilt on the next dequantize)."""
        self._dequantized = None

    def packed_view(self) -> Optional[PackedLevelsView]:
        """GEMM-ready row view of the packed levels, or ``None``.

        Presents the weight as the ``(N, K)`` matrix a GEMM consumes
        (``N`` output channels, ``K = in_features`` or
        ``C_in * kh * kw``), with per-row scale/zero-point arrays —
        per-tensor formats broadcast their single grid to every row —
        and the per-row level sums the integer GEMM's zero-point
        correction needs, computed once here.
        Nibble-packed storages (bitwidth <= 4) can only be row-aligned
        when ``K`` is even; otherwise, and for degenerate shapes, this
        returns ``None`` and callers stay on the dequantized path.  The
        reshape is a view of the packed bytes (no copy); the result is
        memoized and, like the float memo, not pickled.
        """
        view = getattr(self, "_packed_view", None)
        if view is not None:
            return view
        if len(self.shape) < 2:
            return None
        n_rows = self.shape[0]
        k = self.num_elements // n_rows
        if n_rows * k != self.num_elements or k == 0:
            return None
        if self.fmt.bitwidth <= 4:
            if k % 2:
                return None
            packed2d = self.packed.reshape(n_rows, k // 2)
            level_sums = ((packed2d & np.uint8(0x0F)).sum(axis=1, dtype=np.int64)
                          + (packed2d >> np.uint8(4)).sum(axis=1, dtype=np.int64))
        else:
            packed2d = self.packed.reshape(n_rows, k)
            level_sums = packed2d.sum(axis=1, dtype=np.int64)
        if isinstance(self.fmt, PerChannelIntFormat):
            if self.fmt.num_channels != n_rows:
                return None
            scales = np.asarray(self.fmt.scales, dtype=np.float64)
            zero_points = np.asarray(self.fmt.zero_points, dtype=np.float64)
        else:
            scales = np.full(n_rows, self.fmt.scale, dtype=np.float64)
            zero_points = np.full(n_rows, float(self.fmt.zero_point),
                                  dtype=np.float64)
        view = PackedLevelsView(packed=packed2d, bitwidth=self.fmt.bitwidth,
                                shape=(n_rows, k), scales=scales,
                                zero_points=zero_points, level_sums=level_sums)
        self._packed_view = view
        return view

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_dequantized"] = None  # ship packed bytes, not the float memo
        state["_packed_view"] = None  # rebuilt on demand after unpickling
        return state


class TensorQuantizer:
    """Base class: maps a float32 array onto a low-bitwidth grid."""

    bits: Optional[int] = None

    def quantize(self, values: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def describe(self) -> str:  # pragma: no cover
        raise NotImplementedError

    def pack_weights(self, values: np.ndarray) -> Optional[PackedIntWeight]:
        """Packed storage for a weight tensor, when the format supports it.

        Returns ``None`` for formats without an integer level grid (the
        float schemes keep their float32 simulation); integer quantizers
        return a :class:`PackedIntWeight` whose ``dequantize()`` is
        bit-identical to :meth:`quantize` of the same values.
        """
        return None


class IdentityQuantizer(TensorQuantizer):
    """Full-precision pass-through (used when a side is left unquantized)."""

    bits = 32

    def quantize(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=np.float32)

    def describe(self) -> str:
        return "FP32"


class FPTensorQuantizer(TensorQuantizer):
    """Per-tensor floating-point quantizer with a fixed format and bias."""

    def __init__(self, fmt: FPFormat):
        self.fmt = fmt
        self.bits = fmt.bitwidth

    def quantize(self, values: np.ndarray) -> np.ndarray:
        return quantize_fp(values, self.fmt)

    def describe(self) -> str:
        return f"FP{self.fmt.bitwidth}({self.fmt.name}, bias={self.fmt.bias:.2f})"


class IntTensorQuantizer(TensorQuantizer):
    """Per-tensor uniform integer quantizer with a fixed scale and zero point."""

    def __init__(self, fmt: IntFormat):
        self.fmt = fmt
        self.bits = fmt.bitwidth

    @classmethod
    def calibrated(cls, values: np.ndarray, bitwidth: int) -> "IntTensorQuantizer":
        return cls(calibrate_int_format(values, bitwidth))

    def quantize(self, values: np.ndarray) -> np.ndarray:
        return quantize_int(values, self.fmt)

    def pack_weights(self, values: np.ndarray) -> Optional[PackedIntWeight]:
        # Levels above 8 bits do not fit the byte-packed storage; such
        # (registry-extended) schemes keep the float32 simulation.
        if self.fmt.bitwidth > 8:
            return None
        return PackedIntWeight.pack(values, self.fmt)

    def describe(self) -> str:
        return f"INT{self.fmt.bitwidth}(scale={self.fmt.scale:.3g})"


class PerChannelIntTensorQuantizer(TensorQuantizer):
    """Per-output-channel uniform integer quantizer (weights only)."""

    def __init__(self, fmt: PerChannelIntFormat):
        self.fmt = fmt
        self.bits = fmt.bitwidth

    @classmethod
    def calibrated(cls, values: np.ndarray,
                   bitwidth: int) -> "PerChannelIntTensorQuantizer":
        return cls(calibrate_int_format_per_channel(values, bitwidth))

    def quantize(self, values: np.ndarray) -> np.ndarray:
        return quantize_int_per_channel(values, self.fmt)

    def pack_weights(self, values: np.ndarray) -> Optional[PackedIntWeight]:
        if self.fmt.bitwidth > 8:
            return None
        return PackedIntWeight.pack(values, self.fmt)

    def describe(self) -> str:
        return f"INT{self.fmt.bitwidth}(per-channel x{self.fmt.num_channels})"


class BlockFPTensorQuantizer(TensorQuantizer):
    """Block-wise FP quantizer: one encoding, one exponent bias per block."""

    def __init__(self, fmt: FPFormat, biases: np.ndarray, block_size: int):
        self.fmt = fmt
        self.biases = np.asarray(biases, dtype=np.float64)
        self.block_size = block_size
        self.bits = fmt.bitwidth

    @classmethod
    def calibrated(cls, values: np.ndarray, fmt: FPFormat,
                   block_size: int) -> "BlockFPTensorQuantizer":
        return cls(fmt, calibrate_block_biases(values, fmt, block_size),
                   block_size)

    def quantize(self, values: np.ndarray) -> np.ndarray:
        return quantize_fp_blockwise(values, self.fmt, self.biases,
                                     self.block_size)

    def describe(self) -> str:
        return (f"FP{self.fmt.bitwidth}({self.fmt.name}, "
                f"blocks={self.biases.size}x{self.block_size})")


class _QuantizedLayerBase(nn.Module):
    """Shared weight storage of the quantized Conv2d/Linear wrappers.

    With integer schemes the wrapper keeps the weight as a
    :class:`PackedIntWeight` and materializes the float32 simulation from
    it as a memo — at quantization time, and again when an artifact is
    unpickled (the pickle ships only the packed bytes; rebuilding in
    ``__setstate__`` keeps ``named_parameters``/``state_dict`` complete
    without waiting for a forward).  Float schemes keep the eager float32
    parameter.
    """

    #: Class-level default so artifacts pickled before packed storage
    #: existed (the run store keys inputs, not code) still unpickle — they
    #: carry the float weight in ``_parameters`` and no packed form.
    packed_weight: Optional[PackedIntWeight] = None

    def _init_weight_storage(self, quantized_weight: np.ndarray,
                             packed_weight: Optional[PackedIntWeight]) -> None:
        self.packed_weight = packed_weight
        if packed_weight is None:
            self._parameters["weight"] = nn.Parameter(quantized_weight,
                                                      requires_grad=False)
        else:
            self._parameters["weight"] = nn.Parameter(packed_weight.dequantize(),
                                                      requires_grad=False)

    @property
    def weight(self) -> nn.Parameter:
        param = self._parameters.get("weight")
        if param is None:
            param = nn.Parameter(self.packed_weight.dequantize(),
                                 requires_grad=False)
            self._parameters["weight"] = param
        return param

    def _integer_activations(self) -> Optional[IntFormat]:
        """The per-tensor integer activation grid, or ``None`` when the
        activations are not integer-quantized (the integer kernels then
        decline and the layer takes the float path)."""
        quantizer = self.activation_quantizer
        return quantizer.fmt if isinstance(quantizer, IntTensorQuantizer) else None

    def packed_nbytes(self) -> Optional[int]:
        """Bytes of packed weight storage, or None for float schemes."""
        return None if self.packed_weight is None else self.packed_weight.nbytes

    def load_state_dict(self, state, prefix: str = "") -> None:
        super().load_state_dict(state, prefix=prefix)
        if self.packed_weight is not None and prefix + "weight" in state:
            # The float weight is authoritative after an explicit load; if
            # it no longer matches the packed levels, drop them so
            # pickling/deepcopy cannot silently revert to the old weights.
            if not np.array_equal(self._parameters["weight"].data,
                                  self.packed_weight.dequantize()):
                self.packed_weight = None

    def __getstate__(self):
        state = self.__dict__.copy()
        if state.get("packed_weight") is not None:
            # Ship the packed levels only; the float32 simulation is
            # rebuilt from them on load.  (``original_weight`` still
            # travels: the sparsity analysis needs the pre-quantization
            # values, which are not recoverable from the packed grid.)
            parameters = dict(state["_parameters"])
            parameters.pop("weight", None)
            state["_parameters"] = parameters
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        # Rebuild the weight parameter eagerly so module traversal
        # (named_parameters / state_dict / num_parameters) sees it without
        # requiring a first forward; ``dequantize()`` memoizes, so this is
        # the one-time cost the packed storage was designed to pay.
        # (.get: pre-packing pickles have no packed_weight entry at all.)
        packed = self.__dict__.get("packed_weight")
        if packed is not None and "weight" not in self._parameters:
            self._parameters["weight"] = nn.Parameter(packed.dequantize(),
                                                      requires_grad=False)


class QuantizedConv2d(_QuantizedLayerBase):
    """Conv2d with a pre-quantized weight and on-the-fly activation quantization."""

    def __init__(self, original: nn.Conv2d, quantized_weight: np.ndarray,
                 activation_quantizer: TensorQuantizer,
                 weight_quantizer: TensorQuantizer,
                 packed_weight: Optional[PackedIntWeight] = None):
        super().__init__()
        self.stride = original.stride
        self.padding = original.padding
        self.in_channels = original.in_channels
        self.out_channels = original.out_channels
        self.kernel_size = original.kernel_size
        self._init_weight_storage(quantized_weight, packed_weight)
        self.bias = original.bias
        self.original_weight = original.weight.data.copy()
        self.activation_quantizer = activation_quantizer
        self.weight_quantizer = weight_quantizer

    def forward(self, x: Tensor) -> Tensor:
        if self.packed_weight is not None:
            # Inference mode with an eligible backend runs the convolution
            # in the integer domain, quantizing x inside the kernel;
            # otherwise fall back to the fake-quantized float path below.
            fused = F.fused_conv2d(x, self.packed_weight, self.bias,
                                   stride=self.stride, padding=self.padding,
                                   kernel_size=self.kernel_size,
                                   act_format=self._integer_activations())
            if fused is not None:
                return fused
        quantized_input = Tensor(self.activation_quantizer.quantize(x.data))
        return F.conv2d(quantized_input, self.weight, self.bias,
                        stride=self.stride, padding=self.padding)


class QuantizedLinear(_QuantizedLayerBase):
    """Linear layer with a pre-quantized weight and activation quantization."""

    def __init__(self, original: nn.Linear, quantized_weight: np.ndarray,
                 activation_quantizer: TensorQuantizer,
                 weight_quantizer: TensorQuantizer,
                 packed_weight: Optional[PackedIntWeight] = None):
        super().__init__()
        self.in_features = original.in_features
        self.out_features = original.out_features
        self._init_weight_storage(quantized_weight, packed_weight)
        self.bias = original.bias
        self.original_weight = original.weight.data.copy()
        self.activation_quantizer = activation_quantizer
        self.weight_quantizer = weight_quantizer

    def forward(self, x: Tensor) -> Tensor:
        if self.packed_weight is not None:
            fused = F.fused_linear(x, self.packed_weight, self.bias,
                                   act_format=self._integer_activations())
            if fused is not None:
                return fused
        quantized_input = Tensor(self.activation_quantizer.quantize(x.data))
        return F.linear(quantized_input, self.weight, self.bias)


class QuantizedSkipConcat(nn.Module):
    """Skip-connection concat with separate quantizers for its two inputs."""

    def __init__(self, main_quantizer: TensorQuantizer,
                 skip_quantizer: TensorQuantizer):
        super().__init__()
        self.main_quantizer = main_quantizer
        self.skip_quantizer = skip_quantizer

    def forward(self, x: Tensor, skip: Tensor) -> Tensor:
        main = Tensor(self.main_quantizer.quantize(x.data))
        other = Tensor(self.skip_quantizer.quantize(skip.data))
        return concatenate([main, other], axis=1)


#: Convenience alias so callers can check "is this module one of ours".
QUANTIZED_LAYER_TYPES = (QuantizedConv2d, QuantizedLinear)
