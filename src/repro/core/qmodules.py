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

import itertools
import math
import threading
import weakref
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from .. import nn
from ..tensor import Tensor, concatenate
from ..tensor import functional as F
from ..tensor.backend import PackedLevelsView
from .blocks import BLOCK, flat, spans
from .formats import FPFormat
from .fp import calibrate_block_biases, quantize_fp, quantize_fp_blockwise
from .integer import (
    IntFormat,
    PerChannelIntFormat,
    calibrate_int_format,
    calibrate_int_format_per_channel,
    channel_part,
    channel_row,
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


def _level_spans(size: int, bitwidth: int, row: int) -> List[slice]:
    """Block spans over ``size`` levels of whole channel rows of ``row``
    levels (1 for a per-tensor grid), each starting on a byte of packed
    storage."""
    return spans(size, math.lcm(row, 2) if bitwidth <= 4 else row)


def _packed_span(span: slice, bitwidth: int) -> slice:
    """The bytes of packed storage that hold the levels ``span``."""
    if bitwidth > 4:
        return span
    return slice(span.start // 2, -(-span.stop // 2))


def _pack_blocks(levels_of: Callable[[np.ndarray, Optional[slice]], np.ndarray],
                 values: np.ndarray, bitwidth: int, row: int = 1) -> np.ndarray:
    """Packed grid levels of ``values``, block by block.

    ``levels_of(part, span)`` gives the levels of a block as a
    :func:`~repro.core.blocks.map_blocks` kernel gives its values; blocks
    hold whole channel rows of ``row`` elements.  A tensor of at most one
    block is packed whole.
    """
    if values.size <= BLOCK:
        return _pack_levels(levels_of(values, None), bitwidth)
    packed = np.empty(_packed_span(slice(0, values.size), bitwidth).stop,
                      dtype=np.uint8)
    source = flat(values)
    for span in _level_spans(values.size, bitwidth, row):
        packed[_packed_span(span, bitwidth)] = _pack_levels(
            levels_of(source[span], span), bitwidth)
    return packed


#: Byte budget of :data:`DEQUANTIZE_MEMO`.  It holds every float weight a
#: served variant re-reads per forward — the 13 layers per variant whose
#: fused product declines in the 167 MB ``generate`` benchmark U-Net
#: (0.88 MB), and the whole FP4 stand-in Stable Diffusion (0.9 MB) and
#: SDXL (2.9 MB) U-Nets on the reference backend — and stays far below one
#: float32 variant of that U-Net.
DEQUANTIZE_MEMO_BUDGET_BYTES = 32 * 2 ** 20


class DequantizeMemo:
    """Process-wide store of float32 weights dequantized from packed levels.

    Packed layers hold only their levels; the float path (the reference
    backend, a declined fused product, ``.weight``) reads the float32
    weight from here.  Entries are keyed per :class:`PackedIntWeight` and
    admitted while they fit ``budget_bytes``; a weight that does not fit
    is returned unstored and dequantized again on its next call.  Entries
    leave only when their storage drops them or is garbage collected, so
    a forward over more float weights than the budget holds keeps hitting
    the same stored subset.  Stored arrays are read-only, since every
    caller shares them.

    Writes take the lock; reads are single dict lookups.  The lock is
    re-entrant: a garbage collection inside a locked section can run
    another storage's finalizer, which discards its entry, on the same
    thread.
    """

    def __init__(self, budget_bytes: int):
        self.budget_bytes = budget_bytes
        self.nbytes = 0
        self._entries: Dict[int, np.ndarray] = {}
        self._lock = threading.RLock()
        self._keys = itertools.count()

    def register(self, owner) -> int:
        """A fresh key whose entry is discarded when ``owner`` is collected."""
        key = next(self._keys)
        weakref.finalize(owner, self.discard, key).atexit = False
        return key

    def get(self, key: int) -> Optional[np.ndarray]:
        return self._entries.get(key)

    def put(self, key: int, values: np.ndarray) -> None:
        with self._lock:
            # Another thread may have stored this key meanwhile.
            if (key in self._entries
                    or self.nbytes + values.nbytes > self.budget_bytes):
                return
            self._entries[key] = values
            self.nbytes += values.nbytes

    def discard(self, key: int) -> None:
        with self._lock:
            values = self._entries.pop(key, None)
            if values is not None:
                self.nbytes -= values.nbytes

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"budget_bytes": self.budget_bytes, "nbytes": self.nbytes,
                    "entries": len(self._entries)}


#: The one memo every packed weight of the process shares.
DEQUANTIZE_MEMO = DequantizeMemo(DEQUANTIZE_MEMO_BUDGET_BYTES)


class PackedIntWeight:
    """Integer weight levels in packed byte storage.

    The levels of a uniform-integer-quantized weight tensor fit in one byte
    each (one nibble at <= 4 bits), and so do those of an FP4 weight,
    whose grid points are signed multiples of its subnormal step (stored
    on ``IntFormat(scale=step, zero_point=max_level)``).  This is all a
    packed quantized layer holds, and all its pickled quantize-stage
    artifact ships — an int8 or E2M1 weight costs 1/4 and an int4 or E1M2
    weight 1/8 of its float32 simulation.
    :meth:`dequantize` returns the float32 grid values: bit-identical to
    :func:`~repro.core.integer.quantize_int` /
    :func:`~repro.core.integer.quantize_int_per_channel` of the original
    weights, and equal to the served FP4 weight (see
    :meth:`FPTensorQuantizer.pack_weights`).  They live in the shared,
    byte-budgeted :data:`DEQUANTIZE_MEMO`, so a variant on the float path
    dequantizes a weight once if the memo admits it (on every call if
    not), and a variant whose fused products all engage never
    materializes one.
    """

    def __init__(self, packed: np.ndarray, shape, fmt):
        self.packed = packed
        self.shape = tuple(shape)
        self.fmt = fmt  # IntFormat or PerChannelIntFormat
        self._attach()

    def _attach(self) -> None:
        self._packed_view: Optional[PackedLevelsView] = None
        # The memo this storage's key belongs to, kept for its lifetime.
        self._memo = DEQUANTIZE_MEMO
        self._memo_key = self._memo.register(self)

    # ------------------------------------------------------------------
    @property
    def bitwidth(self) -> int:
        return self.fmt.bitwidth

    @property
    def num_elements(self) -> int:
        return math.prod(self.shape)

    @property
    def nbytes(self) -> int:
        """Bytes of packed storage."""
        return int(self.packed.nbytes)

    def arrays(self):
        """The arrays this storage holds: the packed bytes plus, once
        built, the per-row arrays of its packed view."""
        arrays = [self.packed]
        view = self._packed_view
        if view is not None:
            arrays += [view.scales, view.zero_points, view.level_sums]
        return arrays

    # ------------------------------------------------------------------
    @classmethod
    def pack(cls, values: np.ndarray, fmt) -> "PackedIntWeight":
        """Quantize ``values`` onto ``fmt``'s grid and pack the levels.

        The level arithmetic is :func:`~repro.core.integer.int_levels` /
        its per-channel sibling — the same helpers the simulated
        ``quantize_int*`` functions use, which is what guarantees
        ``dequantize()`` reproduces them bit-for-bit.  Packs block by
        block, over whole channel rows for a per-channel grid.
        """
        values = np.asarray(values)
        if isinstance(fmt, PerChannelIntFormat):
            row = channel_row(values, fmt)
            packed = _pack_blocks(
                lambda part, span: int_levels_per_channel(
                    *channel_part(part, span, row, fmt)),
                values, fmt.bitwidth, row)
        else:
            packed = _pack_blocks(lambda part, span: int_levels(part, fmt),
                                  values, fmt.bitwidth)
        return cls(packed, values.shape, fmt)

    def levels(self) -> np.ndarray:
        """Unpacked integer levels, flattened."""
        return _unpack_levels(self.packed, self.fmt.bitwidth, self.num_elements)

    # repro: hot -- the float path dequantizes on every forward the memo misses
    def dequantize(self) -> np.ndarray:
        """Read-only float32 grid values of the packed levels, from the memo."""
        values = self._memo.get(self._memo_key)
        if values is None:
            values = self._dequantize_levels()
            self._memo.put(self._memo_key, values)
        return values

    def _dequantize_levels(self) -> np.ndarray:
        """The grid values by ``dequantize_int_levels*``, bypassing the
        memo; block by block for a weight of more than one block."""
        if self.num_elements <= BLOCK:
            values = self._dequantize_block(None)
        else:
            values = np.empty(self.shape, dtype=np.float32)
            target = values.reshape(-1)
            for span in self._spans():
                target[span] = self._dequantize_block(span)
        values = values.reshape(self.shape)
        values.flags.writeable = False
        return values

    def _row(self) -> int:
        """Levels per channel row (1 for a per-tensor grid)."""
        if isinstance(self.fmt, PerChannelIntFormat):
            return self.num_elements // max(self.fmt.num_channels, 1)
        return 1

    def _spans(self) -> List[slice]:
        return _level_spans(self.num_elements, self.fmt.bitwidth, self._row())

    def _dequantize_block(self, span: Optional[slice]) -> np.ndarray:
        """Flat float32 grid values of the levels ``span`` of
        :meth:`_spans` (of all levels when ``span`` is ``None``)."""
        if span is None:
            levels = self.levels()
        else:
            levels = _unpack_levels(
                self.packed[_packed_span(span, self.fmt.bitwidth)],
                self.fmt.bitwidth, span.stop - span.start)
        if isinstance(self.fmt, PerChannelIntFormat):
            row = self._row()
            part, fmt = channel_part(levels, span, row, self.fmt)
            return dequantize_int_levels_per_channel(
                part.reshape(-1, row), fmt).reshape(-1)
        return dequantize_int_levels(levels, self.fmt)

    def _serves(self, values: np.ndarray) -> bool:
        """Whether the dequantized levels equal ``values`` element for
        element, compared block by block."""
        source = flat(values)
        return all(np.array_equal(self._dequantize_block(span), source[span])
                   for span in self._spans())

    def drop_dequantized(self) -> None:
        """Discard this weight's memo entry (rebuilt on the next dequantize)."""
        self._memo.discard(self._memo_key)

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
        reshape is a view of the packed bytes (no copy); the result, with
        the call plans the accelerated backend keeps on it, lives on this
        storage and dies with it, and is neither pickled nor copied.
        """
        view = self._packed_view
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
        # Ship the packed bytes; the view (with its call plans, which hold
        # this process's pointers) and the memo entry are per process.
        return {"packed": self.packed, "shape": self.shape, "fmt": self.fmt}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._attach()


class TensorQuantizer:
    """Base class: maps a float32 array onto a low-bitwidth grid."""

    bits: Optional[int] = None

    def quantize(self, values: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def describe(self) -> str:  # pragma: no cover
        raise NotImplementedError

    def pack_weights(self, values: np.ndarray) -> Optional[PackedIntWeight]:
        """Packed storage for a quantized weight tensor, when the format
        supports it.

        ``values`` is the weight the layer serves (already on this
        quantizer's grid).  Returns ``None`` for formats without a level
        grid of at most 8 bits (FP8, block FP and FP32 keep their float32
        simulation); the others return a :class:`PackedIntWeight` whose
        ``dequantize()`` reproduces ``values``.
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

    def pack_weights(self, values: np.ndarray) -> Optional[PackedIntWeight]:
        # The grid points are signed multiples of the subnormal step u, so
        # they pack as integer levels on IntFormat(scale=u, zero_point=L)
        # with L = max_level: E1M2 (L = 7) as nibbles, E2M1 (L = 12) as
        # bytes; FP8's levels need more than 8 bits.  ``values`` is on the
        # grid, so its levels are values / u rounded, which float32 gets
        # right for levels this small (fp_levels' binade search would find
        # the same ones at several times the cost).
        max_level = self.fmt.max_level
        bitwidth = (2 * max_level).bit_length()
        if bitwidth > 8:
            return None
        unit = self.fmt.min_subnormal

        def levels_of(part, span):
            levels = np.rint(np.asarray(part, dtype=np.float32).reshape(-1)
                             / np.float32(unit))
            np.clip(levels + np.float32(max_level), 0, 2 * max_level, out=levels)
            return levels

        values = np.asarray(values)
        packed = PackedIntWeight(_pack_blocks(levels_of, values, bitwidth),
                                 values.shape,
                                 IntFormat(bitwidth, unit, max_level))
        # Keep only storage that serves the same weight: equal element for
        # element (a -0.0 comes back as +0.0, which can only flip the sign
        # of a zero sum).  Off-grid values, or float rounding of u * level
        # against the grid's own step, would break that; such a weight
        # stays unpacked.
        if not packed._serves(values):
            return None
        return packed

    def describe(self) -> str:
        return f"FP{self.fmt.bitwidth}({self.fmt.name}, bias={self.fmt.bias:.2f})"


class _IntGridQuantizer(TensorQuantizer):
    """An integer grid, whose weight levels pack into bytes."""

    def __init__(self, fmt: Union[IntFormat, PerChannelIntFormat]):
        self.fmt = fmt
        self.bits = fmt.bitwidth

    def pack_weights(self, values: np.ndarray) -> Optional[PackedIntWeight]:
        # Levels above 8 bits do not fit the byte-packed storage; such
        # (registry-extended) schemes keep the float32 simulation.
        if self.fmt.bitwidth > 8:
            return None
        return PackedIntWeight.pack(values, self.fmt)


class IntTensorQuantizer(_IntGridQuantizer):
    """Per-tensor uniform integer quantizer with a fixed scale and zero point."""

    @classmethod
    def calibrated(cls, values: np.ndarray, bitwidth: int) -> "IntTensorQuantizer":
        return cls(calibrate_int_format(values, bitwidth))

    def quantize(self, values: np.ndarray) -> np.ndarray:
        return quantize_int(values, self.fmt)

    def describe(self) -> str:
        return f"INT{self.fmt.bitwidth}(scale={self.fmt.scale:.3g})"


class PerChannelIntTensorQuantizer(_IntGridQuantizer):
    """Per-output-channel uniform integer quantizer (weights only)."""

    @classmethod
    def calibrated(cls, values: np.ndarray,
                   bitwidth: int) -> "PerChannelIntTensorQuantizer":
        return cls(calibrate_int_format_per_channel(values, bitwidth))

    def quantize(self, values: np.ndarray) -> np.ndarray:
        return quantize_int_per_channel(values, self.fmt)

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

    With integer and FP4 schemes the wrapper holds only a
    :class:`PackedIntWeight`: the float32 weight exists only on the float
    path (the reference backend, a declined fused product, ``.weight``),
    served from the shared :data:`DEQUANTIZE_MEMO`, and neither the layer
    nor its pickle carries a float copy.  ``named_parameters`` and
    ``state_dict`` still present it as the layer's ``weight``, so module
    traversal sees the same parameters as with a float weight.  FP8 and
    block-FP schemes keep the float32 parameter.

    A wrapper replaces ``original``, whose bias and :attr:`GEOMETRY`
    attributes it keeps; ``quantized_weight`` is the weight it serves,
    held as ``packed_weight`` when that is given.
    """

    #: Attributes of the wrapped layer a wrapper keeps.
    GEOMETRY: Tuple[str, ...] = ()

    def __init__(self, original: nn.Module, quantized_weight: np.ndarray,
                 activation_quantizer: TensorQuantizer,
                 packed_weight: Optional[PackedIntWeight] = None):
        super().__init__()
        for name in self.GEOMETRY:
            setattr(self, name, getattr(original, name))
        self.packed_weight = packed_weight
        if packed_weight is None:
            self._parameters["weight"] = nn.Parameter(quantized_weight,
                                                      requires_grad=False)
        self.bias = original.bias
        self.activation_quantizer = activation_quantizer

    @property
    def weight(self) -> nn.Parameter:
        if self.packed_weight is None:
            return self._parameters["weight"]
        return nn.Parameter(self.packed_weight.dequantize(), requires_grad=False)

    def named_parameters(self, prefix: str = ""):
        if self.packed_weight is not None:
            yield prefix + "weight", self.weight
        yield from super().named_parameters(prefix)

    def state_dict(self, prefix: str = "") -> Dict[str, np.ndarray]:
        state = super().state_dict(prefix=prefix)
        if self.packed_weight is None:
            return state
        return {prefix + "weight": self.packed_weight.dequantize().copy(), **state}

    def _integer_activations(self) -> Union[IntFormat, FPFormat, None]:
        """The per-tensor activation grid the integer kernels can take —
        an integer grid, or a floating-point one whose points are integer
        multiples of its subnormal step — or ``None`` for identity and
        block-FP activations (the layer then takes the float path)."""
        quantizer = self.activation_quantizer
        if isinstance(quantizer, (IntTensorQuantizer, FPTensorQuantizer)):
            return quantizer.fmt
        return None

    def load_state_dict(self, state, prefix: str = "") -> None:
        super().load_state_dict(state, prefix=prefix)
        key = prefix + "weight"
        if self.packed_weight is not None and key in state:
            # The float weight is authoritative after an explicit load; if
            # it no longer matches the packed levels, drop them so
            # pickling/deepcopy cannot silently revert to the old weights.
            weight = np.asarray(state[key], dtype=np.float32).reshape(
                self.packed_weight.shape)
            if not np.array_equal(weight, self.packed_weight.dequantize()):
                self.packed_weight = None
                self._parameters = {"weight": nn.Parameter(weight, requires_grad=False),
                                    **self._parameters}


class QuantizedConv2d(_QuantizedLayerBase):
    """Conv2d with a pre-quantized weight and on-the-fly activation quantization."""

    GEOMETRY = ("stride", "padding", "in_channels", "out_channels",
                "kernel_size")

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

    GEOMETRY = ("in_features", "out_features")

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


def resident_nbytes(module: nn.Module) -> int:
    """Bytes of the arrays ``module`` and its submodules hold.

    Parameters, buffers and packed weight storage, each underlying buffer
    counted once.  The float weights of packed layers are not counted:
    they live in the shared :data:`DEQUANTIZE_MEMO`, whose bytes
    ``DEQUANTIZE_MEMO.stats()`` reports once for the whole process.
    """
    sizes: Dict[int, int] = {}
    for sub in module.modules():
        arrays = [param.data for param in sub._parameters.values()]
        arrays += sub._buffers.values()
        if isinstance(sub, QUANTIZED_LAYER_TYPES) and sub.packed_weight is not None:
            arrays += sub.packed_weight.arrays()
        for array in arrays:
            while isinstance(array.base, np.ndarray):
                array = array.base
            sizes[id(array)] = array.nbytes
    return sum(sizes.values())
