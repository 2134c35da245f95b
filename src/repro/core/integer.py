"""Uniform integer quantization baseline (paper Eq. 4, Q-diffusion style).

The paper compares its floating-point method against state-of-the-art integer
PTQ (Q-diffusion).  The baseline here is asymmetric per-tensor uniform
quantization with min/max calibration, which is the quantizer at the heart of
those integer methods.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

import numpy as np

from .blocks import map_blocks


@dataclass(frozen=True)
class IntFormat:
    """An unsigned integer grid with a scale and zero point."""

    bitwidth: int
    scale: float
    zero_point: int

    @property
    def num_levels(self) -> int:
        return 2 ** self.bitwidth

    @property
    def name(self) -> str:
        return f"INT{self.bitwidth}"

    def to_dict(self) -> Dict:
        return {"bitwidth": self.bitwidth, "scale": self.scale,
                "zero_point": self.zero_point}

    @classmethod
    def from_dict(cls, data: Dict) -> "IntFormat":
        return cls(bitwidth=int(data["bitwidth"]), scale=float(data["scale"]),
                   zero_point=int(data["zero_point"]))


@dataclass(frozen=True)
class PerChannelIntFormat:
    """A family of integer grids, one per output channel (axis 0).

    Per-channel calibration tightens each channel's grid to its own value
    range, which matters for conv weights whose channels differ in scale by
    orders of magnitude.
    """

    bitwidth: int
    scales: Tuple[float, ...]
    zero_points: Tuple[int, ...]

    @property
    def num_channels(self) -> int:
        return len(self.scales)

    @property
    def num_levels(self) -> int:
        return 2 ** self.bitwidth

    @property
    def name(self) -> str:
        return f"INT{self.bitwidth}pc[{self.num_channels}]"

    def to_dict(self) -> Dict:
        return {"bitwidth": self.bitwidth, "scales": list(self.scales),
                "zero_points": list(self.zero_points)}

    @classmethod
    def from_dict(cls, data: Dict) -> "PerChannelIntFormat":
        return cls(bitwidth=int(data["bitwidth"]),
                   scales=tuple(float(s) for s in data["scales"]),
                   zero_points=tuple(int(z) for z in data["zero_points"]))


def calibrate_int_format(values: np.ndarray, bitwidth: int) -> IntFormat:
    """Derive scale and zero point from the min/max of calibration data (Eq. 4).

    The min and max are read in the input's dtype, where they are exact.
    """
    values = np.asarray(values)
    lo = float(values.min()) if values.size else 0.0
    hi = float(values.max()) if values.size else 0.0
    if hi <= lo:
        hi = lo + 1e-8
    scale = (hi - lo) / (2 ** bitwidth - 1)
    zero_point = int(np.round(-lo / scale))
    return IntFormat(bitwidth=bitwidth, scale=scale, zero_point=zero_point)


def int_levels(values: np.ndarray, fmt: IntFormat) -> np.ndarray:
    """Clipped integer grid levels of ``values`` (Eq. 4), as float64.

    The single source of the rounding/clipping arithmetic: both the
    simulated quantization below and the packed weight storage
    (:class:`repro.core.qmodules.PackedIntWeight`) build on it, so their
    outputs are bit-identical by construction.
    """
    values = np.asarray(values, dtype=np.float64)
    levels = np.round(values / fmt.scale) + fmt.zero_point
    return np.clip(levels, 0, fmt.num_levels - 1)


def dequantize_int_levels(levels: np.ndarray, fmt: IntFormat) -> np.ndarray:
    """Map grid levels back to their float32 values."""
    levels = np.asarray(levels, dtype=np.float64)
    return (fmt.scale * (levels - fmt.zero_point)).astype(np.float32)


def quantize_int(values: np.ndarray, fmt: IntFormat) -> np.ndarray:
    """Simulated uniform integer quantization (quantize then dequantize),
    block by block (:func:`~repro.core.blocks.map_blocks`)."""
    return map_blocks(
        lambda part, span: dequantize_int_levels(int_levels(part, fmt), fmt),
        values)


def calibrate_int_format_per_channel(values: np.ndarray,
                                     bitwidth: int) -> PerChannelIntFormat:
    """Per-output-channel min/max calibration (axis 0 indexes channels).

    The min and max are read in the input's dtype, where they are exact.
    """
    values = np.asarray(values)
    if values.ndim < 2:
        values = values.reshape(-1, 1)
    per_channel = values.reshape(values.shape[0], -1)
    lo = per_channel.min(axis=1).astype(np.float64)
    hi = per_channel.max(axis=1).astype(np.float64)
    hi = np.where(hi <= lo, lo + 1e-8, hi)
    scales = (hi - lo) / (2 ** bitwidth - 1)
    zero_points = np.round(-lo / scales).astype(np.int64)
    return PerChannelIntFormat(bitwidth=bitwidth,
                               scales=tuple(float(s) for s in scales),
                               zero_points=tuple(int(z) for z in zero_points))


def int_levels_per_channel(values: np.ndarray,
                           fmt: PerChannelIntFormat) -> np.ndarray:
    """Per-channel grid levels, shaped ``(num_channels, -1)`` (float64)."""
    values = np.asarray(values, dtype=np.float64)
    per_channel = (values.reshape(-1, 1) if values.ndim < 2
                   else values.reshape(values.shape[0], -1))
    _check_channels(per_channel.shape[0], fmt)
    scales = np.asarray(fmt.scales, dtype=np.float64)[:, None]
    zero_points = np.asarray(fmt.zero_points, dtype=np.float64)[:, None]
    levels = np.round(per_channel / scales) + zero_points
    return np.clip(levels, 0, fmt.num_levels - 1)


def dequantize_int_levels_per_channel(levels: np.ndarray,
                                      fmt: PerChannelIntFormat) -> np.ndarray:
    """Map ``(num_channels, -1)`` grid levels back to float32 values."""
    levels = np.asarray(levels, dtype=np.float64)
    scales = np.asarray(fmt.scales, dtype=np.float64)[:, None]
    zero_points = np.asarray(fmt.zero_points, dtype=np.float64)[:, None]
    return (scales * (levels - zero_points)).astype(np.float32)


def _check_channels(channels: int, fmt: PerChannelIntFormat) -> None:
    if channels != fmt.num_channels:
        raise ValueError(
            f"tensor has {channels} channels but format was "
            f"calibrated for {fmt.num_channels}")


def channel_row(values: np.ndarray, fmt: PerChannelIntFormat) -> int:
    """Elements per channel row of ``values`` (axis 0 indexes channels; a
    tensor of fewer than two dimensions has one element per channel),
    after checking its channel count against ``fmt``."""
    channels = values.shape[0] if values.ndim >= 2 else values.size
    _check_channels(channels, fmt)
    return values.size // channels if channels else 1


def channel_part(part: np.ndarray, span: Optional[slice], row: int,
                 fmt: PerChannelIntFormat):
    """``(part, fmt)`` cut to the channel rows of a block.

    For a :func:`~repro.core.blocks.map_blocks` block of whole rows of
    ``row`` elements, the block as a ``(rows, row)`` array and the grids
    of those rows; for the whole tensor (``span`` is ``None``) both as
    given.
    """
    if span is None:
        return part, fmt
    rows = slice(span.start // row, span.stop // row)
    return part.reshape(-1, row), replace(fmt, scales=fmt.scales[rows],
                                          zero_points=fmt.zero_points[rows])


def quantize_int_per_channel(values: np.ndarray,
                             fmt: PerChannelIntFormat) -> np.ndarray:
    """Simulated per-channel uniform integer quantization along axis 0,
    block by block over whole channel rows."""
    values = np.asarray(values)
    row = channel_row(values, fmt)
    return map_blocks(
        lambda part, span: _quantize_int_per_channel(
            *channel_part(part, span, row, fmt)),
        values, align=row)


def _quantize_int_per_channel(values: np.ndarray,
                              fmt: PerChannelIntFormat) -> np.ndarray:
    """:func:`quantize_int_per_channel` of one block."""
    shape = np.asarray(values).shape
    levels = int_levels_per_channel(values, fmt)
    return dequantize_int_levels_per_channel(levels, fmt).reshape(shape)


def int_quantization_mse(values: np.ndarray, bitwidth: int) -> float:
    """MSE of min/max-calibrated integer quantization of ``values``."""
    fmt = calibrate_int_format(values, bitwidth)
    quantized = quantize_int(values, fmt)
    diff = np.asarray(values, dtype=np.float64) - quantized
    return float(np.mean(diff * diff))
