"""Floating-point quantization primitives (paper Eq. 6-9, 12).

Quantization here is *simulated*: values are snapped onto the grid of the
target low-bitwidth format but stored back as float32, which is the standard
way PTQ methods evaluate quality (the paper does the same; the efficiency
argument rests on the bitwidth of the representation, not on how the host
simulates it).
"""

from __future__ import annotations

import numpy as np

from .blocks import flat, map_blocks, spans
from .formats import FPFormat


def _grid(values: np.ndarray, c, bias, mantissa_bits: int):
    """``values`` clipped to ``[-c, c]`` (float64) and each clipped value's
    grid step (Eq. 6-9).

    A floating-point format is a union of uniform grids, one per binade; the
    step for a value depends on which binade (power-of-two interval) the
    value falls into, with one shared subnormal grid below ``2^(1-b)``.
    ``c`` and ``bias`` are scalars, or per-element arrays for block-wise
    quantization.
    """
    clipped = np.clip(np.asarray(values, dtype=np.float64), -c, c)
    with np.errstate(divide="ignore"):
        biased_exponent = np.floor(np.log2(np.abs(clipped)) + bias)
    subnormal = ~np.isfinite(biased_exponent) | (biased_exponent <= 1)
    exponent = np.where(subnormal, 1.0, biased_exponent)
    return clipped, np.power(2.0, exponent - bias - mantissa_bits)


def fp_scales(values: np.ndarray, fmt: FPFormat) -> np.ndarray:
    """Per-element quantization step ``s_i`` of the format's grid (Eq. 9)."""
    return _grid(values, np.inf, fmt.bias, fmt.mantissa_bits)[1]


def quantize_fp(values: np.ndarray, fmt: FPFormat) -> np.ndarray:
    """Round-to-nearest floating-point quantization (Eq. 6-9).

    The input is clipped to ``[-c, c]`` where ``c`` is the format's largest
    magnitude, then each element is snapped to the nearest point of its
    binade's grid.  Runs block by block (:func:`~repro.core.blocks.map_blocks`).
    """
    return map_blocks(lambda part, span: _quantize_fp(part, fmt), values)


def _quantize_fp(values: np.ndarray, fmt: FPFormat) -> np.ndarray:
    """:func:`quantize_fp` of one block."""
    c = fmt.max_value
    clipped, scales = _grid(values, c, fmt.bias, fmt.mantissa_bits)
    quantized = np.clip(scales * np.round(clipped / scales), -c, c)
    return quantized.astype(np.float32)


def fp_levels(values: np.ndarray, fmt: FPFormat) -> np.ndarray:
    """Signed grid levels of :func:`quantize_fp`, in units of the subnormal
    step ``u = fmt.min_subnormal`` (float64, integer-valued).

    Binade ``e`` has step ``u * 2**(e - 1)`` (the subnormals share ``u``),
    so every grid point is an integer multiple of ``u`` within
    ``±fmt.max_level``.  The binade is read from the exponent bits of
    ``|x| * 2**frac(b)`` rather than from ``log2``, so the integer kernels
    in :mod:`repro.tensor._ckernels` reproduce these levels bit for bit;
    where the two binade rules disagree (within float64 rounding of a
    power of two) both land on the power of two itself.  ``float32(levels
    * u)`` equals :func:`quantize_fp` of the same values.
    """
    values = np.asarray(values, dtype=np.float64)
    c = fmt.max_value
    clipped = np.clip(values, -c, c)
    bias_floor, frac_scale = fmt.bias_split
    # frexp's exponent is floor(log2 t) + 1 for t > 0; zero gets step u.
    _, exponent = np.frexp(np.abs(clipped) * frac_scale)
    shift = np.maximum(exponent + (bias_floor - 2), 0)
    levels = np.ldexp(np.rint(np.ldexp(clipped / fmt.min_subnormal, -shift)),
                      shift)
    return np.clip(levels, -fmt.max_level, fmt.max_level)


def quantize_fp_with_rounding(values: np.ndarray, fmt: FPFormat,
                              round_up: np.ndarray) -> np.ndarray:
    """Floating-point quantization with an explicit per-element rounding choice.

    This is the inference-time form of the learned rounding (Eq. 12 with the
    sigmoid hardened to 0/1): each element is floored onto its grid and then
    bumped up by one step wherever ``round_up`` is true.  Runs block by
    block, ``round_up`` split alongside ``values``.
    """
    values = np.asarray(values)
    round_up_flat = flat(np.broadcast_to(round_up, values.shape))
    return map_blocks(
        lambda part, span: _quantize_fp_with_rounding(
            part, fmt, round_up if span is None else round_up_flat[span]),
        values)


def _quantize_fp_with_rounding(values: np.ndarray, fmt: FPFormat,
                               round_up: np.ndarray) -> np.ndarray:
    """:func:`quantize_fp_with_rounding` of one block."""
    c = fmt.max_value
    clipped, scales = _grid(values, c, fmt.bias, fmt.mantissa_bits)
    offsets = np.where(np.asarray(round_up, dtype=bool), 1.0, 0.0)
    quantized = np.clip(scales * (np.floor(clipped / scales) + offsets), -c, c)
    return quantized.astype(np.float32)


def calibrate_block_biases(values: np.ndarray, fmt: FPFormat,
                           block_size: int) -> np.ndarray:
    """Per-block exponent biases for block-wise FP quantization.

    The tensor is flattened and split into contiguous blocks of
    ``block_size`` elements; each block gets the bias that makes its own
    maximum magnitude the largest representable value (Eq. 7 inverted),
    mirroring how block floating-point hardware shares one exponent offset
    per block.
    """
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    values = np.asarray(values)
    # Block maxima span by span (spans hold whole blocks), on the input
    # dtype: a maximum magnitude is exact in any float type.
    maxima = np.zeros(-(-values.size // block_size) or 1, dtype=np.float64)
    source = flat(values)
    for span in spans(values.size, block_size):
        part = np.abs(source[span])
        tail = -part.size % block_size
        if tail:
            part = np.concatenate([part, np.zeros(tail, dtype=part.dtype)])
        blocks = part.reshape(-1, block_size)
        first = span.start // block_size
        maxima[first:first + blocks.shape[0]] = blocks.max(axis=1)
    default = FPFormat.default_bias(fmt.exponent_bits)
    biases = np.full(maxima.size, default, dtype=np.float64)
    positive = maxima > 0
    if np.any(positive):
        biases[positive] = [
            FPFormat.bias_for_max_value(fmt.exponent_bits, fmt.mantissa_bits, m)
            for m in maxima[positive]
        ]
    return biases


def quantize_fp_blockwise(values: np.ndarray, fmt: FPFormat,
                          biases: np.ndarray, block_size: int) -> np.ndarray:
    """Block-wise FP quantization with one exponent bias per block.

    ``biases`` must come from :func:`calibrate_block_biases` on a tensor of
    the same size (the block partition has to line up).  This is
    :func:`quantize_fp` with the scalar bias generalized to a per-element
    array: all of Eq. 6-9 is elementwise in the bias, so broadcasting a
    per-block bias costs one pass.  Runs span by span, each span holding
    whole bias blocks.
    """
    values = np.asarray(values)
    biases = np.asarray(biases, dtype=np.float64)
    if biases.size * block_size < values.size:
        raise ValueError(
            f"{biases.size} blocks of {block_size} cannot cover a tensor of "
            f"{values.size} elements")
    return map_blocks(
        lambda part, span: _quantize_fp_blockwise(
            part, fmt, biases if span is None
            else biases[span.start // block_size:-(-span.stop // block_size)],
            block_size),
        values, align=block_size)


def _quantize_fp_blockwise(values: np.ndarray, fmt: FPFormat,
                           biases: np.ndarray, block_size: int) -> np.ndarray:
    """:func:`quantize_fp_blockwise` of a run of whole bias blocks."""
    values = np.asarray(values)
    bias = np.repeat(biases, block_size)[: values.size]
    c = (2.0 - 2.0 ** (-fmt.mantissa_bits)) * np.power(
        2.0, 2 ** fmt.exponent_bits - bias - 1.0)
    clipped, scales = _grid(values.reshape(-1), c, bias, fmt.mantissa_bits)
    quantized = np.clip(scales * np.round(clipped / scales), -c, c)
    return quantized.reshape(values.shape).astype(np.float32)


def quantization_mse(values: np.ndarray, fmt: FPFormat) -> float:
    """Mean squared error between a tensor and its quantized version.

    This is the objective minimized by the encoding/bias grid search
    (Algorithm 1).
    """
    quantized = quantize_fp(values, fmt)
    diff = np.asarray(values, dtype=np.float64) - quantized
    return float(np.mean(diff * diff))
