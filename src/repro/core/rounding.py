"""Gradient-based rounding learning for low-bitwidth weights (paper Sec. V-B).

Round-to-nearest is not the rounding that minimizes the *layer output* error.
Following AdaRound (Nagel et al.) but applied to the floating-point grid, the
rounding decision of every weight element becomes a learnable parameter:

    W_q(alpha) = clamp(s * (floor(W/s) + sigmoid(alpha)), -c, c)        (Eq. 12)

and ``alpha`` is optimized by gradient descent against

    mean((W_q(alpha) A - W A)^2) + reg_weight * lambda(alpha)           (Eq. 13)
    lambda(alpha) = 1 - (|sigmoid(alpha) - 0.5| * 2)^beta               (Eq. 14)

where ``A`` are input activations of the layer recorded from the
full-precision model (the "calibration dataset").  The regularizer pushes
``sigmoid(alpha)`` to 0 or 1 so the learned soft rounding collapses to a hard
up/down decision at inference time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .. import nn
from ..tensor import Tensor
from ..tensor import functional as F
from .formats import FPFormat
from .fp import _grid, quantize_fp_with_rounding


@dataclass
class RoundingLearningConfig:
    """Hyperparameters of the rounding-learning optimization."""

    iterations: int = 60
    learning_rate: float = 1e-2
    reg_weight: float = 0.01
    reg_exponent: float = 20.0
    samples_per_iteration: int = 8
    seed: int = 0


@dataclass
class RoundingLearningResult:
    """Learned rounding decisions plus the optimization trace."""

    round_up: np.ndarray
    losses: List[float] = field(default_factory=list)
    initial_output_mse: float = 0.0
    final_output_mse: float = 0.0


def regularizer_value(sigmoid_alpha: np.ndarray, exponent: float = 20.0) -> np.ndarray:
    """The boundary-pushing regularizer lambda(alpha) of Eq. 14."""
    return 1.0 - np.power(np.abs(sigmoid_alpha - 0.5) * 2.0, exponent)


def _initial_alpha(fraction: np.ndarray) -> np.ndarray:
    """Initialize alpha so that sigmoid(alpha) equals the fractional remainder.

    This makes the soft-quantized weights start exactly at round-to-nearest
    behaviour, which is the standard AdaRound initialization and keeps early
    iterations stable.
    """
    fraction = np.clip(fraction, 1e-4, 1.0 - 1e-4)
    return np.log(fraction / (1.0 - fraction)).astype(np.float32)


def _layer_forward(layer: nn.Module, inputs: Tensor, weight: Tensor) -> Tensor:
    """Run a Conv2d or Linear layer's forward pass with substituted weights."""
    if isinstance(layer, nn.Conv2d):
        return F.conv2d(inputs, weight, layer.bias, stride=layer.stride,
                        padding=layer.padding)
    if isinstance(layer, nn.Linear):
        return F.linear(inputs, weight, layer.bias)
    raise TypeError(f"rounding learning supports Conv2d and Linear, got {type(layer)}")


def learn_rounding(layer: nn.Module, fmt: FPFormat,
                   calibration_inputs: Sequence[np.ndarray],
                   config: Optional[RoundingLearningConfig] = None
                   ) -> RoundingLearningResult:
    """Learn per-weight rounding decisions for one Conv2d/Linear layer.

    Parameters
    ----------
    layer:
        The full-precision layer whose weights are being quantized.
    fmt:
        The floating-point format already chosen for this weight tensor by
        the encoding/bias search.
    calibration_inputs:
        Input activation arrays recorded from the full-precision model for
        this layer (the calibration dataset of Section V-B).
    """
    config = config or RoundingLearningConfig()
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
    if not calibration_inputs:
        raise ValueError("rounding learning requires at least one calibration input")

    def quantized_weight() -> Tensor:
        return (scales_t * (floor_t + alpha.sigmoid())).clip(-c, c)

    # The full-precision output of each sample, computed once.
    references = [_layer_forward(layer, Tensor(sample), full_weight).detach()
                  for sample in calibration_inputs]

    def output_mse(weight_tensor: Tensor) -> float:
        total, count = 0.0, 0
        for sample, reference in zip(calibration_inputs, references):
            produced = _layer_forward(layer, Tensor(sample), weight_tensor)
            diff = produced.data - reference.data
            total += float(np.mean(diff * diff))
            count += 1
        return total / max(count, 1)

    result = RoundingLearningResult(round_up=np.zeros_like(weights, dtype=bool))
    result.initial_output_mse = output_mse(Tensor(
        quantize_fp_with_rounding(
            weights, fmt, np.round(levels) > floor_levels)))

    for _ in range(config.iterations):
        chosen = rng.integers(0, len(calibration_inputs),
                              size=min(config.samples_per_iteration,
                                       len(calibration_inputs)))
        loss_total: Optional[Tensor] = None
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
