"""Weight sparsity analysis (paper Section VI-G, Figure 11).

Quantization forces small-magnitude weights to exactly zero, so the fraction
of zero weights — the sparsity — rises sharply after low-bitwidth FP
quantization.  The paper reports a 31.6x (FP8) and 617x (FP4) sparsity
increase for Stable Diffusion and 20.1x / 428.5x for LDM.  These helpers
measure sparsity before and after quantization on a model's quantizable
layers so Figure 11 can be regenerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .. import nn
from ..models import DiffusionModel
from .qmodules import QUANTIZED_LAYER_TYPES


def tensor_sparsity(values: np.ndarray, tolerance: float = 0.0) -> float:
    """Fraction of elements whose magnitude is <= ``tolerance``."""
    values = np.asarray(values)
    if values.size == 0:
        return 0.0
    return float(np.mean(np.abs(values) <= tolerance))


@dataclass
class SparsityReport:
    """Zero fractions for the full-precision and quantized weights of a model."""

    per_layer: Dict[str, float]
    total_weights: int
    zero_weights: int

    @property
    def sparsity(self) -> float:
        if self.total_weights == 0:
            return 0.0
        return self.zero_weights / self.total_weights

    @property
    def percent(self) -> float:
        return 100.0 * self.sparsity


def _weight_entries(model: DiffusionModel):
    for path, module in model.unet.named_modules():
        if isinstance(module, QUANTIZED_LAYER_TYPES + (nn.Conv2d, nn.Linear)):
            yield path, module.weight.data


def measure_weight_sparsity(model: DiffusionModel,
                            tolerance: float = 0.0) -> SparsityReport:
    """Measure weight sparsity over a model's quantizable layers.

    The "FP32" bar of Figure 11 is this measurement on the unquantized
    model; the quantized bars measure the weights a quantized model serves.
    """
    per_layer: Dict[str, float] = {}
    total, zeros = 0, 0
    for path, weights in _weight_entries(model):
        per_layer[path] = tensor_sparsity(weights, tolerance)
        total += weights.size
        zeros += int(np.sum(np.abs(weights) <= tolerance))
    return SparsityReport(per_layer=per_layer, total_weights=total, zero_weights=zeros)


def sparsity_increase(full_precision: SparsityReport,
                      quantized: SparsityReport) -> Optional[float]:
    """Multiplicative sparsity increase, or None if the baseline has no zeros."""
    if full_precision.sparsity == 0.0:
        return None
    return quantized.sparsity / full_precision.sparsity
