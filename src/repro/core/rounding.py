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

The gradient, in closed form
----------------------------
Each iteration draws ``k`` of the samples.  With ``sig = sigmoid(alpha)``,
``inside`` the mask of soft weights within ``[-c, c]``, ``e_i = W_q A_i -
W A_i`` the output error on sample ``i`` and ``n_i`` its size, the loss and
the gradient Adam steps along are

    loss = (L_1 + ... + L_k) * (1/k) + R * reg_weight
    L_i  = sum(e_i * e_i) * (1/n_i),      R = sum(1 - d ** beta) * (1/|alpha|)
    g_i  = dW_i(m_i * e_i + m_i * e_i) * inside * s * sig * (1 - sig),
                                          m_i = (1/k) * (1/n_i)
    g_r  = -(reg_weight * (1/|alpha|)) * beta * d ** (beta - 1) * 2
           * sign(sig - 0.5) * sig * (1 - sig),    d = |sig - 0.5| * 2
    grad = g_1 + ... + g_k + g_r

where ``dW_i`` is the layer's weight VJP on sample ``i``: the transposed
input times the output gradient for a Linear layer (summed over leading
batch axes), the output gradient times the im2col patch matrix for a
Conv2d.  Every value is float32 (the reciprocals and ``reg_weight`` are
rounded to float32 first) and every line is evaluated left to right, in
the order the autograd engine evaluated the same loss: each sample's
chain is applied before the samples are summed, in draw order with the
regularizer last, and every product goes through the same backend call
on the same memory layout.  So the learned rounding, every loss and both
output MSEs equal the autograd spelling's bit for bit; the tests keep
that spelling as an oracle.

Layouts matter because ``np.mean`` and ``sum`` add in memory order.  A
graph-building ``functional.conv2d`` returns the transposed view of its
``(N, L, C_out)`` product and a graph-free one a contiguous copy: the
soft weight in the loop always sees the view, while the fixed references
and the output MSEs see the layout of a layer forward with constant
weights, which builds a graph only when the bias requires gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .. import nn
from ..tensor.backend import active_backend, reference_backend
from ..tensor.functional import _im2col
from ..tensor.tensor import _unbroadcast
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

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if self.samples_per_iteration < 1:
            raise ValueError("samples_per_iteration must be >= 1, got "
                             f"{self.samples_per_iteration}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and > 0, got "
                             f"{self.learning_rate}")
        if not (math.isfinite(self.reg_weight) and self.reg_weight >= 0):
            raise ValueError("reg_weight must be finite and >= 0, got "
                             f"{self.reg_weight}")
        if not (math.isfinite(self.reg_exponent) and self.reg_exponent >= 1):
            raise ValueError("reg_exponent must be finite and >= 1, got "
                             f"{self.reg_exponent}")


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


class _ConvProduct:
    """One sample's Conv2d product ``W -> conv(x; W) + b`` and its weight
    VJP, spelled as :func:`repro.tensor.functional.conv2d` spells them; the
    im2col patch matrix is built once."""

    def __init__(self, layer: nn.Conv2d, sample: np.ndarray):
        c_out, _, kh, kw = layer.weight.shape
        self.cols, (out_h, out_w) = _im2col(sample, (kh, kw), layer.stride,
                                            layer.padding)
        self.bias = None if layer.bias is None else layer.bias.data
        self.shape = (sample.shape[0], c_out, out_h, out_w)
        self.weight_shape = layer.weight.shape

    def forward(self, weight: np.ndarray, view: bool = True) -> np.ndarray:
        """The layer output: the transposed view of the ``(N, L, C_out)``
        product (the graph-building path) or, with ``view=False``, a
        contiguous copy (the graph-free path)."""
        w_mat = weight.reshape(self.shape[1], -1)
        if view:
            out = reference_backend().im2col_conv(self.cols, w_mat, self.bias)
            return out.transpose(0, 2, 1).reshape(self.shape)
        out = np.empty(self.cols.shape[:2] + (self.shape[1],), np.float32)
        active_backend().im2col_conv(self.cols, w_mat, self.bias, out=out)
        return np.ascontiguousarray(out.transpose(0, 2, 1)).reshape(self.shape)

    def weight_grad(self, grad: np.ndarray) -> np.ndarray:
        n, c_out = self.shape[:2]
        grad_mat = np.ascontiguousarray(grad.reshape(n, c_out, -1).transpose(0, 2, 1))
        return reference_backend().gemm(
            grad_mat.reshape(-1, c_out), self.cols.reshape(-1, self.cols.shape[-1]),
            transpose_a=True).reshape(self.weight_shape)


class _LinearProduct:
    """One sample's Linear product ``W -> x W^T + b`` and its weight VJP,
    spelled as :func:`repro.tensor.functional.linear` spells them; the
    transposed input is taken once."""

    def __init__(self, layer: nn.Linear, sample: np.ndarray):
        self.sample = sample
        self.sample_t = np.swapaxes(sample, -1, -2)
        self.bias = None if layer.bias is None else layer.bias.data
        self.grad_shape = layer.weight.shape[::-1]

    def forward(self, weight: np.ndarray, view: bool = True) -> np.ndarray:
        """The layer output (one layout on both paths, so ``view`` is unused)."""
        out = active_backend().batched_gemm(self.sample, weight.T)
        return out if self.bias is None else out + self.bias

    def weight_grad(self, grad: np.ndarray) -> np.ndarray:
        grad_t = reference_backend().batched_gemm(self.sample_t, grad)
        return _unbroadcast(grad_t, self.grad_shape).T


def _product(layer: nn.Module, sample: np.ndarray):
    """The product object of one calibration sample of ``layer``."""
    if isinstance(layer, nn.Conv2d):
        return _ConvProduct(layer, sample)
    if isinstance(layer, nn.Linear):
        return _LinearProduct(layer, sample)
    raise TypeError(f"rounding learning supports Conv2d and Linear, got {type(layer)}")


def learn_rounding(layer: nn.Module, fmt: FPFormat,
                   calibration_inputs: Sequence[np.ndarray],
                   config: Optional[RoundingLearningConfig] = None
                   ) -> RoundingLearningResult:
    """Learn per-weight rounding decisions for one Conv2d/Linear layer.

    Parameters
    ----------
    layer:
        The full-precision layer whose weights are being quantized.  It is
        only read: no gradient is written to its parameters.
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
    scales32 = scales.astype(np.float32)
    floor32 = floor_levels.astype(np.float32)

    optimizer = nn.Adam([alpha], lr=config.learning_rate)
    calibration_inputs = [np.asarray(x, dtype=np.float32) for x in calibration_inputs]
    if not calibration_inputs:
        raise ValueError("rounding learning requires at least one calibration input")
    products = [_product(layer, sample) for sample in calibration_inputs]

    # The full-precision output of each sample, computed once, in the
    # layout of a constant-weight layer forward (see the module docstring).
    view = layer.bias is not None and layer.bias.requires_grad
    full_weight = weights.astype(np.float32)
    references = [product.forward(full_weight, view) for product in products]

    def output_mse(weight: np.ndarray) -> float:
        total = 0.0
        for product, reference in zip(products, references):
            diff = product.forward(weight, view) - reference
            total += float(np.mean(diff * diff))
        return total / len(products)

    result = RoundingLearningResult(round_up=np.zeros_like(weights, dtype=bool))
    result.initial_output_mse = output_mse(
        quantize_fp_with_rounding(weights, fmt, np.round(levels) > floor_levels))

    exponent = float(config.reg_exponent)
    reg_weight = np.float32(config.reg_weight)
    per_weight = np.float32(1.0 / alpha.size)
    for _ in range(config.iterations):
        chosen = rng.integers(0, len(calibration_inputs),
                              size=min(config.samples_per_iteration,
                                       len(calibration_inputs)))
        sig = 1.0 / (1.0 + np.exp(-alpha.data))
        soft = scales32 * (floor32 + sig)
        # ``c`` may be a numpy float64, which makes np.clip return float64.
        weight = np.asarray(np.clip(soft, -c, c), dtype=np.float32)
        inside = (soft >= -c) & (soft <= c)
        one_minus_sig = 1.0 - sig
        share = np.float32(1.0 / len(chosen))

        loss = grad = None
        for index in chosen:
            product = products[index]
            diff = product.forward(weight) - references[index]
            squared = diff * diff
            per_output = np.float32(1.0 / squared.size)
            sample_loss = squared.sum() * per_output
            loss = sample_loss if loss is None else loss + sample_loss
            grad_out = (share * per_output) * diff
            grad_out = grad_out + grad_out  # d(e * e): the product rule's two terms
            sample_grad = (product.weight_grad(grad_out) * inside * scales32
                           * sig * one_minus_sig)
            if grad is None:
                grad = sample_grad
            else:
                grad += sample_grad

        centered = sig - 0.5
        distance = np.abs(centered) * 2.0
        regularizer = (1.0 - distance ** exponent).sum() * per_weight
        grad += (-(reg_weight * per_weight) * np.float32(exponent)
                 * distance ** (exponent - 1.0) * 2.0 * np.sign(centered)
                 * sig * one_minus_sig)
        alpha.grad = grad
        optimizer.step()
        result.losses.append(float(loss * share + regularizer * reg_weight))

    round_up = (1.0 / (1.0 + np.exp(-alpha.data)) >= 0.5)
    result.round_up = round_up
    result.final_output_mse = output_mse(quantize_fp_with_rounding(weights, fmt, round_up))
    return result
