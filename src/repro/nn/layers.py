"""Core layers used by the diffusion U-Nets.

The paper quantizes the weights and activations of ``Conv2d`` and ``Linear``
layers while keeping normalization layers and the SiLU activation in full
precision (Section VI.A).  The quantizer in :mod:`repro.core` therefore keys
off the classes defined here when deciding what to wrap.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..tensor import Tensor
from ..tensor import functional as F
from ..tensor.tensor import _builds_graph
from . import init
from .module import Module, Parameter

_DEFAULT_RNG = np.random.default_rng(0)


class Identity(Module):
    """Pass the input through unchanged (useful as an optional branch)."""

    def forward(self, x: Tensor) -> Tensor:
        return x


class Linear(Module):
    """Fully connected layer ``y = x W^T + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or _DEFAULT_RNG
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.kaiming_uniform((out_features, in_features), in_features, rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class Conv2d(Module):
    """2-D convolution layer with square kernels."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or _DEFAULT_RNG
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            init.kaiming_uniform(
                (out_channels, in_channels, kernel_size, kernel_size), fan_in, rng))
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias,
                        stride=self.stride, padding=self.padding)


class SiLU(Module):
    """SiLU activation; kept in full precision by the quantizer."""

    def forward(self, x: Tensor) -> Tensor:
        return x.silu()


class GELU(Module):
    """GELU activation used inside transformer feed-forward blocks."""

    def forward(self, x: Tensor) -> Tensor:
        return x.gelu()


class GroupNorm(Module):
    """Group normalization over channel groups of a ``(N, C, H, W)`` tensor.

    Two spellings of one computation: graph-building calls compose
    :class:`Tensor` operations (their VJPs give the gradient), graph-free
    calls run :func:`_group_norm` on the arrays, the same operations in
    the same order and dtypes minus the per-op wrapping.  Both give
    bit-identical outputs.
    """

    def __init__(self, num_groups: int, num_channels: int, eps: float = 1e-5):
        super().__init__()
        if num_channels % num_groups != 0:
            raise ValueError(
                f"num_channels={num_channels} not divisible by num_groups={num_groups}")
        self.num_groups = num_groups
        self.num_channels = num_channels
        self.eps = eps
        self.weight = Parameter(init.ones((num_channels,)))
        self.bias = Parameter(init.zeros((num_channels,)))

    def forward(self, x: Tensor) -> Tensor:
        if not _builds_graph((x, self.weight, self.bias)):
            return Tensor._from_data(_group_norm(
                x.data, self.num_groups, self.weight.data, self.bias.data,
                self.eps))
        n, c, h, w = x.shape
        grouped = x.reshape(n, self.num_groups, c // self.num_groups * h * w)
        mean = grouped.mean(axis=2, keepdims=True)
        var = grouped.var(axis=2, keepdims=True)
        normed = (grouped - mean) / (var + self.eps).sqrt()
        normed = normed.reshape(n, c, h, w)
        scale = self.weight.reshape(1, c, 1, 1)
        shift = self.bias.reshape(1, c, 1, 1)
        return normed * scale + shift


# repro: hot -- graph-free GroupNorm of every U-Net block
def _group_norm(x: np.ndarray, num_groups: int, weight: np.ndarray,
                bias: np.ndarray, eps: float) -> np.ndarray:
    n, c, h, w = x.shape
    grouped = x.reshape(n, num_groups, c // num_groups * h * w)
    inv_count = np.float32(1.0 / grouped.shape[2])
    mean = grouped.sum(axis=2, keepdims=True) * inv_count
    centered = grouped - mean
    var = (centered * centered).sum(axis=2, keepdims=True) * inv_count
    normed = centered / np.sqrt(var + np.float32(eps))
    normed = normed.reshape(n, c, h, w)
    return normed * weight.reshape(1, c, 1, 1) + bias.reshape(1, c, 1, 1)


class LayerNorm(Module):
    """Layer normalization over the last dimension; two spellings, as
    :class:`GroupNorm`."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.weight = Parameter(init.ones((dim,)))
        self.bias = Parameter(init.zeros((dim,)))

    def forward(self, x: Tensor) -> Tensor:
        if not _builds_graph((x, self.weight, self.bias)):
            return Tensor._from_data(_layer_norm(
                x.data, self.weight.data, self.bias.data, self.eps))
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        normed = (x - mean) / (var + self.eps).sqrt()
        return normed * self.weight + self.bias


# repro: hot -- graph-free LayerNorm of the transformer blocks
def _layer_norm(x: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                eps: float) -> np.ndarray:
    inv_count = np.float32(1.0 / x.shape[-1])
    mean = x.sum(axis=-1, keepdims=True) * inv_count
    centered = x - mean
    var = (centered * centered).sum(axis=-1, keepdims=True) * inv_count
    normed = centered / np.sqrt(var + np.float32(eps))
    return normed * weight + bias


class Embedding(Module):
    """Lookup table mapping integer token ids to dense vectors."""

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or _DEFAULT_RNG
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(init.normal((num_embeddings, embedding_dim), 0.02, rng))

    def forward(self, token_ids: np.ndarray) -> Tensor:
        token_ids = np.asarray(token_ids, dtype=np.int64)
        return self.weight[token_ids]


class Dropout(Module):
    """Inverted dropout; a no-op in eval mode."""

    def __init__(self, p: float = 0.0, rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.p = p
        self._rng = rng or _DEFAULT_RNG

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p <= 0.0:
            return x
        mask = (self._rng.random(x.shape) >= self.p).astype(np.float32)
        return x * Tensor(mask / (1.0 - self.p))


class Downsample(Module):
    """Stride-2 convolution halving the spatial resolution."""

    def __init__(self, channels: int, rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.conv = Conv2d(channels, channels, kernel_size=3, stride=2,
                           padding=1, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.conv(x)


class Upsample(Module):
    """Nearest-neighbour 2x upsampling followed by a 3x3 convolution."""

    def __init__(self, channels: int, rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.conv = Conv2d(channels, channels, kernel_size=3, padding=1, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.conv(F.upsample_nearest(x, scale=2))


class AvgPool2d(Module):
    """Average pooling wrapper used by the metric feature extractor."""

    def __init__(self, kernel: int = 2):
        super().__init__()
        self.kernel = kernel

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, kernel=self.kernel)
