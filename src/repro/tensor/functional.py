"""Structured tensor operations: convolution, pooling, resampling, attention.

Each is a forward on numpy arrays plus a VJP joined by
:func:`repro.tensor.tensor._apply`, like the :class:`repro.tensor.Tensor`
operations, so both the diffusion models and the rounding-learning
optimization of the quantizer can differentiate through them.

The convolution is the dominant cost of every U-Net forward, and its im2col
lowering is also the dominant *allocation*: one padded image plus one patch
matrix per call.  When a convolution is not going to join an autograd graph
(inference mode, ``no_grad``, or simply no input requiring gradients) those
two scratch arrays are drawn from a small per-thread workspace cache keyed by
shape, so repeated forwards — every denoising step of every sampler pass —
reuse the same buffers instead of re-allocating them.  Graph-building calls
never use the cache: their VJP keeps the patch matrix, which must therefore
stay privately owned.  That is why :func:`conv2d` asks the grad-mode
question itself before its forward.

Every GEMM in this module dispatches through :mod:`repro.tensor.backend`
rather than calling numpy directly: inference paths use the active backend,
graph-building forwards and all VJPs pin the bit-exact reference backend.
:func:`fused_linear` / :func:`fused_conv2d` are the integer-domain entry
points the quantized layer wrappers try first.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional, Tuple

import numpy as np

from .backend import PackedLevelsView, active_backend, reference_backend
from .tensor import Tensor, _apply, _builds_graph, is_inference_mode

#: Per-thread workspace cache (thread-local: the parallel experiment runner
#: forwards independent models on worker threads).  Bounded so long-running
#: servers that touch many distinct shapes cannot grow it without limit.
_WORKSPACES = threading.local()
_WORKSPACE_LIMIT = 64


# repro: hot -- every conv/matmul on the inference path draws scratch from here
def _workspace(key: tuple, shape: tuple, dtype, zero: bool = False) -> np.ndarray:
    """Return a cached scratch array for ``key``, (re)allocating on mismatch."""
    cache = getattr(_WORKSPACES, "arrays", None)
    if cache is None:
        cache = OrderedDict()
        _WORKSPACES.arrays = cache
    array = cache.get(key)
    if array is None or array.shape != shape or array.dtype != dtype:
        array = np.zeros(shape, dtype=dtype) if zero else np.empty(shape, dtype=dtype)
        cache[key] = array
        while len(cache) > _WORKSPACE_LIMIT:
            cache.popitem(last=False)
    else:
        cache.move_to_end(key)
    return array


# repro: hot -- dominant non-matmul cost of every convolution
def _im2col(x: np.ndarray, kernel: Tuple[int, int], stride: int,
            padding: int, reuse: bool = False) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Rearrange image patches into columns for convolution as a matmul.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.
    kernel:
        Spatial kernel size ``(kh, kw)``.
    reuse:
        Draw the padded image and the column matrix from the per-thread
        workspace cache.  Only safe when the caller does not retain ``cols``
        beyond the current operation (i.e. builds no graph node).

    Returns
    -------
    cols:
        Array of shape ``(N, out_h * out_w, C * kh * kw)``.
    (out_h, out_w):
        Output spatial dimensions.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    if padding:
        if reuse:
            # The workspace is zero-initialized once; the borders stay zero
            # because only the interior is ever written.
            padded = _workspace(("pad", n, c, h, w, padding, x.dtype.str),
                                (n, c, h + 2 * padding, w + 2 * padding),
                                x.dtype, zero=True)
            padded[:, :, padding:padding + h, padding:padding + w] = x
            x = padded
        else:
            x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ph, pw = x.shape[2], x.shape[3]
    out_h = (ph - kh) // stride + 1
    out_w = (pw - kw) // stride + 1
    strides = x.strides
    shape = (n, c, out_h, out_w, kh, kw)
    view = np.lib.stride_tricks.as_strided(
        x,
        shape=shape,
        strides=(strides[0], strides[1], strides[2] * stride,
                 strides[3] * stride, strides[2], strides[3]),
        writeable=False,
    )
    patches = view.transpose(0, 2, 3, 1, 4, 5)
    if reuse:
        cols = _workspace(("cols", n, out_h, out_w, c, kh, kw, x.dtype.str),
                          (n, out_h * out_w, c * kh * kw), x.dtype)
        np.copyto(cols.reshape(n, out_h, out_w, c, kh, kw), patches)
        return cols, (out_h, out_w)
    cols = patches.reshape(n, out_h * out_w, c * kh * kw)
    return np.ascontiguousarray(cols), (out_h, out_w)


def _col2im(cols: np.ndarray, x_shape: Tuple[int, int, int, int],
            kernel: Tuple[int, int], stride: int, padding: int) -> np.ndarray:
    """Inverse of :func:`_im2col`, accumulating overlapping patches."""
    n, c, h, w = x_shape
    kh, kw = kernel
    ph, pw = h + 2 * padding, w + 2 * padding
    out_h = (ph - kh) // stride + 1
    out_w = (pw - kw) // stride + 1
    padded = np.zeros((n, c, ph, pw), dtype=cols.dtype)
    cols = cols.reshape(n, out_h, out_w, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    for i in range(kh):
        for j in range(kw):
            padded[:, :, i:i + stride * out_h:stride, j:j + stride * out_w:stride] += \
                cols[:, :, :, :, i, j]
    if padding:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution with autograd support.

    ``x`` has shape ``(N, C_in, H, W)`` and ``weight`` has shape
    ``(C_out, C_in, kh, kw)``.  Implemented with im2col so the heavy lifting
    is a single matmul, which keeps the pure-Python overhead manageable.
    Graph-free calls (inference/no-grad) additionally run the im2col and the
    matmul inside cached per-thread workspaces.
    """
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = weight.shape
    parents = (x, weight) if bias is None else (x, weight, bias)
    track = _builds_graph(parents)
    cols, (out_h, out_w) = _im2col(x.data, (kh, kw), stride, padding,
                                   reuse=not track)
    w_mat = weight.data.reshape(c_out, -1)

    if not track:
        gemm = _workspace(("gemm", n, out_h * out_w, c_out, cols.dtype.str),
                          (n, out_h * out_w, c_out), cols.dtype)
        active_backend().im2col_conv(
            cols, w_mat, None if bias is None else bias.data, out=gemm)
        # ascontiguousarray forces a copy out of the workspace (the plain
        # transpose+reshape would alias it), so the returned tensor owns its
        # data and the workspace is free for the next call.
        out = np.ascontiguousarray(gemm.transpose(0, 2, 1))
        return Tensor._from_data(out.reshape(n, c_out, out_h, out_w))

    # Graph-building path: pinned to the reference backend, like every
    # VJP — autograd numerics never change with the backend.  It returns
    # the transposed view, not a contiguous copy: later products see the
    # memory layout training has always seen.
    out = reference_backend().im2col_conv(
        cols, w_mat, None if bias is None else bias.data)  # (N, L, C_out)
    out = out.transpose(0, 2, 1).reshape(n, c_out, out_h, out_w)
    return _apply(out, parents, _conv2d_vjp, cols, w_mat, stride, padding)


def _conv2d_vjp(grad, cols, w_mat, stride, padding, x, weight, bias=None):
    reference = reference_backend()
    n, c_out = grad.shape[:2]
    grad_mat = grad.reshape(n, c_out, -1).transpose(0, 2, 1)
    grad_x = grad_w = grad_b = None
    if weight.requires_grad:
        grad_w = reference.gemm(
            np.ascontiguousarray(grad_mat).reshape(-1, c_out),
            cols.reshape(-1, cols.shape[-1]), transpose_a=True)
        grad_w = grad_w.reshape(weight.shape)
    if bias is not None and bias.requires_grad:
        grad_b = grad_mat.sum(axis=(0, 1))
    if x.requires_grad:
        grad_cols = reference.batched_gemm(grad_mat, w_mat)
        grad_x = _col2im(grad_cols, x.shape, weight.shape[2:], stride, padding)
    return grad_x, grad_w, grad_b


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` over the last dimension."""
    out = x.matmul(weight.transpose())
    if bias is not None:
        out = out + bias
    return out


def fused_linear(x: Tensor, storage, bias: Optional[Tensor] = None,
                 act_format=None) -> Optional[Tensor]:
    """Integer-domain linear layer straight from packed weight storage.

    ``x`` is the *unquantized* input and ``act_format`` its per-tensor
    integer or floating-point grid (``None`` when the activations have
    neither); ``storage`` is a :class:`~repro.core.qmodules.PackedIntWeight`
    whose :meth:`packed_view` levels go to the active backend's integer
    GEMM as the 1x1 case of :func:`fused_conv2d`.  Returns ``None`` whenever that path does not
    apply — outside inference mode, without an activation grid, when the
    storage has no row-aligned view, or when the backend declines — and
    the caller falls back to fake-quantizing ``x`` and the dequantized
    :func:`linear` path.
    """
    if act_format is None or not is_inference_mode():
        return None
    view: Optional[PackedLevelsView] = storage.packed_view()
    if view is None:
        return None
    n_rows, k = view.shape
    if x.shape[-1] != k:
        return None
    m = x.size // k
    out = active_backend().fused_int_gemm(
        x.data.reshape(m, k, 1, 1), view, act_format,
        bias=None if bias is None else bias.data)
    if out is None:
        return None
    return Tensor._from_data(out.reshape(x.shape[:-1] + (n_rows,)))


def fused_conv2d(x: Tensor, storage, bias: Optional[Tensor] = None,
                 stride: int = 1, padding: int = 0, kernel_size: int = 1,
                 act_format=None) -> Optional[Tensor]:
    """Integer-domain convolution straight from packed weight storage.

    The backend quantizes the unquantized input ``x`` onto ``act_format``
    while gathering it into the im2col patch matrix, then multiplies the
    patch levels with the packed ``(C_out, K)`` weight levels of
    ``storage``, a :class:`~repro.core.qmodules.PackedIntWeight`.  Same
    ``None``-fallback contract as :func:`fused_linear`.
    """
    if act_format is None or not is_inference_mode():
        return None
    view: Optional[PackedLevelsView] = storage.packed_view()
    if view is None:
        return None
    if view.shape[1] != x.shape[1] * kernel_size * kernel_size:
        return None
    out = active_backend().fused_int_gemm(
        x.data, view, act_format, bias=None if bias is None else bias.data,
        kernel_size=kernel_size, stride=stride, padding=padding)
    return None if out is None else Tensor._from_data(out)


def avg_pool2d(x: Tensor, kernel: int = 2) -> Tensor:
    """Average pooling with a square kernel and matching stride."""
    n, c, h, w = x.shape
    out_h, out_w = h // kernel, w // kernel
    view = x.data[:, :, :out_h * kernel, :out_w * kernel]
    view = view.reshape(n, c, out_h, kernel, out_w, kernel)
    return _apply(view.mean(axis=(3, 5)), (x,), _avg_pool2d_vjp, kernel)


def _avg_pool2d_vjp(grad, kernel, x):
    expanded = np.repeat(np.repeat(grad, kernel, axis=2), kernel, axis=3)
    full = np.zeros_like(x.data)
    full[:, :, :expanded.shape[2], :expanded.shape[3]] = expanded / (kernel * kernel)
    return (full,)


def upsample_nearest(x: Tensor, scale: int = 2) -> Tensor:
    """Nearest-neighbour spatial upsampling by an integer factor."""
    out = np.repeat(np.repeat(x.data, scale, axis=2), scale, axis=3)
    return _apply(out, (x,), _upsample_nearest_vjp, scale)


def _upsample_nearest_vjp(grad, scale, x):
    n, c, h, w = x.shape
    return (grad.reshape(n, c, h, scale, w, scale).sum(axis=(3, 5)),)


def scaled_dot_product_attention(query: Tensor, key: Tensor,
                                 value: Tensor) -> Tensor:
    """Attention ``softmax(Q K^T / sqrt(d)) V`` over the last two dims.

    Shapes follow the usual ``(batch*heads, tokens, head_dim)`` convention.
    Composed of :class:`Tensor` operations; both products dispatch through
    the active compute backend.
    """
    d = query.shape[-1]
    scores = query.matmul(key.swapaxes(-1, -2)) * (1.0 / np.sqrt(d))
    weights = scores.softmax(axis=-1)
    return weights.matmul(value)


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error between two tensors."""
    diff = prediction - target
    return (diff * diff).mean()
