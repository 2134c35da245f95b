"""Pluggable compute backends behind the tensor engine's heavy kernels.

Every GEMM-shaped operation in the reproduction — matmul, im2col
convolution, attention score/value products — and the graph-free norm /
activation fast paths dispatch through the :class:`ComputeBackend`
contract defined here instead of calling numpy directly.  Two backends
ship:

``reference`` (default)
    The exact numpy spellings the engine has always used, in the same
    operation order and dtypes.  Outputs are **bit-identical** to the
    pre-backend code by construction; this is the backend every autograd
    (gradient-tracking) path uses unconditionally.

``accelerated`` (opt-in)
    Inherits the reference arithmetic for float GEMMs — numpy's BLAS
    (OpenBLAS) is already a blocked, cache-tiled GEMM, which no pure-
    Python tiling can beat — and runs **integer-quantized layers on
    integer arithmetic**: a layer whose weight is a
    :class:`PackedLevelsView` of integer levels and whose activations use
    a per-tensor integer grid quantizes its input straight into a uint8
    patch matrix and takes exact int32 dot products against the packed
    levels, so int8 reads 1/4 and int4 1/8 of the float weight's bytes
    and does byte arithmetic instead of float arithmetic.  Engages only
    in inference mode, within measured gates on the output rows and the
    weight size; everything else declines to the reference path.
    Outputs accumulate exactly and round once to float32, and are
    therefore **tolerance-bounded** against the reference (float32
    fake-quantize, then BLAS), not bit-identical — see the kernel table
    in ``EXPERIMENTS.md``.

Selection: :func:`set_backend` switches the process default (used by
every thread that has no override), :func:`use_backend` is a scoped
thread-local override, and the ``REPRO_BACKEND`` environment variable
picks the default at import time.  The active default and the fused
kernel tier are reported by :func:`backend_info`, which the bench
environment fingerprint includes.

MACs accounting: :func:`count_macs` is a context manager that counts the
multiply-accumulate operations of every dispatched GEMM on the current
thread (one MAC per output element per reduction step), which the bench
suite reports alongside wall-clock so speedups can be read against a
constant work metric.
"""

from __future__ import annotations

import contextlib
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import _ckernels

# ----------------------------------------------------------------------
# MACs accounting
# ----------------------------------------------------------------------
_MACS = threading.local()


class MacCounter:
    """Accumulates multiply-accumulate counts of dispatched GEMMs."""

    __slots__ = ("macs",)

    def __init__(self):
        self.macs = 0


@contextlib.contextmanager
def count_macs():
    """Count GEMM MACs on this thread inside the block.

    Yields a :class:`MacCounter` whose ``macs`` attribute accumulates one
    multiply-accumulate per output element per reduction step of every
    backend-dispatched GEMM (plain, batched, im2col and fused).  Counters
    nest; each active counter sees the full count of its block.
    """
    counter = MacCounter()
    stack = getattr(_MACS, "stack", None)
    if stack is None:
        stack = []
        _MACS.stack = stack
    stack.append(counter)
    try:
        yield counter
    finally:
        stack.pop()


def _add_macs(count: int) -> None:
    stack = getattr(_MACS, "stack", None)
    if stack:
        for counter in stack:
            counter.macs += count


# ----------------------------------------------------------------------
# packed weight view
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PackedLevelsView:
    """Row-aligned view of packed integer weight levels for integer GEMM.

    A GEMM-ready presentation of a quantized weight: the ``(N, K)``
    logical matrix whose rows are output channels, with per-row affine
    parameters (per-tensor formats broadcast one scale/zero-point to all
    rows).  ``packed`` is ``(N, K)`` uint8 for byte-packed levels
    (bitwidth 5–8) or ``(N, K // 2)`` for nibble-packed levels
    (bitwidth <= 4, two interleaved levels per byte) — nibble packing is
    only row-alignable when ``K`` is even, so storages with odd reduction
    depth expose no view at all.  ``level_sums[n]`` is the sum of row
    ``n``'s levels, the weight side of the integer GEMM's zero-point
    correction.

    Deliberately plain (numpy fields only): defined here so the tensor
    layer never imports :mod:`repro.core`, while ``PackedIntWeight``
    up in the core package constructs it.
    """

    packed: np.ndarray
    bitwidth: int
    shape: Tuple[int, int]
    scales: np.ndarray       # (N,) float64
    zero_points: np.ndarray  # (N,) float64, integer-valued
    level_sums: np.ndarray   # (N,) int64


# ----------------------------------------------------------------------
# backend contract
# ----------------------------------------------------------------------
class ComputeBackend:
    """Kernel contract every compute backend implements.

    The reference implementations below are the single source of the
    engine's numerics; subclasses override individual kernels and must
    document their tolerance against the reference spelling.
    """

    name = "reference"

    # -- GEMM family ---------------------------------------------------
    # repro: hot -- every 2-D matmul on inference and autograd paths
    def gemm(self, a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None,
             transpose_a: bool = False, transpose_b: bool = False) -> np.ndarray:
        """2-D product ``op(a) @ op(b)``, optionally into ``out``."""
        lhs = a.T if transpose_a else a
        rhs = b.T if transpose_b else b
        result = np.matmul(lhs, rhs, out=out)
        _add_macs(result.size * lhs.shape[-1])
        return result

    # repro: hot -- Tensor.matmul forwards every attention product here
    def batched_gemm(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Broadcasting batched matmul, numpy ``a @ b`` semantics."""
        result = a @ b
        _add_macs(result.size * a.shape[-1])
        return result

    # repro: hot -- the convolution matmul of every U-Net forward
    def im2col_conv(self, cols: np.ndarray, w_mat: np.ndarray,
                    bias: Optional[np.ndarray] = None,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
        """Patch-matrix convolution product ``cols @ w_mat.T (+ bias)``.

        ``cols`` is the ``(N, L, K)`` im2col matrix, ``w_mat`` the
        ``(C_out, K)`` flattened weight; returns ``(N, L, C_out)``.  When
        ``out`` is given the product and bias add run in place (the
        caller owns the workspace).
        """
        if out is None:
            result = cols @ w_mat.T
            if bias is not None:
                result = result + bias.reshape(1, 1, -1)
        else:
            result = np.matmul(cols, w_mat.T, out=out)
            if bias is not None:
                np.add(result, bias.reshape(1, 1, -1), out=result)
        _add_macs(result.size * cols.shape[-1])
        return result

    # -- integer GEMM --------------------------------------------------
    def fused_int_gemm(self, x: np.ndarray, view: PackedLevelsView,
                       act_format, bias: Optional[np.ndarray] = None,
                       kernel_size: int = 1, stride: int = 1,
                       padding: int = 0) -> Optional[np.ndarray]:
        """Quantized convolution of float input ``x`` in the integer domain.

        ``x`` is the unquantized ``(N, C, H, W)`` float32 input (a linear
        layer passes ``(M, K, 1, 1)``), ``view`` the packed ``(C_out, K)``
        weight levels with ``K = C * kernel_size**2``, and ``act_format``
        the per-tensor integer activation grid (``bitwidth``, ``scale``,
        ``zero_point``, as :class:`repro.core.integer.IntFormat`).
        Returns the ``(N, C_out, H_out, W_out)`` float32 output of
        quantizing ``x`` onto that grid and convolving it with the
        dequantized weight, or ``None`` when the backend declines (the
        caller then fake-quantizes and takes the float path).  The
        reference backend always declines.
        """
        return None

    # -- norm / activation fast paths ----------------------------------
    # These are the graph-free spellings of the corresponding autograd
    # operations: same operations, same order, same dtypes, minus the
    # per-op Tensor wrapping — bit-identical outputs.

    # repro: hot -- graph-free GroupNorm of every U-Net block
    def group_norm(self, x: np.ndarray, num_groups: int, weight: np.ndarray,
                   bias: np.ndarray, eps: float) -> np.ndarray:
        n, c, h, w = x.shape
        grouped = x.reshape(n, num_groups, c // num_groups * h * w)
        inv_count = np.float32(1.0 / grouped.shape[2])
        mean = grouped.sum(axis=2, keepdims=True) * inv_count
        centered = grouped - mean
        var = (centered * centered).sum(axis=2, keepdims=True) * inv_count
        normed = centered / np.sqrt(var + np.float32(eps))
        normed = normed.reshape(n, c, h, w)
        return (normed * weight.reshape(1, c, 1, 1)
                + bias.reshape(1, c, 1, 1))

    # repro: hot -- graph-free LayerNorm of the transformer blocks
    def layer_norm(self, x: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                   eps: float) -> np.ndarray:
        inv_count = np.float32(1.0 / x.shape[-1])
        mean = x.sum(axis=-1, keepdims=True) * inv_count
        centered = x - mean
        var = (centered * centered).sum(axis=-1, keepdims=True) * inv_count
        normed = centered / np.sqrt(var + np.float32(eps))
        return normed * weight + bias

    # repro: hot -- graph-free SiLU between every pair of U-Net convs
    def silu(self, x: np.ndarray) -> np.ndarray:
        sig = 1.0 / (1.0 + np.exp(-x))
        return x * sig

    # repro: hot -- graph-free attention softmax
    def softmax(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        shifted = x - x.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=axis, keepdims=True)


class NumpyReferenceBackend(ComputeBackend):
    """The default backend: plain numpy, bit-identical to the pre-backend
    engine.  All kernels are the base-class reference implementations."""

    name = "reference"


class AcceleratedBackend(ComputeBackend):
    """Opt-in backend that runs integer-quantized layers on integers.

    Float GEMMs are inherited unchanged from the reference backend —
    numpy's BLAS is already a blocked, cache-tiled implementation with
    its own packing workspaces, and a Python-level re-tiling of it only
    loses.  What this backend adds is :meth:`fused_int_gemm`: when a
    product with at most ``_FUSED_MAX_M`` output rows hits a packed
    integer weight of at least ``_FUSED_MIN_WEIGHT`` elements and the
    activations use an integer grid, two kernels from
    :mod:`repro.tensor._ckernels` quantize the input straight into a
    uint8 patch matrix and take exact int32 dot products against the
    packed levels, with the affine correction and the bias applied in
    the kernel.  Neither the float32 weight nor the fake-quantized float
    input is materialized.

    Declined (``None``, reference path): activation grids wider than 8
    bits; reduction depths whose int32 accumulator could overflow
    (``K * 255 * 128 >= 2**31`` for byte levels, ``K * 255 * 15`` for
    nibbles); padded convolutions whose activation zero point has no
    level (the padded 0.0 could not be represented, which happens when
    calibration saw only positive or only negative values); and any
    product when the kernels are unavailable.

    Tolerance: exact integer accumulation and one float32 rounding,
    against the reference's float32 fake-quantized operands and BLAS
    accumulation order; see ``EXPERIMENTS.md``.
    """

    name = "accelerated"

    #: The gates, measured per product through the full layer call on a
    #: 2-vCPU AVX-512/VNNI VM: integer-path time over declined-path time
    #: (fake-quantize, then BLAS on the float weight memo), int8 and int4
    #: weights; below 1 the integer path wins.
    #:
    #:   =====================  ===========  ===========
    #:   product: M, N x K      1 thread     2 threads
    #:   =====================  ===========  ===========
    #:   1, 512 x 4608          0.31  0.21   0.04* 0.36
    #:   4, 512 x 4608          0.16  0.13   0.25  0.08*
    #:   16, 512 x 4608         0.27  0.24   0.08* 0.26
    #:   64, 512 x 4608         0.44  0.41   0.54  0.45
    #:   256, 512 x 4608        0.55  0.52   0.47  0.32
    #:   1024, 128 x 1152       0.40  0.42   0.18  0.44
    #:   64, 64 x 27            1.64  --     1.93  --
    #:   64, 64 x 144           0.94  0.98   0.94  1.03
    #:   1, 64 x 256            1.25  1.32   1.25  1.23
    #:   64, 64 x 288           0.54  0.61   0.59  0.55
    #:   4, 64 x 576            0.62  0.63   0.67  0.62
    #:   64, 64 x 576           0.33  0.37   0.39  0.33
    #:   1, 512 x 256           0.90  0.70   1.01  0.82
    #:   =====================  ===========  ===========
    #:
    #: (* the declined 2-thread BLAS call stalled waking its second
    #: thread; -- odd K has no nibble view.)  The integer path wins at
    #: every M measured, so the row gate is the largest M measured.  Below
    #: one 64-channel 3x3 conv's weight (64 x 576) the fixed cost of the
    #: two kernel calls ties or loses against a cache-resident BLAS
    #: product.
    _FUSED_MAX_M = 1024
    _FUSED_MIN_WEIGHT = 36864

    _WORKSPACE_LIMIT = 32

    def __init__(self):
        self._workspaces = threading.local()

    def _workspace(self, key: tuple, shape: tuple, dtype) -> np.ndarray:
        """Bounded per-thread scratch cache (mirrors functional's)."""
        cache = getattr(self._workspaces, "arrays", None)
        if cache is None:
            cache = OrderedDict()
            self._workspaces.arrays = cache
        array = cache.get(key)
        if array is None or array.shape != shape or array.dtype != dtype:
            array = np.empty(shape, dtype=dtype)
            cache[key] = array
            while len(cache) > self._WORKSPACE_LIMIT:
                cache.popitem(last=False)
        else:
            cache.move_to_end(key)
        return array

    def _engages(self, m_rows: int, view: PackedLevelsView, act_format,
                 padding: int) -> bool:
        n_rows, k = view.shape
        levels = 2 ** act_format.bitwidth
        weight_max = 128 if view.bitwidth > 4 else 15
        return (m_rows <= self._FUSED_MAX_M
                and n_rows * k >= self._FUSED_MIN_WEIGHT
                and levels <= 256
                and k * 255 * weight_max < 2 ** 31  # int32 accumulator
                and (not padding or 0 <= act_format.zero_point < levels))

    # repro: hot -- the quantized-layer product of every integer forward
    def fused_int_gemm(self, x: np.ndarray, view: PackedLevelsView,
                       act_format, bias: Optional[np.ndarray] = None,
                       kernel_size: int = 1, stride: int = 1,
                       padding: int = 0) -> Optional[np.ndarray]:
        n, c, h, w = x.shape
        out_h = (h + 2 * padding - kernel_size) // stride + 1
        out_w = (w + 2 * padding - kernel_size) // stride + 1
        m_rows = n * out_h * out_w
        if not self._engages(m_rows, view, act_format, padding):
            return None
        kernels = _ckernels.load_kernels()
        if kernels is None:
            return None
        n_rows, k = view.shape
        x = np.ascontiguousarray(x, dtype=np.float32)
        image = self._workspace(("image", n, c, h, w), (n, c, h, w), np.uint8)
        cols = self._workspace(("cols", m_rows, k), (m_rows, k), np.uint8)
        kernels.quantize_patches(x, image, cols, kernel_size, stride, padding,
                                 act_format.scale, act_format.zero_point,
                                 act_format.bitwidth)
        out = np.empty((n, n_rows, out_h, out_w), dtype=np.float32)
        if bias is not None:
            bias = np.ascontiguousarray(bias, dtype=np.float32)
        kernels.int_gemm(cols, view.packed, view.bitwidth <= 4,
                         view.level_sums, view.zero_points, view.scales,
                         act_format.scale, act_format.zero_point, bias,
                         out.reshape(n, n_rows, out_h * out_w))
        _add_macs(m_rows * n_rows * k)
        return out


# ----------------------------------------------------------------------
# registry and selection
# ----------------------------------------------------------------------
#: Guards the registry and the process-default switch; the *read* path
#: (active_backend) is lock-free — it reads one reference, and a torn
#: read cannot occur on a single attribute swap.
_BACKEND_LOCK = threading.Lock()
_BACKENDS: dict = {}
_OVERRIDES = threading.local()


def register_backend(backend: ComputeBackend) -> None:
    """Add a backend instance to the registry under ``backend.name``."""
    with _BACKEND_LOCK:
        _BACKENDS[backend.name] = backend


def get_backend(name: str) -> ComputeBackend:
    """Look up a registered backend by name."""
    with _BACKEND_LOCK:
        backend = _BACKENDS.get(name)
        if backend is None:
            known = sorted(_BACKENDS)
            raise ValueError(f"unknown backend {name!r}; known backends: {known}")
        return backend


def list_backends() -> Tuple[str, ...]:
    """Names of all registered backends."""
    with _BACKEND_LOCK:
        return tuple(sorted(_BACKENDS))


register_backend(NumpyReferenceBackend())
register_backend(AcceleratedBackend())

_DEFAULT = _BACKENDS["reference"]


def set_backend(name: str) -> None:
    """Switch the process-default backend (all threads without overrides)."""
    global _DEFAULT
    backend = get_backend(name)
    with _BACKEND_LOCK:
        _DEFAULT = backend


# repro: hot -- autograd backward closures pin the bit-exact backend
def reference_backend() -> ComputeBackend:
    """The always-registered bit-exact reference backend.

    Gradient paths dispatch through this unconditionally — autograd
    numerics never change with the backend selection.  Lock-free read of
    a registry key that is installed at import and never removed.
    """
    return _BACKENDS["reference"]


# repro: hot -- consulted by every dispatched tensor operation
def active_backend() -> ComputeBackend:
    """The backend in effect on this thread: innermost override, else
    the process default."""
    stack = getattr(_OVERRIDES, "stack", None)
    if stack:
        return stack[-1]
    return _DEFAULT


@contextlib.contextmanager
def use_backend(name: str):
    """Scoped thread-local backend override (does not affect other threads)."""
    backend = get_backend(name)
    stack = getattr(_OVERRIDES, "stack", None)
    if stack is None:
        stack = []
        _OVERRIDES.stack = stack
    stack.append(backend)
    try:
        yield backend
    finally:
        stack.pop()


def backend_info() -> dict:
    """Backend facts for the bench environment fingerprint."""
    return {
        "default": _DEFAULT.name,
        "kernels": _ckernels.kernel_status(),
    }


_env_choice = os.environ.get("REPRO_BACKEND")
if _env_choice:
    set_backend(_env_choice)  # raises on unknown names: fail at import, loudly
del _env_choice
