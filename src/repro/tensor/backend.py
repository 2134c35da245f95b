"""Pluggable compute backends behind the tensor engine's heavy kernels.

Every GEMM-shaped operation in the reproduction — matmul, im2col
convolution, attention score/value products — and the quantized layers'
integer products dispatch through the :class:`ComputeBackend` contract
defined here instead of calling numpy directly.  Norms and activations
are plain numpy in :mod:`repro.tensor.tensor` and :mod:`repro.nn.layers`;
no backend changes them.  Two backends ship:

``reference`` (default)
    The exact numpy spellings the engine has always used, in the same
    operation order and dtypes.  Outputs are **bit-identical** to the
    pre-backend code by construction; this is the backend every autograd
    (gradient-tracking) path uses unconditionally.

``accelerated`` (opt-in)
    Inherits the reference arithmetic for float GEMMs — numpy's BLAS
    (OpenBLAS) is already a blocked, cache-tiled GEMM, which no pure-
    Python tiling can beat — and runs **quantized layers on integer
    arithmetic**: a layer whose weight is a :class:`PackedLevelsView` of
    integer levels (INT8/INT4, or FP4 as levels of its subnormal step)
    and whose activations use a per-tensor integer grid, or an FP grid
    whose levels fit int16 (the paper's FP8), quantizes its input straight
    into a uint8 or int16 patch matrix and takes exact int32 dot products
    against the packed levels, so int8 and E2M1 weights read 1/4 and int4
    and E1M2 weights 1/8 of the float weight's bytes, and it does integer
    arithmetic instead of float arithmetic.  Engages only in inference
    mode, within measured gates on the output rows, the reduction depth
    and the weight size; everything else declines to the reference path.
    Each packed weight binds its product once per input shape (a call
    plan), so a call does only the work that depends on its input.
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
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Tuple

import numpy as np

from . import _ckernels
from ._ckernels import is_fp_grid

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

    Deliberately plain (numpy fields, plus the backend's plans): defined
    here so the tensor layer never imports :mod:`repro.core`, while
    ``PackedIntWeight`` up in the core package constructs it.
    """

    packed: np.ndarray
    bitwidth: int
    shape: Tuple[int, int]
    scales: np.ndarray       # (N,) float64
    zero_points: np.ndarray  # (N,) float64, integer-valued
    level_sums: np.ndarray   # (N,) int64
    #: The accelerated backend's call plans for this weight, one per input
    #: shape and geometry (see :meth:`AcceleratedBackend.fused_int_gemm`).
    #: They live and die with the view, which is never pickled.
    plans: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)


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
        the per-tensor activation grid: an integer grid (``bitwidth``,
        ``scale``, ``zero_point``, as :class:`repro.core.integer.IntFormat`)
        or a floating-point one (as :class:`repro.core.formats.FPFormat`,
        whose grid points are integer multiples of its subnormal step).
        Returns the ``(N, C_out, H_out, W_out)`` float32 output of
        quantizing ``x`` onto that grid and convolving it with the
        dequantized weight, or ``None`` when the backend declines (the
        caller then fake-quantizes and takes the float path).  The
        reference backend always declines.
        """
        return None


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
    product passes the gates below, one C call from
    :mod:`repro.tensor._ckernels` quantizes the input straight into a
    patch matrix of activation levels and takes exact int32 dot products
    against the packed levels, with the affine correction and the bias
    applied in the kernel.  Integer activation grids give a uint8 patch
    matrix; floating-point grids (the paper's FP8, or FP4) give signed
    int16 levels in units of the format's subnormal step.  Packed weights
    are integer levels, or FP4 levels in that unit.  Neither the float32
    weight nor the fake-quantized float input is materialized.

    Call plans: the first product of a packed weight at an input shape
    decides the gates and, when they pass, binds a
    :class:`~repro.tensor._ckernels.KernelPlan` (checked weight-side
    pointers, geometry, activation grid); both are kept in the weight's
    :attr:`PackedLevelsView.plans` with the activation grid and bias they
    were made for.  Every later product at that shape reuses them, so a
    call pays one dict lookup, one output allocation and one ctypes call.

    Declined (``None``, reference path): products outside the gates;
    integer activation grids wider than 8 bits; FP activation formats
    whose levels exceed int16 (E4M3, E5M2); reduction depths whose int32
    accumulator could overflow (``K * max|q_a| * 128 >= 2**31`` for byte
    weight levels and ``K * max|q_a| * 15`` for nibbles, with
    ``max|q_a|`` 255 for uint8 levels and the format's ``max_level`` for
    FP ones — E2M5 252, E3M4 1984); padded convolutions whose integer
    activation zero point has no level (the padded 0.0 could not be
    represented, which happens when calibration saw only positive or only
    negative values; an FP grid always has level 0); and any product when
    the kernels are unavailable.  Layers without a packed weight — FP8 and
    block-FP weights — never reach this method.

    Tolerance: exact integer accumulation and one float32 rounding,
    against the reference's float32 fake-quantized operands and BLAS
    accumulation order; see ``EXPERIMENTS.md``.
    """

    name = "accelerated"

    #: The gates, measured per product through the full layer call on a
    #: 2-vCPU AVX-512/VNNI VM: integer-path time (a call plan) over
    #: declined-path time (fake-quantize, then BLAS on the float weight
    #: memo) for INT8/INT8, INT4/INT8 and FP4/FP8 (E1M2 weights, E2M5
    #: activations) layers; below 1 the integer path wins.  Convolutions
    #: are 3x3 where K is a multiple of 9 and 1x1 otherwise; M = 1 rows
    #: are linear layers.
    #:
    #:   =====================  ================  ================
    #:   product: M, N x K      1 thread          2 threads
    #:                          int8 int4 fp4     int8 int4 fp4
    #:   =====================  ================  ================
    #:   1, 512 x 4608          0.28 0.21 0.30    0.46 0.39 0.50
    #:   4, 512 x 4608          0.10 0.08 0.11    0.16 0.14 0.17
    #:   16, 512 x 4608         0.16 0.15 0.20    0.27 0.24 0.33
    #:   64, 512 x 4608         0.27 0.26 0.36    0.41 0.38 0.53
    #:   256, 512 x 4608        0.41 0.40 0.57    0.60 0.60 0.77
    #:   1024, 128 x 1152       0.34 0.33 0.41    0.42 0.43 0.48
    #:   64, 64 x 576           0.25 0.24 0.24    0.23 0.23 0.25
    #:   4, 64 x 576            0.22 0.21 0.18    0.21 0.21 0.18
    #:   64, 3 x 576            0.20 0.20 0.16    0.20 0.19 0.16
    #:   64, 64 x 288           0.29 0.28 0.27    0.26 0.26 0.27
    #:   1, 512 x 256           0.43 0.45 0.37    0.44 0.47 0.38
    #:   1, 128 x 256           0.35 0.35 0.25    0.35 0.35 0.25
    #:   1, 64 x 256            0.33 0.33 0.22    0.32 0.33 0.22
    #:   64, 64 x 192           0.38 0.38 0.16    0.35 0.36 0.17
    #:   16, 128 x 192          0.29 0.30 0.22    0.30 0.30 0.20
    #:   64, 64 x 144           0.37 0.37 0.31    0.33 0.34 0.31
    #:   64, 64 x 128           0.44 0.45 0.22    0.38 0.37 0.20
    #:   1, 3 x 128             0.30 0.30 0.20    0.30 0.31 0.20
    #:   1, 256 x 64            0.39 0.39 0.27    0.40 0.39 0.27
    #:   16, 128 x 64           0.36 0.36 0.26    0.37 0.37 0.25
    #:   64, 64 x 27            0.81 --   --      0.81 --   --
    #:   64, 1024 x 128         0.81 0.81 0.67    0.90 0.92 0.75
    #:   256, 1024 x 128        0.93 0.93 0.84    1.18 1.17 0.92
    #:   64, 1024 x 64          1.12 1.13 0.94    1.10 1.06 0.91
    #:   256, 512 x 64          1.25 1.27 0.86    1.20 1.22 0.79
    #:   256, 64 x 27           1.45 --   --      1.44 --   --
    #:   1024, 128 x 36         1.61 1.68 1.35    1.65 1.61 1.37
    #:   64, 512 x 27           2.16 --   --      1.56 --   --
    #:   =====================  ================  ================
    #:
    #: (-- odd K has no nibble view.)  With a plan a product's fixed cost
    #: is a few microseconds, against tens for the declined path's numpy
    #: calls, so small products win too, down to the smallest weight
    #: measured (3 x 128): that is the weight gate, as the row gate is the
    #: largest M measured.  The six rows from (256, 1024 x 128) down are
    #: admitted and lose, with integer weights on two threads: products
    #: with many outputs, where the kernel on one thread loses to BLAS on
    #: two, and shallow reductions (K < 128) with many outputs, where each
    #: 4x4 tile of outputs spends more on its 16 horizontal sums and its
    #: float64 epilogue than BLAS spends on the dots.  No weight gate
    #: separates them from the small winners, and no workload runs them;
    #: the shallow products of the ``generate`` U-Net, its time-embedding
    #: GEMV (1, 256 x 64), 1x1 skip convs (16, 128 x 64) and input conv
    #: (64, 64 x 27), win.
    _FUSED_MAX_M = 1024
    _FUSED_MIN_WEIGHT = 384

    def _engages(self, m_rows: int, view: PackedLevelsView, act_format,
                 padding: int) -> bool:
        n_rows, k = view.shape
        if m_rows > self._FUSED_MAX_M or n_rows * k < self._FUSED_MIN_WEIGHT:
            return False
        # The int32 accumulator holds K * max|q_a| * max|q_w| (bytes enter
        # the dots as w - 128, nibbles as they are).
        weight_max = 128 if view.bitwidth > 4 else 15
        if is_fp_grid(act_format):
            max_level = act_format.max_level  # int16 levels, zero point 0
            return (max_level < 2 ** 15
                    and k * max_level * weight_max < 2 ** 31)
        levels = 2 ** act_format.bitwidth
        return (levels <= 256
                and k * 255 * weight_max < 2 ** 31
                and (not padding or 0 <= act_format.zero_point < levels))

    # repro: hot -- the quantized-layer product of every integer forward
    def fused_int_gemm(self, x: np.ndarray, view: PackedLevelsView,
                       act_format, bias: Optional[np.ndarray] = None,
                       kernel_size: int = 1, stride: int = 1,
                       padding: int = 0) -> Optional[np.ndarray]:
        key = (x.shape, kernel_size, stride, padding)
        plan = view.plans.get(key)
        # Threads racing on a new key each build a correct plan; the last
        # one stored stays.
        if (plan is None or plan.act_format is not act_format
                or plan.bias is not bias):
            plan = self._plan(x.shape, view, act_format, bias, kernel_size,
                              stride, padding)
            view.plans[key] = plan
        if plan.kernel is None:
            return None
        out = plan.kernel(x)
        _add_macs(plan.macs)
        return out

    def _plan(self, shape: tuple, view: PackedLevelsView, act_format,
              bias: Optional[np.ndarray], kernel_size: int, stride: int,
              padding: int) -> "_CallPlan":
        """Decide once whether the product engages, and bind it if so."""
        n, _, h, w = shape
        out_h = (h + 2 * padding - kernel_size) // stride + 1
        out_w = (w + 2 * padding - kernel_size) // stride + 1
        m_rows = n * out_h * out_w
        kernels = None
        if self._engages(m_rows, view, act_format, padding):
            kernels = _ckernels.load_kernels()
        if kernels is None:
            return _CallPlan(act_format, bias, None, 0)
        kernel = kernels.plan(
            view, act_format, shape, kernel_size, stride, padding,
            None if bias is None else np.ascontiguousarray(bias,
                                                           dtype=np.float32))
        return _CallPlan(act_format, bias, kernel, m_rows * view.shape[0]
                         * view.shape[1])


class _CallPlan(NamedTuple):
    """A packed weight's product at one input shape on the accelerated
    backend: the activation grid and bias it was decided for (a layer that
    replaces either gets a new plan) and the bound kernel, ``None`` when
    the product declines."""

    act_format: object
    bias: Optional[np.ndarray]
    kernel: Optional[_ckernels.KernelPlan]
    macs: int


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


# repro: hot -- autograd VJPs pin the bit-exact backend
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
