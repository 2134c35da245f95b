"""Integer GEMM kernels for the accelerated backend, compiled at runtime.

A quantized layer whose weight is stored as packed integer levels and
whose activations use a per-tensor integer grid of at most 8 bits runs in
the integer domain on the accelerated backend, as two C calls:

1. ``quantize_patches`` maps the float32 input to uint8 activation levels
   with the arithmetic of :func:`repro.core.integer.int_levels` (Eq. 4:
   ``clip(rint(x / s_a) + z_a, 0, 2^b - 1)`` in float64, so the levels
   match it bit for bit) and gathers them into the im2col patch matrix in
   the layout of :func:`repro.tensor.functional._im2col`.  Padding taps
   get the zero-point level, which stands for the 0.0 the float path pads
   with.  A linear layer is the 1x1 case.
2. ``int_gemm`` computes exact int32 dot products of the activation levels
   against the packed weight levels (uint8, or two nibbles per byte) and
   applies the affine epilogue

       ``y[m, n] = s_a s_w[n] (sum q_a q_w - z_w[n] sum q_a
                              - z_a sum q_w[n] + K z_a z_w[n]) + bias[n]``

   in float64, rounding once to float32.  ``sum q_w[n]`` comes
   precomputed with the packed weight view.

The source is plain C that gcc vectorizes: no intrinsics and no threads.
Weight rows are converted four at a time into a signed-byte buffer —
uint8 levels as ``(int8_t)(w ^ 0x80)``, with ``128 * sum q_a`` added back
in the epilogue, and nibbles unpacked — so the inner loop is an
unsigned-by-signed byte dot product with four independent accumulators,
which ``gcc -O3 -march=native`` emits as ``vpdpbusd`` on AVX-VNNI CPUs.

Measured with ``python3 perfbench/run.py --workload generate --seed 1``
on a 2-vCPU AVX-512/VNNI VM (gcc 12, OpenBLAS): p50 wall time of one
batch-1, 4-step DDIM image of that benchmark's 167 MB U-Net, on the
accelerated backend.

===========================  =========  =========  =======
BLAS threads                 INT8/INT8  INT4/INT8  FP32
===========================  =========  =========  =======
``OPENBLAS_NUM_THREADS=2``   89 ms      83 ms      191 ms
``OPENBLAS_NUM_THREADS=1``   85 ms      79 ms      252 ms
===========================  =========  =========  =======

The shared object is compiled once per machine with the system C compiler
(``cc``/``gcc``/``clang``, override with ``REPRO_CC``) and cached under
``REPRO_KERNEL_CACHE`` (default: a per-user temp directory), named after
a hash of the source, the flags, the compiler and the host's CPU flags —
a ``-march=native`` object built on another CPU could die with SIGILL.
``REPRO_NO_CKERNELS=1`` disables the kernels.  Without kernels every
integer product declines and the layer takes the reference path;
:func:`kernel_status` says why.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Optional

import numpy as np

C_SOURCE = r"""
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Eq. 4 levels of a contiguous run, in double like int_levels. */
static void quantize_run(const float *restrict x, uint8_t *restrict q,
                         ptrdiff_t len, double scale, double zero_point,
                         double qmax) {
    for (ptrdiff_t i = 0; i < len; ++i) {
        double v = nearbyint((double)x[i] / scale) + zero_point;
        v = v < 0.0 ? 0.0 : v;
        v = v > qmax ? qmax : v;
        q[i] = (uint8_t)(int32_t)v;
    }
}

/* One patch row per output position: the levels of every channel's
 * ks x ks window, or the zero-point level where the window overhangs the
 * image.  Inlined per kernel size so the tap loop unrolls. */
static inline __attribute__((always_inline)) void gather_patches(
        const uint8_t *restrict image, uint8_t *restrict cols,
        ptrdiff_t n, ptrdiff_t c, ptrdiff_t h, ptrdiff_t w,
        const ptrdiff_t ks, ptrdiff_t stride, ptrdiff_t pad, uint8_t zero) {
    ptrdiff_t oh = (h + 2 * pad - ks) / stride + 1;
    ptrdiff_t ow = (w + 2 * pad - ks) / stride + 1;
    ptrdiff_t taps[ks * ks];
    uint8_t *restrict dst = cols;
    for (ptrdiff_t b = 0; b < n; ++b)
        for (ptrdiff_t oy = 0; oy < oh; ++oy)
            for (ptrdiff_t ox = 0; ox < ow; ++ox) {
                for (ptrdiff_t ky = 0; ky < ks; ++ky)
                    for (ptrdiff_t kx = 0; kx < ks; ++kx) {
                        ptrdiff_t iy = oy * stride - pad + ky;
                        ptrdiff_t ix = ox * stride - pad + kx;
                        taps[ky * ks + kx] = (iy >= 0 && iy < h && ix >= 0
                                              && ix < w) ? iy * w + ix : -1;
                    }
                const uint8_t *restrict plane = image + b * c * h * w;
                for (ptrdiff_t ci = 0; ci < c; ++ci, plane += h * w)
                    for (ptrdiff_t t = 0; t < ks * ks; ++t)
                        *dst++ = taps[t] >= 0 ? plane[taps[t]] : zero;
            }
}

/* x: (n, c, h, w) float32.  cols: (n * oh * ow, c * ks * ks) levels, rows
 * ordered (image, oy, ox) and columns (channel, ky, kx).  image: scratch
 * of n * c * h * w bytes for the levels of x.  Padding taps get the
 * zero-point level. */
void quantize_patches(const float *restrict x, uint8_t *restrict image,
                      uint8_t *restrict cols,
                      ptrdiff_t n, ptrdiff_t c, ptrdiff_t h, ptrdiff_t w,
                      ptrdiff_t ks, ptrdiff_t stride, ptrdiff_t pad,
                      double scale, double zero_point, double qmax) {
    if (ks == 1 && stride == 1 && pad == 0 && h * w == 1) {
        quantize_run(x, cols, n * c, scale, zero_point, qmax);
        return;
    }
    quantize_run(x, image, n * c * h * w, scale, zero_point, qmax);
    /* Only read where pad > 0, which the caller admits only for a zero
     * point in [0, qmax]; the int32 step keeps other values defined. */
    uint8_t zero = (uint8_t)(int32_t)zero_point;
    if (ks == 3)
        gather_patches(image, cols, n, c, h, w, 3, stride, pad, zero);
    else if (ks == 1)
        gather_patches(image, cols, n, c, h, w, 1, stride, pad, zero);
    else
        gather_patches(image, cols, n, c, h, w, ks, stride, pad, zero);
}

#define ROWS 4

/* a: (m_rows, k) activation levels.  w: (n_rows, k) uint8 levels, or
 * (n_rows, k / 2) nibbles (element 2j low, 2j + 1 high) when `nibbles`.
 * out: (m_rows / spatial, n_rows, spatial) float32 — NCHW for a conv
 * whose patch row m is image m / spatial, position m % spatial.
 * Returns -1 when the scratch buffers cannot be allocated. */
int int_gemm(const uint8_t *restrict a, const uint8_t *restrict w,
             float *restrict out,
             ptrdiff_t m_rows, ptrdiff_t n_rows, ptrdiff_t k,
             ptrdiff_t spatial, int nibbles,
             const int64_t *restrict w_sums, const double *restrict w_zps,
             const double *restrict w_scales,
             double a_scale, double a_zp, const float *restrict bias) {
    int8_t *buf = malloc((size_t)(ROWS * k));
    int32_t *a_sums = malloc((size_t)m_rows * sizeof *a_sums);
    if (buf == NULL || a_sums == NULL) {
        free(buf);
        free(a_sums);
        return -1;
    }
    for (ptrdiff_t m = 0; m < m_rows; ++m) {
        const uint8_t *restrict ar = a + m * k;
        int32_t sum = 0;
        for (ptrdiff_t i = 0; i < k; ++i)
            sum += ar[i];
        a_sums[m] = sum;
    }
    double shift = nibbles ? 0.0 : 128.0;
    ptrdiff_t row_bytes = nibbles ? k / 2 : k;
    const int8_t *restrict b0 = buf, *restrict b1 = buf + k,
                 *restrict b2 = buf + 2 * k, *restrict b3 = buf + 3 * k;
    for (ptrdiff_t n0 = 0; n0 < n_rows; n0 += ROWS) {
        ptrdiff_t rows = n_rows - n0 < ROWS ? n_rows - n0 : ROWS;
        for (ptrdiff_t r = 0; r < ROWS; ++r) {
            int8_t *restrict row = buf + r * k;
            if (r >= rows) {
                memset(row, 0, (size_t)k);
                continue;
            }
            const uint8_t *restrict src = w + (n0 + r) * row_bytes;
            if (nibbles)
                for (ptrdiff_t j = 0; j < k / 2; ++j) {
                    row[2 * j] = (int8_t)(src[j] & 0x0F);
                    row[2 * j + 1] = (int8_t)(src[j] >> 4);
                }
            else
                for (ptrdiff_t i = 0; i < k; ++i)
                    row[i] = (int8_t)(src[i] ^ 0x80);
        }
        /* Output row m is image m / spatial, position m % spatial. */
        float *restrict dst = out + n0 * spatial;
        ptrdiff_t p = 0;
        for (ptrdiff_t m = 0; m < m_rows; ++m) {
            const uint8_t *restrict ar = a + m * k;
            int32_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
            for (ptrdiff_t i = 0; i < k; ++i) {
                int32_t ai = ar[i];
                c0 += ai * b0[i];
                c1 += ai * b1[i];
                c2 += ai * b2[i];
                c3 += ai * b3[i];
            }
            int32_t dots[ROWS] = {c0, c1, c2, c3};
            double a_sum = (double)a_sums[m];
            for (ptrdiff_t r = 0; r < rows; ++r) {
                ptrdiff_t n = n0 + r;
                double zw = w_zps[n];
                double t = (double)dots[r] + (shift - zw) * a_sum
                           - a_zp * (double)w_sums[n] + (double)k * a_zp * zw;
                double y = a_scale * w_scales[n] * t;
                if (bias != NULL)
                    y += (double)bias[n];
                dst[r * spatial + p] = (float)y;
            }
            if (++p == spatial) {
                p = 0;
                dst += n_rows * spatial;
            }
        }
    }
    free(buf);
    free(a_sums);
    return 0;
}
"""

#: Compiler flags; part of the cache key.  No float-licensing flags: the
#: quantization must round exactly like numpy, and the dot products are
#: integer, so plain ``-O3`` vectorizes them.
C_FLAGS = ("-O3", "-march=native", "-shared", "-fPIC")

_LOAD_LOCK = threading.Lock()
_LOADED = False
_KERNELS: Optional["IntKernels"] = None
_STATUS = "unloaded"


class KernelUnavailable(Exception):
    """The kernels cannot be built or loaded; the message says why."""


class IntKernels:
    """The two integer kernels of the compiled shared object."""

    def __init__(self, lib: ctypes.CDLL):
        self._quantize = lib.quantize_patches
        self._quantize.argtypes = ([ctypes.c_void_p] * 3
                                   + [ctypes.c_ssize_t] * 7
                                   + [ctypes.c_double] * 3)
        self._quantize.restype = None
        self._gemm = lib.int_gemm
        self._gemm.argtypes = ([ctypes.c_void_p] * 3
                               + [ctypes.c_ssize_t] * 4 + [ctypes.c_int]
                               + [ctypes.c_void_p] * 3
                               + [ctypes.c_double] * 2 + [ctypes.c_void_p])
        self._gemm.restype = ctypes.c_int

    def quantize_patches(self, x: np.ndarray, image: np.ndarray,
                         cols: np.ndarray, kernel_size: int, stride: int,
                         padding: int, scale: float, zero_point: int,
                         bitwidth: int) -> None:
        """Levels of ``x`` (``(N, C, H, W)`` float32) gathered into the
        uint8 patch matrix ``cols``; ``image`` is ``x``-shaped uint8
        scratch."""
        n, c, h, w = x.shape
        out_h = (h + 2 * padding - kernel_size) // stride + 1
        out_w = (w + 2 * padding - kernel_size) // stride + 1
        if kernel_size < 1 or stride < 1 or padding < 0 or min(out_h, out_w) < 1:
            raise ValueError(f"no {kernel_size}x{kernel_size} patches of a "
                             f"{h}x{w} image at stride {stride}, "
                             f"padding {padding}")
        _require(x, np.float32, x.shape)
        _require(image, np.uint8, x.shape)
        _require(cols, np.uint8, (n * out_h * out_w, c * kernel_size ** 2))
        self._quantize(x.ctypes.data, image.ctypes.data, cols.ctypes.data,
                       n, c, h, w, kernel_size, stride, padding,
                       scale, float(zero_point), float(2 ** bitwidth - 1))

    def int_gemm(self, cols: np.ndarray, packed: np.ndarray, nibbles: bool,
                 level_sums: np.ndarray, zero_points: np.ndarray,
                 scales: np.ndarray, act_scale: float, act_zero_point: int,
                 bias: Optional[np.ndarray], out: np.ndarray) -> None:
        """``out`` (``(N, C_out, L)`` float32, ``L`` patch rows per image)
        from the ``(M, K)`` levels ``cols`` and packed ``(C_out, ·)``
        weight levels with per-row ``level_sums`` (int64), ``zero_points``
        and ``scales`` (float64)."""
        m_rows, k = cols.shape
        n_rows, spatial = packed.shape[0], out.shape[-1]
        if (nibbles and k % 2) or spatial < 1 or m_rows % spatial:
            raise ValueError(f"int_gemm cannot take K={k} "
                             f"{'nibbles' if nibbles else 'bytes'} into "
                             f"{m_rows} rows of {spatial} positions")
        _require(cols, np.uint8, (m_rows, k))
        _require(packed, np.uint8, (n_rows, k // 2 if nibbles else k))
        _require(out, np.float32, (m_rows // spatial, n_rows, spatial))
        for per_row, dtype in ((level_sums, np.int64), (zero_points, np.float64),
                               (scales, np.float64), (bias, np.float32)):
            if per_row is not None:
                _require(per_row, dtype, (n_rows,))
        status = self._gemm(
            cols.ctypes.data, packed.ctypes.data, out.ctypes.data,
            m_rows, n_rows, k, spatial, int(nibbles),
            level_sums.ctypes.data, zero_points.ctypes.data,
            scales.ctypes.data, act_scale, float(act_zero_point),
            None if bias is None else bias.ctypes.data)
        if status:
            raise MemoryError("int_gemm could not allocate its scratch buffers")


def _require(array: np.ndarray, dtype, shape: tuple) -> None:
    """Refuse a buffer the C code would misread: another dtype, a strided
    layout or another shape."""
    if (array.dtype != dtype or array.shape != shape
            or not array.flags.c_contiguous):
        raise ValueError(f"kernel buffer must be C-contiguous {np.dtype(dtype)} "
                         f"{shape}, got {array.dtype} {array.shape}")


# ----------------------------------------------------------------------
# compilation
# ----------------------------------------------------------------------
def _find_compiler() -> str:
    override = os.environ.get("REPRO_CC")
    if override:
        if shutil.which(override) is None:
            raise KernelUnavailable(f"REPRO_CC={override} not found")
        return override
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    raise KernelUnavailable("no C compiler (cc, gcc, clang) on PATH")


def _host_isa() -> str:
    """The CPU feature flags ``-march=native`` compiles for, or the
    machine type where the kernel does not list them."""
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith(("flags", "Features")):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.machine()


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override)
    return Path(tempfile.gettempdir()) / f"repro-ckernels-{os.getuid()}"


def _shared_object_path(compiler: str, isa: str) -> Path:
    """Cache path of the object built by ``compiler`` for CPU flags ``isa``.

    The name hashes the source, the flags, the compiler and the host ISA,
    so a changed kernel never collides with a stale entry and a cache
    shared across hosts never hands one CPU another's instructions.
    """
    key = hashlib.sha256("\x00".join(
        [C_SOURCE, " ".join(C_FLAGS), compiler, isa]).encode()).hexdigest()[:16]
    return _cache_dir() / f"repro_intgemm_{key}.so"


def _compile_shared_object(compiler: str) -> Path:
    """Compile :data:`C_SOURCE` into its content-addressed ``.so``.

    Concurrent processes racing the first compile each build to a private
    temp name and ``os.replace`` (atomic) into place — last writer wins
    with identical bytes.  Raises :class:`KernelUnavailable` with the
    first line of the compiler's stderr when the compile fails.
    """
    target = _shared_object_path(compiler, _host_isa())
    if target.exists():
        return target
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=target.parent) as tmp:
            src = Path(tmp) / "kernels.c"
            src.write_text(C_SOURCE)
            obj = Path(tmp) / "kernels.so"
            result = subprocess.run(
                [compiler, *C_FLAGS, str(src), "-o", str(obj)],
                capture_output=True, text=True, timeout=120)
            if result.returncode != 0:
                lines = result.stderr.strip().splitlines()
                raise KernelUnavailable(
                    lines[0] if lines else
                    f"{compiler} exited with status {result.returncode}")
            os.replace(obj, target)
    except (OSError, subprocess.SubprocessError) as exc:
        raise KernelUnavailable(f"compile failed: {exc}") from exc
    return target


def _load() -> IntKernels:
    path = _compile_shared_object(_find_compiler())
    try:
        return IntKernels(ctypes.CDLL(str(path)))
    except (OSError, AttributeError) as exc:
        raise KernelUnavailable(f"load failed: {exc}") from exc


# ----------------------------------------------------------------------
# acquisition
# ----------------------------------------------------------------------
def load_kernels() -> Optional[IntKernels]:
    """The process-wide kernels, acquired once (lock-guarded memo)."""
    global _LOADED, _KERNELS, _STATUS
    with _LOAD_LOCK:
        if _LOADED:
            return _KERNELS
        if os.environ.get("REPRO_NO_CKERNELS"):
            _KERNELS, _STATUS = None, "disabled"
        else:
            try:
                _KERNELS, _STATUS = _load(), "cc"
            except KernelUnavailable as exc:
                _KERNELS, _STATUS = None, f"unavailable: {exc}"
        _LOADED = True
    return _KERNELS


def kernel_status() -> str:
    """``"cc" | "unavailable: <reason>" | "disabled" | "unloaded"``."""
    with _LOAD_LOCK:
        return _STATUS


def reset_kernels_for_testing() -> None:
    """Forget the memoized kernels (tests flip the env gates)."""
    global _LOADED, _KERNELS, _STATUS
    with _LOAD_LOCK:
        _LOADED, _KERNELS, _STATUS = False, None, "unloaded"
