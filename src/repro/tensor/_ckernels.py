"""Integer GEMM kernels for the accelerated backend, compiled at runtime.

A quantized layer whose weight is stored as packed levels and whose
activations use a per-tensor integer grid of at most 8 bits, or a
floating-point grid whose levels fit int16, runs in the integer domain on
the accelerated backend, as one C call per product, ``fused_gemm``:

1. The input is quantized straight into the im2col patch matrix, in the
   layout of :func:`repro.tensor.functional._im2col` (a linear layer is
   the 1x1 case):

   * on an integer grid, to uint8 levels with the arithmetic of
     :func:`repro.core.integer.int_levels` (Eq. 4:
     ``clip(rint(x / s_a) + z_a, 0, 2^b - 1)`` in float64, so the levels
     match it bit for bit).  Padding taps get the zero-point level, which
     stands for the 0.0 the float path pads with.
   * on an FP grid (the paper's FP8 E2M5/E3M4, or FP4), to signed int16
     levels with the arithmetic of :func:`repro.core.fp.fp_levels`: every
     grid point is an integer multiple of the subnormal step
     ``u = 2^(1-b-M)``, at most 252 (E2M5) or 1984 (E3M4) of them.  The
     binade comes from the exponent bits of ``|x| * 2^frac(b)`` and the
     powers of two are built from bits, so the loop vectorizes without a
     libm call.  Padding is level 0.

2. The GEMM computes exact int32 dot products of the activation levels
   against the packed weight levels (uint8, or two nibbles per byte; FP4
   weights are stored as levels of their own ``u``) and applies the
   affine epilogue

       ``y[m, n] = s_a s_w[n] (sum q_a q_w - z_w[n] sum q_a
                              - z_a sum q_w[n] + K z_a z_w[n]) + bias[n]``

   in float64, rounding once to float32.  ``sum q_w[n]`` comes
   precomputed with the packed weight view; FP activations have
   ``s_a = u`` and ``z_a = 0``.

The level image and the patch matrix are scratch that ``fused_gemm``
allocates and frees itself.  What does not change between calls — the
geometry, the activation grid and the pointers to the packed levels,
``level_sums``, ``zero_points``, ``scales`` and the bias — is a C
``struct plan`` that :meth:`IntKernels.plan` checks and fills once per
packed weight and input shape.  A :class:`KernelPlan` call then costs one
output allocation and one ctypes call: about 3 µs of Python for a small
product, where binding every buffer on every call cost 25 µs.

The source is plain C that gcc vectorizes: no intrinsics and no threads.
Weight rows are converted four at a time into a signed-byte buffer —
uint8 levels as ``(int8_t)(w ^ 0x80)``, with ``128 * sum q_a`` added back
in the epilogue, and nibbles unpacked — and four activation rows at a
time are dotted against them with sixteen independent accumulators, so
each weight load serves four rows.  ``gcc -O3 -march=native`` emits the
uint8 loop as ``vpdpbusd`` and the int16 loop as ``vpdpwssd`` on
AVX-VNNI CPUs.

Measured on the ``generate`` workload of ``perfbench/run.py`` (seed 1)
on a 2-vCPU AVX-512/VNNI VM (gcc 12, OpenBLAS): p50 wall time of 20
batch-1, 4-step DDIM images per variant of that benchmark's 167 MB U-Net,
in process, on the accelerated backend.

===========================  =========  =========  =======  =======
BLAS threads                 INT8/INT8  INT4/INT8  FP4/FP8  FP32
===========================  =========  =========  =======  =======
``OPENBLAS_NUM_THREADS=2``   44 ms      36 ms      46 ms    121 ms
``OPENBLAS_NUM_THREADS=1``   45 ms      37 ms      47 ms    190 ms
===========================  =========  =========  =======  =======

(Binding every buffer on every call, with two C calls per product and
the smallest products declined, alternating runs read 58/50/65/123 ms
and 59/51/65/184 ms.  Before the FP path, FP4/FP8 took 203 ms and
279 ms: float32 weights through BLAS plus numpy's
FP fake-quantization of every activation.)

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
from typing import Optional, Tuple

import numpy as np

C_SOURCE = r"""
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Eq. 4 levels of a contiguous run, in double like int_levels. */
static void int_levels_run(const float *restrict x, uint8_t *restrict q,
                           ptrdiff_t len, double scale, double zero_point,
                           double qmax) {
    for (ptrdiff_t i = 0; i < len; ++i) {
        double v = nearbyint((double)x[i] / scale) + zero_point;
        v = v < 0.0 ? 0.0 : v;
        v = v > qmax ? qmax : v;
        q[i] = (uint8_t)(int32_t)v;
    }
}

/* Signed FP grid levels of a contiguous run in units of the subnormal
 * step, the arithmetic of fp_levels: clip to the largest magnitude, take
 * the binade from the exponent bits of |v| * 2^frac(b), round v / unit
 * to that binade's step.  The powers of two are built from bits too, so
 * the loop has no libm call and vectorizes. */
static void fp_levels_run(const float *restrict x, int16_t *restrict q,
                          ptrdiff_t len, double max_value, double unit,
                          int64_t bias_floor, double frac_scale,
                          double max_level) {
    for (ptrdiff_t i = 0; i < len; ++i) {
        double v = (double)x[i];
        v = v > -max_value ? v : -max_value;
        v = v < max_value ? v : max_value;
        double t = fabs(v) * frac_scale;
        uint64_t bits;
        memcpy(&bits, &t, sizeof bits);
        /* step = unit * 2^shift, shift = max(binade - 1, 0) */
        int64_t shift = (int64_t)(bits >> 52) - 1024 + bias_floor;
        shift = shift > 0 ? shift : 0;
        uint64_t down_bits = (uint64_t)(1023 - shift) << 52;
        uint64_t up_bits = (uint64_t)(1023 + shift) << 52;
        double down, up;
        memcpy(&down, &down_bits, sizeof down);
        memcpy(&up, &up_bits, sizeof up);
        double level = nearbyint(v / unit * down) * up;
        level = level > -max_level ? level : -max_level;
        level = level < max_level ? level : max_level;
        q[i] = (int16_t)(int32_t)level;
    }
}

/* One patch row per output position: the levels of every channel's
 * ks x ks window, or the padding level where the window overhangs the
 * image.  Levels are uint8, or int16 when `wide`; inlined per kernel size
 * and level type so the tap loop unrolls. */
static inline __attribute__((always_inline)) void gather_patches(
        const void *restrict image, void *restrict cols,
        ptrdiff_t n, ptrdiff_t c, ptrdiff_t h, ptrdiff_t w,
        const ptrdiff_t ks, ptrdiff_t stride, ptrdiff_t pad,
        const int wide, int32_t pad_level) {
    ptrdiff_t oh = (h + 2 * pad - ks) / stride + 1;
    ptrdiff_t ow = (w + 2 * pad - ks) / stride + 1;
    ptrdiff_t taps[ks * ks];
    uint8_t *restrict dst8 = cols;
    int16_t *restrict dst16 = cols;
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
                if (wide) {
                    const int16_t *restrict plane =
                        (const int16_t *)image + b * c * h * w;
                    for (ptrdiff_t ci = 0; ci < c; ++ci, plane += h * w)
                        for (ptrdiff_t t = 0; t < ks * ks; ++t)
                            *dst16++ = taps[t] >= 0 ? plane[taps[t]]
                                                    : (int16_t)pad_level;
                } else {
                    const uint8_t *restrict plane =
                        (const uint8_t *)image + b * c * h * w;
                    for (ptrdiff_t ci = 0; ci < c; ++ci, plane += h * w)
                        for (ptrdiff_t t = 0; t < ks * ks; ++t)
                            *dst8++ = taps[t] >= 0 ? plane[taps[t]]
                                                   : (uint8_t)pad_level;
                }
            }
}

static inline __attribute__((always_inline)) void gather(
        const void *image, void *cols,
        ptrdiff_t n, ptrdiff_t c, ptrdiff_t h, ptrdiff_t w,
        ptrdiff_t ks, ptrdiff_t stride, ptrdiff_t pad,
        const int wide, int32_t pad_level) {
    if (ks == 3)
        gather_patches(image, cols, n, c, h, w, 3, stride, pad, wide, pad_level);
    else if (ks == 1)
        gather_patches(image, cols, n, c, h, w, 1, stride, pad, wide, pad_level);
    else
        gather_patches(image, cols, n, c, h, w, ks, stride, pad, wide, pad_level);
}

/* x: (n, c, h, w) float32.  cols: (n * oh * ow, c * ks * ks) levels, rows
 * ordered (image, oy, ox) and columns (channel, ky, kx).  image: scratch
 * of n * c * h * w levels of x.  A linear layer's input (h = w = 1) is
 * its own patch matrix. */
static void quantize_patches(const float *restrict x, uint8_t *restrict image,
                      uint8_t *restrict cols,
                      ptrdiff_t n, ptrdiff_t c, ptrdiff_t h, ptrdiff_t w,
                      ptrdiff_t ks, ptrdiff_t stride, ptrdiff_t pad,
                      double scale, double zero_point, double qmax) {
    if (ks == 1 && stride == 1 && pad == 0 && h * w == 1) {
        int_levels_run(x, cols, n * c, scale, zero_point, qmax);
        return;
    }
    int_levels_run(x, image, n * c * h * w, scale, zero_point, qmax);
    /* Padding taps get the zero-point level, which stands for the 0.0 the
     * float path pads with.  Only read where pad > 0, which the caller
     * admits only for a zero point in [0, qmax]; the int32 step keeps
     * other values defined. */
    gather(image, cols, n, c, h, w, ks, stride, pad, 0, (int32_t)zero_point);
}

/* The same for a floating-point grid: int16 levels, padding level 0. */
static void quantize_fp_patches(const float *restrict x, int16_t *restrict image,
                         int16_t *restrict cols,
                         ptrdiff_t n, ptrdiff_t c, ptrdiff_t h, ptrdiff_t w,
                         ptrdiff_t ks, ptrdiff_t stride, ptrdiff_t pad,
                         double max_value, double unit, int64_t bias_floor,
                         double frac_scale, double max_level) {
    if (ks == 1 && stride == 1 && pad == 0 && h * w == 1) {
        fp_levels_run(x, cols, n * c, max_value, unit, bias_floor,
                      frac_scale, max_level);
        return;
    }
    fp_levels_run(x, image, n * c * h * w, max_value, unit, bias_floor,
                  frac_scale, max_level);
    gather(image, cols, n, c, h, w, ks, stride, pad, 1, 0);
}

/* Weight rows per block, and activation rows per register tile. */
#define ROWS 4
#define TILE 4

static inline __attribute__((always_inline)) int32_t level(
        const void *restrict a, ptrdiff_t i, const int wide) {
    return wide ? ((const int16_t *)a)[i] : ((const uint8_t *)a)[i];
}

/* A weight byte, widened through int16 against int16 levels (gcc then
 * pairs it with them in vpdpwssd) and directly against bytes
 * (vpdpbusd). */
static inline __attribute__((always_inline)) int32_t weight(
        const int8_t *restrict b, ptrdiff_t i, const int wide) {
    return wide ? (int16_t)b[i] : b[i];
}

/* Exact dots of TILE activation rows against the ROWS converted weight
 * rows: sixteen independent int32 accumulators, so every weight load
 * serves TILE rows and every activation load ROWS rows.  Specialized
 * per activation type (wide: int16) by inlining. */
static inline __attribute__((always_inline)) void dots_tile(
        const void *restrict a, ptrdiff_t k, const int8_t *restrict b,
        const int wide, int32_t dots[TILE][ROWS]) {
    const char *restrict base = a;
    size_t stride = (size_t)k * (wide ? 2 : 1);
    const void *restrict a0 = base, *restrict a1 = base + stride,
               *restrict a2 = base + 2 * stride, *restrict a3 = base + 3 * stride;
    const int8_t *restrict b0 = b, *restrict b1 = b + k,
                 *restrict b2 = b + 2 * k, *restrict b3 = b + 3 * k;
    int32_t c00 = 0, c01 = 0, c02 = 0, c03 = 0, c10 = 0, c11 = 0, c12 = 0,
            c13 = 0, c20 = 0, c21 = 0, c22 = 0, c23 = 0, c30 = 0, c31 = 0,
            c32 = 0, c33 = 0;
    for (ptrdiff_t i = 0; i < k; ++i) {
        int32_t x0 = level(a0, i, wide), x1 = level(a1, i, wide),
                x2 = level(a2, i, wide), x3 = level(a3, i, wide);
        int32_t y0 = weight(b0, i, wide), y1 = weight(b1, i, wide),
                y2 = weight(b2, i, wide), y3 = weight(b3, i, wide);
        c00 += x0 * y0; c01 += x0 * y1; c02 += x0 * y2; c03 += x0 * y3;
        c10 += x1 * y0; c11 += x1 * y1; c12 += x1 * y2; c13 += x1 * y3;
        c20 += x2 * y0; c21 += x2 * y1; c22 += x2 * y2; c23 += x2 * y3;
        c30 += x3 * y0; c31 += x3 * y1; c32 += x3 * y2; c33 += x3 * y3;
    }
    int32_t tile[TILE][ROWS] = {{c00, c01, c02, c03}, {c10, c11, c12, c13},
                                {c20, c21, c22, c23}, {c30, c31, c32, c33}};
    memcpy(dots, tile, sizeof tile);
}

/* The same for one activation row (the rows past the last full tile). */
static inline __attribute__((always_inline)) void dots_row(
        const void *restrict a, ptrdiff_t k, const int8_t *restrict b,
        const int wide, int32_t dots[ROWS]) {
    const int8_t *restrict b0 = b, *restrict b1 = b + k,
                 *restrict b2 = b + 2 * k, *restrict b3 = b + 3 * k;
    int32_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
    for (ptrdiff_t i = 0; i < k; ++i) {
        int32_t x = level(a, i, wide);
        c0 += x * weight(b0, i, wide);
        c1 += x * weight(b1, i, wide);
        c2 += x * weight(b2, i, wide);
        c3 += x * weight(b3, i, wide);
    }
    dots[0] = c0, dots[1] = c1, dots[2] = c2, dots[3] = c3;
}

/* Weight rows n0 .. n0 + rows - 1 into the ROWS x k signed-byte buffer,
 * unused rows zeroed: uint8 levels as w - 128, nibbles as they are. */
static void load_rows(const uint8_t *restrict w, int8_t *restrict buf,
                      ptrdiff_t n0, ptrdiff_t rows, ptrdiff_t k,
                      int nibbles) {
    ptrdiff_t row_bytes = nibbles ? k / 2 : k;
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
}

/* The affine epilogue of patch row m against weight rows n0 .. n0 + rows
 * - 1, in double, rounded once to float32:
 *   y = s_a s_w[n] (dot + (shift - z_w[n]) sum q_a - z_a sum q_w[n]
 *                   + k z_a z_w[n]) + bias[n]
 * where shift is what load_rows took off the weight levels (128 for
 * bytes, 0 for nibbles).  Output row m is image m / spatial, position
 * m % spatial of the NCHW output. */
static inline __attribute__((always_inline)) void epilogue(
        const int32_t dots[ROWS], ptrdiff_t m, ptrdiff_t n0, ptrdiff_t rows,
        float *restrict out, ptrdiff_t n_rows, ptrdiff_t k, ptrdiff_t spatial,
        double shift, double a_sum, const int64_t *restrict w_sums,
        const double *restrict w_zps, const double *restrict w_scales,
        double a_scale, double a_zp, const float *restrict bias) {
    float *restrict dst = out + (m / spatial * n_rows + n0) * spatial
                          + m % spatial;
    for (ptrdiff_t r = 0; r < rows; ++r) {
        ptrdiff_t n = n0 + r;
        double zw = w_zps[n];
        double t = (double)dots[r] + (shift - zw) * a_sum
                   - a_zp * (double)w_sums[n] + (double)k * a_zp * zw;
        double y = a_scale * w_scales[n] * t;
        if (bias != NULL)
            y += (double)bias[n];
        dst[r * spatial] = (float)y;
    }
}

static inline __attribute__((always_inline)) int gemm(
        const void *restrict a, const int wide, const uint8_t *restrict w,
        float *restrict out, ptrdiff_t m_rows, ptrdiff_t n_rows, ptrdiff_t k,
        ptrdiff_t spatial, int nibbles, const int64_t *restrict w_sums,
        const double *restrict w_zps, const double *restrict w_scales,
        double a_scale, double a_zp, const float *restrict bias) {
    int8_t *buf = malloc((size_t)(ROWS * k));
    int32_t *a_sums = malloc((size_t)m_rows * sizeof *a_sums);
    if (buf == NULL || a_sums == NULL) {
        free(buf);
        free(a_sums);
        return -1;
    }
    size_t a_row = (size_t)k * (wide ? 2 : 1);
    for (ptrdiff_t m = 0; m < m_rows; ++m) {
        const char *restrict ar = (const char *)a + m * a_row;
        int32_t sum = 0;
        for (ptrdiff_t i = 0; i < k; ++i)
            sum += level(ar, i, wide);
        a_sums[m] = sum;
    }
    double shift = nibbles ? 0.0 : 128.0;
    for (ptrdiff_t n0 = 0; n0 < n_rows; n0 += ROWS) {
        ptrdiff_t rows = n_rows - n0 < ROWS ? n_rows - n0 : ROWS;
        load_rows(w, buf, n0, rows, k, nibbles);
        ptrdiff_t m = 0;
        for (; m + TILE <= m_rows; m += TILE) {
            int32_t dots[TILE][ROWS];
            dots_tile((const char *)a + m * a_row, k, buf, wide, dots);
            for (ptrdiff_t q = 0; q < TILE; ++q)
                epilogue(dots[q], m + q, n0, rows, out, n_rows, k, spatial,
                         shift, a_sums[m + q], w_sums, w_zps, w_scales,
                         a_scale, a_zp, bias);
        }
        for (; m < m_rows; ++m) {
            int32_t dots[ROWS];
            dots_row((const char *)a + m * a_row, k, buf, wide, dots);
            epilogue(dots, m, n0, rows, out, n_rows, k, spatial, shift,
                     a_sums[m], w_sums, w_zps, w_scales, a_scale, a_zp, bias);
        }
    }
    free(buf);
    free(a_sums);
    return 0;
}

/* a: (m_rows, k) activation levels: uint8 on an integer grid, or (wide)
 * int16 on a floating-point grid, in units of its subnormal step, with
 * zero point 0.  w: (n_rows, k) uint8 levels, or (n_rows, k / 2) nibbles
 * (element 2j low, 2j + 1 high) when `nibbles`.  out: (m_rows / spatial,
 * n_rows, spatial) float32 — NCHW for a conv whose patch row m is image
 * m / spatial, position m % spatial.  Returns -1 when the scratch buffers
 * cannot be allocated. */
static int int_gemm(const void *restrict a, int wide,
                    const uint8_t *restrict w, float *restrict out,
                    ptrdiff_t m_rows, ptrdiff_t n_rows, ptrdiff_t k,
                    ptrdiff_t spatial, int nibbles,
                    const int64_t *restrict w_sums,
                    const double *restrict w_zps,
                    const double *restrict w_scales,
                    double a_scale, double a_zp, const float *restrict bias) {
    if (wide)
        return gemm(a, 1, w, out, m_rows, n_rows, k, spatial, nibbles,
                    w_sums, w_zps, w_scales, a_scale, a_zp, bias);
    return gemm(a, 0, w, out, m_rows, n_rows, k, spatial, nibbles, w_sums,
                w_zps, w_scales, a_scale, a_zp, bias);
}

/* One packed weight's product at one input shape, filled once by the
 * Python plan: the geometry, the activation grid (an integer grid with
 * scale, zero point and qmax; or, when `wide`, an FP grid with scale =
 * unit, zero point 0 and the fp_levels parameters) and the weight-side
 * pointers.  Every field is 8 bytes, so the layout has no padding. */
struct plan {
    ptrdiff_t n, c, h, w, ks, stride, pad;
    ptrdiff_t m_rows, n_rows, k, spatial;
    int64_t wide, nibbles, bias_floor;
    double scale, zero_point, qmax, max_value, frac_scale, max_level;
    const uint8_t *weights;
    const int64_t *w_sums;
    const double *w_zps, *w_scales;
    const float *bias;
};

/* The whole product: x quantized into a patch matrix of levels, then the
 * int32 GEMM into out.  The level image and the patch matrix are scratch
 * of this call.  Returns -1 when scratch cannot be allocated. */
int fused_gemm(const struct plan *restrict p, const float *restrict x,
               float *restrict out) {
    if (p->m_rows == 0)
        return 0;
    size_t level = p->wide ? 2 : 1;
    int direct = p->ks == 1 && p->stride == 1 && p->pad == 0
                 && p->h * p->w == 1;
    size_t image_bytes = direct ? 0 : (size_t)(p->n * p->c * p->h * p->w)
                                      * level;
    image_bytes = (image_bytes + 63) & ~(size_t)63; /* cols on a cache line */
    char *scratch = malloc(image_bytes + (size_t)(p->m_rows * p->k) * level);
    if (scratch == NULL)
        return -1;
    void *cols = scratch + image_bytes;
    if (p->wide)
        quantize_fp_patches(x, (int16_t *)scratch, cols, p->n, p->c, p->h,
                            p->w, p->ks, p->stride, p->pad, p->max_value,
                            p->scale, p->bias_floor, p->frac_scale,
                            p->max_level);
    else
        quantize_patches(x, (uint8_t *)scratch, cols, p->n, p->c, p->h, p->w,
                         p->ks, p->stride, p->pad, p->scale, p->zero_point,
                         p->qmax);
    int status = int_gemm(cols, (int)p->wide, p->weights, out, p->m_rows,
                          p->n_rows, p->k, p->spatial, (int)p->nibbles,
                          p->w_sums, p->w_zps, p->w_scales, p->scale,
                          p->zero_point, p->bias);
    free(scratch);
    return status;
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


def is_fp_grid(act_format) -> bool:
    """Whether an activation grid is floating point (an ``FPFormat``;
    duck-typed, the tensor layer does not import :mod:`repro.core`)."""
    return hasattr(act_format, "mantissa_bits")


class _PlanStruct(ctypes.Structure):
    """The C ``struct plan``."""

    _fields_ = ([(name, ctypes.c_ssize_t) for name in
                 ("n", "c", "h", "w", "ks", "stride", "pad", "m_rows",
                  "n_rows", "k", "spatial")]
                + [(name, ctypes.c_int64) for name in
                   ("wide", "nibbles", "bias_floor")]
                + [(name, ctypes.c_double) for name in
                   ("scale", "zero_point", "qmax", "max_value", "frac_scale",
                    "max_level")]
                + [(name, ctypes.c_void_p) for name in
                   ("weights", "w_sums", "w_zps", "w_scales", "bias")])


#: ``from_buffer`` on this zero-length type is the cheapest way to hand an
#: ndarray's data pointer to ctypes (``ndarray.ctypes.data`` costs twice
#: as much).
_NO_BYTES = ctypes.c_char * 0


class KernelPlan:
    """One packed weight's product at one input shape, bound to ``fused_gemm``.

    :meth:`IntKernels.plan` checks every buffer and fills the C ``struct
    plan`` once; a call converts the input, allocates the output and makes
    one ctypes call.  The C code allocates its own scratch, so a plan never
    changes after it is built and any number of threads may call it at
    once.  It holds the arrays its pointers address (``buffers``), so it
    cannot outlive them, and it refuses to be pickled or copied: its
    pointers mean nothing in another process or to another weight.
    """

    __slots__ = ("shape", "out_shape", "buffers", "_struct", "_address",
                 "_run")

    def __init__(self, run, struct: _PlanStruct, shape: tuple,
                 out_shape: tuple, buffers: tuple):
        self.shape = shape
        self.out_shape = out_shape
        self.buffers = buffers
        self._struct = struct
        self._address = ctypes.addressof(struct)
        self._run = run

    # repro: hot -- one call per engaged integer product
    def __call__(self, x: np.ndarray) -> np.ndarray:
        """The ``out_shape`` float32 product of the ``shape`` input ``x``."""
        x = np.ascontiguousarray(x, dtype=np.float32)
        if x.shape != self.shape:
            raise ValueError(f"kernel plan for inputs {self.shape} "
                             f"got {x.shape}")
        out = np.empty(self.out_shape, dtype=np.float32)
        try:
            source = _NO_BYTES.from_buffer(x)
        except TypeError:  # a read-only input
            source = x.ctypes.data
        if self._run(self._address, source, _NO_BYTES.from_buffer(out)):
            raise MemoryError("fused_gemm could not allocate its scratch")
        return out

    def __reduce__(self):
        raise TypeError("a kernel plan holds this process's pointers; it is "
                        "never pickled or copied")


class IntKernels:
    """The compiled shared object: one entry point, bound by plans."""

    def __init__(self, lib: ctypes.CDLL):
        self._run = lib.fused_gemm
        self._run.argtypes = [ctypes.c_void_p] * 3
        self._run.restype = ctypes.c_int

    def plan(self, view, act_format, shape: Tuple[int, int, int, int],
             kernel_size: int = 1, stride: int = 1, padding: int = 0,
             bias: Optional[np.ndarray] = None) -> KernelPlan:
        """Bind the product of ``view`` with ``(N, C, H, W)`` inputs of
        ``shape`` quantized onto ``act_format``.

        ``view`` is a :class:`~repro.tensor.backend.PackedLevelsView`: the
        packed ``(C_out, K)`` weight levels (uint8, or nibbles at bitwidth
        <= 4), ``K = C * kernel_size**2``, with per-row ``level_sums``
        (int64), ``zero_points`` and ``scales`` (float64).  ``bias`` is
        float32 ``(C_out,)`` or ``None``.  ``act_format`` is an integer grid
        of at most 8 bits (``bitwidth``, ``scale``, ``zero_point``) or an FP
        grid whose levels fit int16 (``max_value``, ``min_subnormal``,
        ``bias_split``, ``max_level``).  Raises ``ValueError`` for a
        geometry with no output, a grid whose levels do not fit, or a
        buffer the C code would misread.
        """
        n, c, h, w = shape
        out_h = (h + 2 * padding - kernel_size) // stride + 1
        out_w = (w + 2 * padding - kernel_size) // stride + 1
        if kernel_size < 1 or stride < 1 or padding < 0 or min(out_h, out_w) < 1:
            raise ValueError(f"no {kernel_size}x{kernel_size} patches of a "
                             f"{h}x{w} image at stride {stride}, "
                             f"padding {padding}")
        n_rows, k = view.shape
        nibbles = view.bitwidth <= 4
        if k != c * kernel_size ** 2 or (nibbles and k % 2):
            raise ValueError(f"{'nibble' if nibbles else 'byte'} weight rows "
                             f"of K={k} cannot take {c} channels of "
                             f"{kernel_size}x{kernel_size} patches")
        _require(view.packed, np.uint8, (n_rows, k // 2 if nibbles else k))
        for per_row, dtype in ((view.level_sums, np.int64),
                               (view.zero_points, np.float64),
                               (view.scales, np.float64), (bias, np.float32)):
            if per_row is not None:
                _require(per_row, dtype, (n_rows,))
        if is_fp_grid(act_format):
            max_level = act_format.max_level
            if not 0 < max_level < 2 ** 15:
                raise ValueError(f"FP levels up to {max_level} do not fit int16")
            bias_floor, frac_scale = act_format.bias_split
            grid = dict(wide=1, scale=act_format.min_subnormal,
                        max_value=act_format.max_value, bias_floor=bias_floor,
                        frac_scale=frac_scale, max_level=float(max_level))
        else:
            if not 0 < act_format.bitwidth <= 8:
                raise ValueError(f"INT{act_format.bitwidth} levels do not "
                                 f"fit uint8")
            grid = dict(scale=act_format.scale,
                        zero_point=float(act_format.zero_point),
                        qmax=float(2 ** act_format.bitwidth - 1))
        spatial = out_h * out_w
        struct = _PlanStruct(
            n=n, c=c, h=h, w=w, ks=kernel_size, stride=stride, pad=padding,
            m_rows=n * spatial, n_rows=n_rows, k=k, spatial=spatial,
            nibbles=int(nibbles), weights=view.packed.ctypes.data,
            w_sums=view.level_sums.ctypes.data,
            w_zps=view.zero_points.ctypes.data,
            w_scales=view.scales.ctypes.data,
            bias=None if bias is None else bias.ctypes.data, **grid)
        buffers = (view.packed, view.level_sums, view.zero_points,
                   view.scales, bias)
        return KernelPlan(self._run, struct, tuple(shape),
                          (n, n_rows, out_h, out_w), buffers)


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
    """Forget the memoized kernels (tests flip the env gates).

    Plans already built keep their decision: a layer that ran before the
    reset still engages or declines as it did, so a test that flips the
    env gates uses fresh layers or clears ``view.plans``.
    """
    global _LOADED, _KERNELS, _STATUS
    with _LOAD_LOCK:
        _LOADED, _KERNELS, _STATUS = False, None, "unloaded"
