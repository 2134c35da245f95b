"""Per-tensor encoding and bias selection (paper Algorithm 1).

For every weight or activation tensor the method grid-searches over the
candidate encodings for the target bitwidth (4 for FP8, 2 for FP4) and a set
of exponent-bias candidates derived from the tensor's value range, choosing
the combination that minimizes the MSE between the quantized tensor and the
full-precision tensor.  The paper uses 111 bias candidates, for 444 (FP8) or
222 (FP4) combinations per tensor; both are defaults here.

The search is *greedy across layers*: the model quantizer walks the network
layer by layer in breadth-first order, fixes each tensor's format as soon as
it is chosen, and never revisits it — exactly Algorithm 1's trimming of the
search space.

How a tensor's candidates are scored
------------------------------------
Scoring a candidate with :func:`~repro.core.fp.quantization_mse` is a pass
of float64 ``log2``/``power`` arithmetic over the whole tensor.  Instead the
search *screens* every candidate from one sort and then *confirms* the few
that can still win with that exact pass:

* **Screen.**  Quantization is symmetric in sign, so a candidate's squared
  error is a sum over its non-negative grid points ``g`` of ``(a - g)^2``
  over the magnitudes ``a = |x|`` rounding to ``g``.  The magnitudes are
  sorted once (float64) and their prefix sums taken.  A candidate's ``L =
  2^(e+m)`` grid points are the encoding's integer levels times its
  subnormal step (the levels of :func:`~repro.core.fp.fp_levels`, which do
  not depend on the bias), computed with the float64 steps of
  ``quantize_fp`` and rounded to float32, so each point is a value
  quantization returns.  One ``searchsorted`` of the midpoints between
  neighbouring points splits the sorted magnitudes into buckets (magnitudes
  above the clip ``c`` fall in the top bucket), and each bucket's
  ``sum (a - g)^2 = sum a^2 - 2 g sum a + n g^2`` comes from prefix-sum
  differences.  All biases of one encoding are screened as one (B, L) array.
* **Confirm.**  :func:`_screen` returns, next to each estimate, a bound on
  how far the exact squared error can be from it: float64 rounding of the
  sums, plus magnitudes within float32 rounding of a midpoint, which
  quantization may send to the other neighbour at nearly the same distance.
  Every candidate whose interval reaches below the best upper end is scored
  exactly, in the loop's (encoding, bias) order with strict ``<``, so the
  winner and its ``mse`` are the ones scoring every candidate exactly would
  give, bit for bit.  A wide bound costs only extra exact passes; on real
  tensors one candidate is confirmed.
* **Cost.**  Per tensor one ``O(N log N)`` sort, ``O(B L log N)`` screening
  per encoding and (typically) one exact pass, where scoring every
  candidate costs ``B`` exact passes per encoding.  The screen enumerates
  every grid point, so it is meant for low-bitwidth encodings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .formats import FPFormat, encoding_candidates
from .fp import quantization_mse

#: Number of bias candidates the paper found to be the best trade-off.
DEFAULT_NUM_BIAS_CANDIDATES = 111


@dataclass(frozen=True)
class SearchResult:
    """Outcome of the per-tensor format search."""

    fmt: FPFormat
    mse: float
    candidates_evaluated: int


def bias_candidates(values: np.ndarray, fmt: FPFormat,
                    num_candidates: int = DEFAULT_NUM_BIAS_CANDIDATES) -> List[float]:
    """Bias candidates derived from evenly spaced clipping maxima.

    The paper generates evenly spaced values between the minimum and maximum
    of the data being quantized and converts each to a bias through Eq. 7.
    Since the format is symmetric in sign, the relevant range is
    ``(0, max(|X|)]``: each candidate maximum becomes the largest magnitude
    the format can represent, i.e. a clipping threshold.
    """
    magnitude = float(np.max(np.abs(values))) if np.asarray(values).size else 0.0
    if magnitude <= 0.0:
        return [FPFormat.default_bias(fmt.exponent_bits)]
    maxima = np.linspace(magnitude / num_candidates, magnitude, num_candidates)
    return [float(FPFormat.bias_for_max_value(fmt.exponent_bits, fmt.mantissa_bits, m))
            for m in maxima]


def search_tensor_format(values: np.ndarray, bitwidth: int,
                         num_bias_candidates: int = DEFAULT_NUM_BIAS_CANDIDATES,
                         encodings: Optional[Sequence[FPFormat]] = None) -> SearchResult:
    """Algorithm 1 for a single tensor: best (encoding, bias) pair by MSE."""
    values = np.asarray(values, dtype=np.float32)
    encodings = list(encodings) if encodings is not None else encoding_candidates(bitwidth)
    if values.size == 0:
        raise ValueError("cannot search a format for an empty tensor")
    nonfinite = values.size - int(np.count_nonzero(np.isfinite(values)))
    if nonfinite:
        raise ValueError(f"cannot search a format for a tensor with {nonfinite} "
                         f"non-finite (NaN or infinite) elements")
    magnitudes = np.sort(np.abs(values, dtype=np.float64), axis=None)
    sums = np.concatenate([[0.0], np.cumsum(magnitudes)])
    squares = float(np.square(magnitudes).sum())
    # (candidate, lowest and highest possible exact squared error)
    screened = []
    for encoding in encodings:
        candidates = [encoding.with_bias(bias) for bias in
                      bias_candidates(values, encoding, num_bias_candidates)]
        estimate, margin = _screen(magnitudes, sums, squares, candidates)
        screened += zip(candidates, estimate - margin, estimate + margin)
    ceiling = min((high for _, _, high in screened), default=np.inf)
    best_fmt: Optional[FPFormat] = None
    best_mse = np.inf
    for candidate, low, _ in screened:
        if low > ceiling:
            continue
        mse = quantization_mse(values, candidate)
        if mse < best_mse:
            best_mse = mse
            best_fmt = candidate
    if best_fmt is None:  # pragma: no cover - no encodings
        raise RuntimeError("no encoding candidates were provided")
    return SearchResult(fmt=best_fmt, mse=float(best_mse),
                        candidates_evaluated=len(screened))


def _binade_levels(encoding: FPFormat) -> Tuple[np.ndarray, np.ndarray]:
    """``(binade, k)`` of the encoding's ``2^(e+m)`` non-negative grid
    points, ascending: point ``(E, k)`` is ``k`` steps of binade ``E``'s
    step ``2^(E - b - m)``, i.e. integer level ``k * 2^(E-1)``.  Binade 1
    holds the subnormals too (levels 0 to ``2^(m+1) - 1``); each higher
    binade holds ``k = 2^m .. 2^(m+1) - 1``."""
    top = 2 ** (encoding.mantissa_bits + 1)
    binades = np.arange(2, 2 ** encoding.exponent_bits, dtype=np.float64)
    k = np.arange(top // 2, top, dtype=np.float64)
    return (np.concatenate([np.ones(top), np.repeat(binades, k.size)]),
            np.concatenate([np.arange(top, dtype=np.float64),
                            np.tile(k, binades.size)]))


def _screen(magnitudes: np.ndarray, sums: np.ndarray, squares: float,
            candidates: Sequence[FPFormat]) -> Tuple[np.ndarray, np.ndarray]:
    """Estimated squared error of each candidate, all of one encoding at
    different biases, and a bound on how far from it the exact one, ``N *
    quantization_mse``, lies.

    ``magnitudes`` are the tensor's ``|x|`` sorted (float64), ``sums`` their
    prefix sums from 0 and ``squares`` the sum of their squares.  The bound
    adds two terms (``u = 2^-53``):

    * **Float64 rounding.**  Bucket ``j`` holds the ``n_j`` magnitudes from
      index ``lo_j`` to ``hi_j``, which sum to ``S1_j = P[hi_j] - P[lo_j]``
      (``P`` the prefix sums).  Each prefix sum, and ``squares``, is within
      ``N u`` of itself, relative to itself; each bucket's term and the sum
      over the ``L`` buckets add ``(L + 4) u`` relative to the magnitudes
      they sum; and ``quantization_mse``'s own mean of ``N`` squares is
      within ``(N + 3) u`` of the exact squared error.  Each of these
      magnitudes is at most ``Z = squares + sum_j g_j (4 P[hi_j] + n_j
      g_j)``, so their first-order sum is at most ``(2N + L + 7) u Z``; the
      term is ``2 (N + L + 8) u Z``, which leaves room for higher orders.
    * **Misplaced magnitudes.**  Quantization rounds ``a`` up past the
      midpoint ``mu`` of ``g_j`` and ``g_j+1`` where ``a / s`` exceeds
      ``k + 1/2``.  The float32 points sit within ``2^-24`` of ``s k``
      relative (plus ``2^-150`` absolute for float32 subnormals) and the
      division is float64, so the true cut is within ``2^-23 mu + 2^-150``
      of ``mu`` to first order; the window ``tau = 2^-22 mu + 2^-149`` is
      twice that.  A magnitude in the window lands on either neighbour,
      ``2 |a - mu| h_j <= 2 tau h_j`` apart in squared error (``h_j =
      g_j+1 - g_j``); the window's count comes from two more
      ``searchsorted`` calls.

    Away from midpoints the bucket's point is exactly what quantization
    returns: the points use its float64 operations (``np.power`` for the
    step, whose last bit can differ from Python's ``**``; ``fmt.max_value``
    for ``c``, clipped to after rounding), and a magnitude whose binade
    ``log2`` misjudges lies within float64 rounding of a binade edge, which
    both binades' grids hold.  Where the two binades spell an edge point as
    different float32 values, the candidate's bound is infinite.
    """
    m = candidates[0].mantissa_bits
    binade, k = _binade_levels(candidates[0])
    bias = np.array([[fmt.bias] for fmt in candidates])
    c = np.array([[fmt.max_value] for fmt in candidates])
    step = np.power(2.0, binade - bias - m)
    points = np.minimum(step * k, c).astype(np.float32).astype(np.float64)
    # Each binade edge spelled from below: binade E-1 at k = 2^(m+1).
    edges = np.flatnonzero(k == 2 ** m)[1:]
    below = np.minimum(step[:, edges - 1] * 2.0 ** (m + 1), c).astype(np.float32)
    consistent = np.all(below == points[:, edges], axis=1)

    count = magnitudes.size
    middles = (points[:, 1:] + points[:, :-1]) / 2
    cuts = np.searchsorted(magnitudes, middles)
    zero = np.zeros((len(candidates), 1), dtype=cuts.dtype)
    lo = np.concatenate([zero, cuts], axis=1)
    hi = np.concatenate([cuts, zero + count], axis=1)
    n = hi - lo
    estimate = squares - np.sum(points * (2 * (sums[hi] - sums[lo]) - n * points),
                                axis=1)
    scale = squares + np.sum(points * (4 * sums[hi] + n * points), axis=1)
    rounding = 2 * (count + points.shape[1] + 8) * 2.0 ** -53 * scale

    window = 2.0 ** -22 * middles + 2.0 ** -149
    ambiguous = (np.searchsorted(magnitudes, middles + window, side="right")
                 - np.searchsorted(magnitudes, middles - window, side="left"))
    misplaced = np.sum(ambiguous * 2 * window * np.diff(points, axis=1), axis=1)
    return estimate, np.where(consistent, rounding + misplaced, np.inf)
