"""Roofline-style latency estimation over the analytic layer costs.

Each layer's latency on a device is modelled as
``max(flops / peak_flops, bytes_moved / memory_bandwidth) + launch_overhead``
— the classic roofline: compute-bound layers are limited by arithmetic
throughput, memory-bound layers by bandwidth.  Two device profiles mirror the
platforms of the paper's characterization (an NVIDIA V100-class GPU and an
Intel Xeon Gold-class CPU); their absolute numbers are datasheet-level, so
only the *relative* breakdown and GPU-vs-CPU ratios are meaningful, which is
exactly what Figure 4 reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from .cost_model import BYTES_FP32, LayerCost, scheme_bytes_per_element


@dataclass(frozen=True)
class DeviceProfile:
    """Simplified hardware model for roofline latency estimation."""

    name: str
    peak_flops: float          # floating-point operations per second
    memory_bandwidth: float    # bytes per second
    layer_overhead: float      # fixed per-layer launch/dispatch cost in seconds

    def layer_latency(self, cost: LayerCost,
                      bytes_per_element: float = BYTES_FP32,
                      weight_bytes_per_element: Optional[float] = None) -> float:
        """Roofline latency of one layer.

        ``bytes_per_element`` sizes the activation traffic;
        ``weight_bytes_per_element`` (defaulting to the same value) sizes the
        weight traffic, so weight-only quantization can be modelled
        separately from activation quantization.
        """
        if weight_bytes_per_element is None:
            weight_bytes_per_element = bytes_per_element
        compute_time = cost.flops / self.peak_flops
        bytes_moved = (cost.activation_bytes(bytes_per_element)
                       + cost.weight_bytes(weight_bytes_per_element))
        memory_time = bytes_moved / self.memory_bandwidth
        return max(compute_time, memory_time) + self.layer_overhead


#: V100-class GPU: ~14 TFLOPS FP32, ~900 GB/s HBM2, microsecond-scale launches.
GPU_V100 = DeviceProfile(name="gpu-v100", peak_flops=14e12,
                         memory_bandwidth=900e9, layer_overhead=8e-6)

#: Xeon Gold 5115-class CPU: ~0.7 TFLOPS FP32, ~100 GB/s, negligible dispatch.
CPU_XEON = DeviceProfile(name="cpu-xeon", peak_flops=0.7e12,
                         memory_bandwidth=100e9, layer_overhead=1e-6)

DEVICE_PROFILES: Dict[str, DeviceProfile] = {
    GPU_V100.name: GPU_V100,
    CPU_XEON.name: CPU_XEON,
}


def estimate_latency(costs: Iterable[LayerCost], device: DeviceProfile,
                     bytes_per_element: float = BYTES_FP32,
                     weight_bytes_per_element: Optional[float] = None) -> float:
    """Total estimated latency of one forward pass on ``device``."""
    return float(sum(device.layer_latency(cost, bytes_per_element,
                                          weight_bytes_per_element)
                     for cost in costs))


def estimate_scheme_latency(costs: Iterable[LayerCost], device: DeviceProfile,
                            weight_scheme, activation_scheme=None) -> float:
    """Forward-pass latency under a quantization scheme's byte widths.

    Resolves the scheme(s) to bytes-per-element (FP8 → 1, FP4 → 0.5, ...)
    so memory-bound layers speed up in proportion to the precision, the
    mechanism behind the paper's FP8/FP4 bandwidth savings.  When
    ``activation_scheme`` is omitted the weight scheme sizes both tensors.
    This is the cost model the serving subsystem's SLO router queries.
    """
    weight_bpe = scheme_bytes_per_element(weight_scheme)
    activation_bpe = (weight_bpe if activation_scheme is None
                      else scheme_bytes_per_element(activation_scheme))
    return estimate_latency(costs, device, bytes_per_element=activation_bpe,
                            weight_bytes_per_element=weight_bpe)


def estimate_plan_latency(costs: Iterable[LayerCost], device: DeviceProfile,
                          weight_scheme, plan, default_steps: int,
                          train_steps: Optional[int] = None,
                          activation_scheme=None) -> float:
    """End-to-end generation latency of a (scheme, generation-plan) pair.

    One forward pass is priced by :func:`estimate_scheme_latency`; the
    :class:`~repro.diffusion.GenerationPlan` multiplies it by its
    :meth:`~repro.diffusion.GenerationPlan.model_evals` on a model whose
    default and training step counts are ``default_steps`` and
    ``train_steps``.  This is the two-dimensional quantity the serving
    router minimizes over: schemes change the per-forward cost, plans
    change how many forwards are paid.
    """
    per_forward = estimate_scheme_latency(costs, device, weight_scheme,
                                          activation_scheme)
    return per_forward * plan.model_evals(default_steps, train_steps)


def measure_latency(fn: Callable[[], object],
                    clock: Callable[[], float] = time.perf_counter,
                    repeats: int = 3, warmup: int = 1) -> Dict[str, float]:
    """Measure a callable's latency on an *injectable* clock.

    The analytic estimators above predict latency; this is their measured
    counterpart, used by the calibration harness
    (:func:`repro.obs.run_cost_model_calibration`) to quantify the model's
    error.  ``clock`` is any zero-argument callable returning seconds —
    ``time.perf_counter`` by default, or a
    :class:`~repro.serving.clock.VirtualClock` so modeled components can
    be "measured" in virtual time and tests run clock-free.  Returns
    ``best_s`` / ``mean_s`` / ``last_s`` over ``repeats`` timed calls
    (after ``warmup`` untimed ones).
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    for _ in range(warmup):
        fn()
    samples: List[float] = []
    for _ in range(repeats):
        started = clock()
        fn()
        samples.append(clock() - started)
    return {"best_s": min(samples), "mean_s": sum(samples) / len(samples),
            "last_s": samples[-1], "repeats": repeats}


def latency_breakdown(costs: Iterable[LayerCost], device: DeviceProfile,
                      bytes_per_element: float = BYTES_FP32) -> Dict[str, float]:
    """Latency per layer kind, the quantity plotted in the paper's Figure 4."""
    breakdown: Dict[str, float] = {}
    for cost in costs:
        breakdown[cost.kind] = breakdown.get(cost.kind, 0.0) + device.layer_latency(
            cost, bytes_per_element)
    return breakdown


def normalized_breakdown(breakdown: Dict[str, float]) -> Dict[str, float]:
    """Normalize a latency breakdown so the values sum to 1.0 (Figure 4 style)."""
    total = sum(breakdown.values())
    if total <= 0:
        return {kind: 0.0 for kind in breakdown}
    return {kind: value / total for kind, value in breakdown.items()}


def grouped_breakdown(breakdown: Dict[str, float]) -> Dict[str, float]:
    """Group the kinds into the paper's Figure 4 categories.

    Figure 4 groups layers into Conv2d, Linear (including attention
    projections and matmuls) and "normalization + SiLU".
    """
    groups = {"conv": 0.0, "linear": 0.0, "norm+silu": 0.0}
    for kind, value in breakdown.items():
        if kind == "conv":
            groups["conv"] += value
        elif kind in ("linear", "attention"):
            groups["linear"] += value
        else:
            groups["norm+silu"] += value
    return groups
