"""Analytical compute/memory characterization (paper Section III)."""

from .cost_model import (
    BYTES_FP32,
    BYTES_FP16,
    BYTES_FP8,
    BYTES_FP4,
    LayerCost,
    estimate_utilization,
    plan_model_evals,
    scheme_bytes_per_element,
    flops_by_kind,
    paper_scale_stable_diffusion_config,
    total_flops,
    total_weight_elements,
    unet_layer_costs,
)
from .latency import (
    CPU_XEON,
    DEVICE_PROFILES,
    GPU_V100,
    DeviceProfile,
    estimate_latency,
    estimate_plan_latency,
    estimate_scheme_latency,
    grouped_breakdown,
    latency_breakdown,
    measure_latency,
    normalized_breakdown,
)
from .memory import MemoryEstimate, estimate_peak_memory, memory_vs_batch_size

__all__ = [
    "LayerCost", "unet_layer_costs", "total_flops",
    "total_weight_elements",
    "flops_by_kind", "paper_scale_stable_diffusion_config",
    "BYTES_FP32", "BYTES_FP16", "BYTES_FP8", "BYTES_FP4",
    "scheme_bytes_per_element", "plan_model_evals", "estimate_utilization",
    "DeviceProfile", "GPU_V100", "CPU_XEON", "DEVICE_PROFILES",
    "estimate_latency", "estimate_scheme_latency", "estimate_plan_latency",
    "latency_breakdown", "normalized_breakdown",
    "grouped_breakdown", "measure_latency",
    "MemoryEstimate", "estimate_peak_memory", "memory_vs_batch_size",
]
