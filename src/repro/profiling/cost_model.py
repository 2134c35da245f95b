"""Analytical compute/memory cost model of the U-Net (paper Section III).

The paper characterizes Stable Diffusion inference by measuring per-layer
latency on a V100 GPU / Xeon CPU and peak VRAM with Nsight.  Without that
hardware, the reproduction derives the same quantities analytically: the cost
model walks the U-Net architecture (the same ``UNetConfig`` the real models
are built from, or a paper-scale configuration), computes per-layer FLOPs,
weight bytes and activation bytes, and feeds them to a roofline latency model
(:mod:`repro.profiling.latency`) and a peak-memory estimator
(:mod:`repro.profiling.memory`).

Layer types mirror the breakdown of the paper's Figure 4: ``conv``,
``linear`` (which includes the attention projections), ``norm``, ``silu`` and
``attention`` (the score/value matmuls, which dominate memory).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..models.unet import UNetConfig

BYTES_FP32 = 4
BYTES_FP16 = 2
BYTES_FP8 = 1
BYTES_FP4 = 0.5


def scheme_bytes_per_element(scheme) -> float:
    """Bytes per element a quantization scheme moves through memory.

    Resolves any registered :class:`~repro.core.schemes.QuantScheme` (or its
    name) to ``bits / 8`` — FP8/INT8 move one byte per element, FP4/INT4 half
    a byte (hardware packs two values per byte).  This is what makes the
    roofline's memory-bound term scheme-dependent: quantized layers move
    fewer bytes, so memory-bound layers get proportionally faster even
    though FLOPs are unchanged.
    """
    from ..core.schemes import get_scheme

    return get_scheme(scheme).bits / 8.0


@dataclass
class LayerCost:
    """Cost of a single layer invocation in one U-Net forward pass."""

    name: str
    kind: str  # conv | linear | norm | silu | attention
    flops: float
    weight_elements: float
    output_elements: float
    input_elements: float
    extra: Dict[str, float] = field(default_factory=dict)

    def weight_bytes(self, bytes_per_element: float = BYTES_FP32) -> float:
        return self.weight_elements * bytes_per_element

    def activation_bytes(self, bytes_per_element: float = BYTES_FP32) -> float:
        return (self.input_elements + self.output_elements) * bytes_per_element


class _CostAccumulator:
    """Helper building the per-layer cost list while walking the architecture."""

    def __init__(self, batch_size: int, context_tokens: int):
        self.batch = batch_size
        self.context_tokens = context_tokens
        self.costs: List[LayerCost] = []

    # ------------------------------------------------------------------
    def conv(self, name: str, in_ch: int, out_ch: int, h: int, w: int,
             kernel: int = 3, stride: int = 1) -> None:
        out_h, out_w = h // stride, w // stride
        macs = self.batch * out_h * out_w * out_ch * in_ch * kernel * kernel
        self.costs.append(LayerCost(
            name=name, kind="conv", flops=2.0 * macs,
            weight_elements=out_ch * in_ch * kernel * kernel + out_ch,
            input_elements=self.batch * in_ch * h * w,
            output_elements=self.batch * out_ch * out_h * out_w,
            extra={"gemm_m": float(self.batch * out_h * out_w)}))

    def linear(self, name: str, tokens: int, in_features: int,
               out_features: int, bias: bool = True) -> None:
        macs = self.batch * tokens * in_features * out_features
        weight_elements = in_features * out_features + (out_features if bias else 0)
        self.costs.append(LayerCost(
            name=name, kind="linear", flops=2.0 * macs,
            weight_elements=weight_elements,
            input_elements=self.batch * tokens * in_features,
            output_elements=self.batch * tokens * out_features,
            extra={"gemm_m": float(self.batch * tokens)}))

    def norm(self, name: str, elements: float) -> None:
        self.costs.append(LayerCost(
            name=name, kind="norm", flops=8.0 * self.batch * elements,
            weight_elements=0.0,
            input_elements=self.batch * elements,
            output_elements=self.batch * elements))

    def silu(self, name: str, elements: float) -> None:
        self.costs.append(LayerCost(
            name=name, kind="silu", flops=4.0 * self.batch * elements,
            weight_elements=0.0,
            input_elements=self.batch * elements,
            output_elements=self.batch * elements))

    def attention_matmul(self, name: str, heads: int, q_tokens: int,
                         kv_tokens: int, head_dim: int) -> None:
        score_flops = 2.0 * self.batch * heads * q_tokens * kv_tokens * head_dim
        value_flops = 2.0 * self.batch * heads * q_tokens * kv_tokens * head_dim
        score_elements = self.batch * heads * q_tokens * kv_tokens
        self.costs.append(LayerCost(
            name=name, kind="attention",
            flops=score_flops + value_flops,
            weight_elements=0.0,
            input_elements=self.batch * heads * (q_tokens + 2 * kv_tokens) * head_dim,
            output_elements=self.batch * heads * q_tokens * head_dim,
            extra={"score_elements": score_elements}))

    # ------------------------------------------------------------------
    def res_block(self, name: str, in_ch: int, out_ch: int, h: int, w: int,
                  time_dim: int) -> None:
        self.norm(f"{name}.norm1", in_ch * h * w)
        self.silu(f"{name}.act1", in_ch * h * w)
        self.conv(f"{name}.conv1", in_ch, out_ch, h, w)
        self.linear(f"{name}.time_proj", 1, time_dim, out_ch)
        self.norm(f"{name}.norm2", out_ch * h * w)
        self.silu(f"{name}.act2", out_ch * h * w)
        self.conv(f"{name}.conv2", out_ch, out_ch, h, w)
        if in_ch != out_ch:
            self.conv(f"{name}.shortcut", in_ch, out_ch, h, w, kernel=1)

    def spatial_transformer(self, name: str, channels: int, h: int, w: int,
                            heads: int, context_dim: Optional[int]) -> None:
        tokens = h * w
        head_dim = channels // heads
        self.linear(f"{name}.proj_in", tokens, channels, channels)
        # self-attention (the q/k/v projections have no bias, matching nn.MultiHeadAttention)
        self.norm(f"{name}.norm1", tokens * channels)
        for proj in ("to_q", "to_k", "to_v"):
            self.linear(f"{name}.self.{proj}", tokens, channels, channels, bias=False)
        self.linear(f"{name}.self.to_out", tokens, channels, channels)
        self.attention_matmul(f"{name}.self.attention", heads, tokens, tokens, head_dim)
        # cross-attention
        if context_dim is not None:
            self.norm(f"{name}.norm2", tokens * channels)
            self.linear(f"{name}.cross.to_q", tokens, channels, channels, bias=False)
            self.linear(f"{name}.cross.to_k", self.context_tokens, context_dim,
                        channels, bias=False)
            self.linear(f"{name}.cross.to_v", self.context_tokens, context_dim,
                        channels, bias=False)
            self.linear(f"{name}.cross.to_out", tokens, channels, channels)
            self.attention_matmul(f"{name}.cross.attention", heads, tokens,
                                  self.context_tokens, head_dim)
        # feed-forward
        self.norm(f"{name}.norm3", tokens * channels)
        self.linear(f"{name}.mlp.fc1", tokens, channels, channels * 2)
        self.linear(f"{name}.mlp.fc2", tokens, channels * 2, channels)
        self.linear(f"{name}.proj_out", tokens, channels, channels)


def unet_layer_costs(config: UNetConfig, sample_size: int, batch_size: int = 1,
                     context_tokens: int = 16) -> List[LayerCost]:
    """Per-layer costs for one U-Net forward pass (one denoising step).

    ``sample_size`` is the spatial resolution of the tensor the U-Net
    denoises (the latent resolution for latent-diffusion models).  The walk
    mirrors :class:`repro.models.UNet` exactly; a unit test checks that the
    analytic parameter count matches the instantiated model.
    """
    acc = _CostAccumulator(batch_size, context_tokens)
    channels = config.base_channels
    time_dim = config.resolved_time_dim
    size = sample_size

    # time embedding MLP
    acc.linear("time_mlp1", 1, channels, time_dim)
    acc.silu("time_act", time_dim)
    acc.linear("time_mlp2", 1, time_dim, time_dim)

    acc.conv("input_conv", config.in_channels, channels, size, size)
    current = channels
    skip_channels = [channels]
    skip_sizes = [size]

    # encoder
    for level, multiplier in enumerate(config.channel_multipliers):
        out_ch = config.base_channels * multiplier
        for block in range(config.num_res_blocks):
            acc.res_block(f"down.{level}.{block}", current, out_ch, size, size, time_dim)
            if level in config.attention_levels:
                acc.spatial_transformer(f"down.{level}.{block}.attn", out_ch,
                                        size, size, config.num_heads,
                                        config.context_dim)
            current = out_ch
            skip_channels.append(current)
            skip_sizes.append(size)
        if level != len(config.channel_multipliers) - 1:
            acc.conv(f"down.{level}.downsample", current, current, size, size, stride=2)
            size //= 2
            skip_channels.append(current)
            skip_sizes.append(size)

    # mid
    acc.res_block("mid.block1", current, current, size, size, time_dim)
    acc.spatial_transformer("mid.attn", current, size, size, config.num_heads,
                            config.context_dim)
    acc.res_block("mid.block2", current, current, size, size, time_dim)

    # decoder
    for level in reversed(range(len(config.channel_multipliers))):
        out_ch = config.base_channels * config.channel_multipliers[level]
        for block in range(config.num_res_blocks + 1):
            skip_ch = skip_channels.pop()
            skip_sizes.pop()
            acc.res_block(f"up.{level}.{block}", current + skip_ch, out_ch,
                          size, size, time_dim)
            if level in config.attention_levels:
                acc.spatial_transformer(f"up.{level}.{block}.attn", out_ch,
                                        size, size, config.num_heads,
                                        config.context_dim)
            current = out_ch
        if level != 0:
            acc.conv(f"up.{level}.upsample", current, current, size * 2, size * 2)
            size *= 2

    acc.norm("output_norm", current * size * size)
    acc.silu("output_act", current * size * size)
    acc.conv("output_conv", current, config.out_channels, size, size)
    return acc.costs


def plan_model_evals(num_steps: int, guidance_scale: float = 1.0,
                     solver_evals_per_step: int = 1,
                     first_order_final_step: bool = False) -> int:
    """Model (U-Net) evaluations one generation plan performs end-to-end.

    The cost of a trajectory is not just its step count: a higher-order
    solver evaluates the model ``solver_evals_per_step`` times per step,
    ``first_order_final_step`` credits back the evaluations a
    predictor-corrector saves on its last step (DPM-Solver-2 has no second
    grid point to correct against — this is per-sampler metadata, see
    :class:`repro.diffusion.samplers.SamplerInfo`), and classifier-free
    guidance (``guidance_scale != 1``) doubles *every* evaluation with the
    unconditional pass.  :meth:`repro.diffusion.GenerationPlan.model_evals`
    applies it to a plan's resolved steps and sampler metadata; every
    latency price multiplies the per-forward roofline by that count.
    """
    if num_steps < 1:
        raise ValueError(f"num_steps must be >= 1, got {num_steps}")
    if solver_evals_per_step < 1:
        raise ValueError(
            f"solver_evals_per_step must be >= 1, got {solver_evals_per_step}")
    evals = num_steps * solver_evals_per_step
    if first_order_final_step:
        evals -= solver_evals_per_step - 1
    if guidance_scale != 1.0:
        evals *= 2
    return evals


def estimate_utilization(arrival_rate: float, seconds_per_request: float,
                         replicas: int = 1) -> float:
    """Offered-load utilization of a replica group: ``rho = lambda * S / N``.

    ``arrival_rate`` is requests per second, ``seconds_per_request`` the
    modeled service time of one request (e.g. the roofline trajectory
    latency amortized over the expected batch size) and ``replicas`` the
    number of active servers.  Values above ~1 mean the offered load
    exceeds capacity and queues grow without bound; an autoscaler solves
    the inverse problem — the replica count that brings ``rho`` down to
    its target — via::

        desired = ceil(arrival_rate * seconds_per_request / target_rho)

    This is the cost-model-side utilization signal the cluster autoscaler
    combines with observed queue depth, so scaling decisions stay exact
    functions of the analytic model rather than of measured wall time.
    """
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    if arrival_rate < 0:
        raise ValueError(f"arrival_rate must be >= 0, got {arrival_rate}")
    if seconds_per_request < 0:
        raise ValueError(
            f"seconds_per_request must be >= 0, got {seconds_per_request}")
    return arrival_rate * seconds_per_request / replicas


def total_flops(costs: List[LayerCost]) -> float:
    return float(sum(cost.flops for cost in costs))


def total_weight_elements(costs: List[LayerCost]) -> float:
    return float(sum(cost.weight_elements for cost in costs))


def flops_by_kind(costs: List[LayerCost]) -> Dict[str, float]:
    """Aggregate FLOPs per layer kind (the x-axis categories of Figure 4)."""
    totals: Dict[str, float] = {}
    for cost in costs:
        totals[cost.kind] = totals.get(cost.kind, 0.0) + cost.flops
    return totals


def paper_scale_stable_diffusion_config() -> UNetConfig:
    """A UNetConfig approximating the real Stable Diffusion v1.5 U-Net.

    Used only by the analytic profiler (never instantiated as weights): base
    width 320, channel multipliers (1, 2, 4, 4), two ResBlocks per level,
    attention at the three lower-resolution levels and a 768-dim text
    context, operating on a 64x64x4 latent.  The resulting parameter count
    lands near the 860M the paper quotes.
    """
    return UNetConfig(
        in_channels=4, out_channels=4, base_channels=320,
        channel_multipliers=(1, 2, 4, 4), num_res_blocks=2,
        attention_levels=(0, 1, 2), num_heads=8, context_dim=768,
        num_groups=32)
