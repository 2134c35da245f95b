"""Model-level post-training quantization orchestration.

This module ties the pieces of the paper's method together into a single
entry point, :func:`quantize_pipeline`:

1. walk the full-precision U-Net's Conv2d and Linear layers in
   breadth-first order, and its skip concats, once, resolving each one's
   weight/activation :class:`~repro.core.schemes.QuantScheme` (config
   defaults, optionally overridden per layer by a
   :class:`~repro.core.policy.QuantizationPolicy`),
2. collect the initialization/calibration datasets by running the
   full-precision pipeline (Section V),
3. on a copy of the model, let each layer's scheme calibrate and quantize
   its tensors — for the paper's FP schemes that is the greedy format
   search (Algorithm 1) plus optional gradient-based rounding learning
   (Section V-B) — and install quantized layer wrappers, including the
   separate quantization of skip-connection concat inputs, and
4. return a new pipeline around the quantized model plus a per-layer report.

Schemes are looked up in the registry of :mod:`repro.core.schemes`, so
integer (Q-diffusion style) baselines, per-channel/block-wise variants and
user-registered schemes all run through identical machinery.  Configs and
reports round-trip through ``to_dict``/``from_dict``/JSON so experiments can
be saved, diffed and replayed.
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import nn
from ..diffusion import DiffusionPipeline
from ..models import DiffusionModel
from .calibration import (
    CalibrationConfig,
    CalibrationData,
    collect_calibration_data,
    quantizable_layer_paths,
    skip_concat_paths,
)
from .policy import QuantizationPolicy, boundary_interior_policy
from .qmodules import (
    QuantizedConv2d,
    QuantizedLinear,
    QuantizedSkipConcat,
)
from .rounding import RoundingLearningConfig
from .schemes import QuantScheme, SchemeLike, get_scheme
from .search import DEFAULT_NUM_BIAS_CANDIDATES


@dataclass
class QuantizationConfig:
    """Full description of one quantization experiment (a table row).

    ``weight_dtype`` / ``activation_dtype`` accept any registered scheme
    name (``"fp4"``, ``"int8_pc"``, ``"fp4_block"``, ...); they stay strings
    so configs remain trivially serializable and the pre-registry API keeps
    working.  ``policy`` optionally overrides the schemes per layer for
    mixed-precision experiments.
    """

    weight_dtype: str = "fp8"
    activation_dtype: str = "fp8"
    rounding_learning: bool = False
    num_bias_candidates: int = DEFAULT_NUM_BIAS_CANDIDATES
    quantize_skip_connections: bool = True
    calibration: CalibrationConfig = field(default_factory=CalibrationConfig)
    rounding: RoundingLearningConfig = field(default_factory=RoundingLearningConfig)
    policy: Optional[QuantizationPolicy] = None

    # ------------------------------------------------------------------
    def weight_scheme(self) -> QuantScheme:
        return get_scheme(self.weight_dtype)

    def activation_scheme(self) -> QuantScheme:
        return get_scheme(self.activation_dtype)

    @property
    def label(self) -> str:
        """Row label in the paper's "Bitwidth (W/A)" convention."""
        label = f"{self.weight_scheme().label}/{self.activation_scheme().label}"
        if (self.weight_scheme().supports_rounding_learning
                and not self.rounding_learning):
            label += " (no RL)"
        if self.policy is not None and self.policy.rules:
            label += " [mixed]"
        return label

    def is_full_precision(self) -> bool:
        """True when no layer can be touched (identity schemes, no policy)."""
        defaults_identity = (self.weight_scheme().is_identity
                             and self.activation_scheme().is_identity)
        if not defaults_identity:
            return False
        if self.policy is None:
            return True
        return not any(not get_scheme(name).is_identity
                       for name in self.policy.referenced_schemes())

    def requires_calibration(self) -> bool:
        """Whether quantization may need recorded activations for this
        config, decided before any layer is resolved (a rule may match no
        layer; :func:`quantize_pipeline` decides from its plan)."""
        activation_schemes = [self.activation_scheme()]
        weight_schemes = [self.weight_scheme()]
        if self.policy is not None:
            for rule in self.policy.rules:
                if rule.activations is not None:
                    activation_schemes.append(get_scheme(rule.activations))
                if rule.weights is not None:
                    weight_schemes.append(get_scheme(rule.weights))
        if any(not scheme.is_identity for scheme in activation_schemes):
            return True
        return self.rounding_learning and any(
            scheme.supports_rounding_learning for scheme in weight_schemes)

    def scaled_for_speed(self, num_bias_candidates: int = 21,
                         rounding_iterations: int = 30) -> "QuantizationConfig":
        """A cheaper copy of this config for tests and smoke benchmarks."""
        return replace(
            self,
            num_bias_candidates=num_bias_candidates,
            rounding=replace(self.rounding, iterations=rounding_iterations),
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """Plain-dict form (JSON-safe; predicate policy rules are rejected)."""
        return {
            "weight_dtype": self.weight_dtype,
            "activation_dtype": self.activation_dtype,
            "rounding_learning": self.rounding_learning,
            "num_bias_candidates": self.num_bias_candidates,
            "quantize_skip_connections": self.quantize_skip_connections,
            "calibration": asdict(self.calibration),
            "rounding": asdict(self.rounding),
            "policy": self.policy.to_dict() if self.policy is not None else None,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "QuantizationConfig":
        return cls(
            weight_dtype=data["weight_dtype"],
            activation_dtype=data["activation_dtype"],
            rounding_learning=data.get("rounding_learning", False),
            num_bias_candidates=data.get("num_bias_candidates",
                                         DEFAULT_NUM_BIAS_CANDIDATES),
            quantize_skip_connections=data.get("quantize_skip_connections", True),
            calibration=CalibrationConfig(**data.get("calibration", {})),
            rounding=RoundingLearningConfig(**data.get("rounding", {})),
            policy=QuantizationPolicy.from_dict(data.get("policy")),
        )

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_json(cls, text: str) -> "QuantizationConfig":
        return cls.from_dict(json.loads(text))

    def fingerprint(self) -> str:
        """Stable content hash of this config (see :mod:`repro.core.hashing`).

        Two configs with equal serialized forms hash identically, so the
        experiment store can key quantize-stage artifacts by config content.
        """
        from .hashing import content_hash
        return content_hash(self.to_dict())


# ----------------------------------------------------------------------
# presets matching the paper's table rows
# ----------------------------------------------------------------------
def full_precision_config() -> QuantizationConfig:
    return QuantizationConfig(weight_dtype="fp32", activation_dtype="fp32")


def fp8_fp8_config() -> QuantizationConfig:
    return QuantizationConfig(weight_dtype="fp8", activation_dtype="fp8")


def fp4_fp8_config(rounding_learning: bool = True) -> QuantizationConfig:
    return QuantizationConfig(weight_dtype="fp4", activation_dtype="fp8",
                              rounding_learning=rounding_learning)


def int8_int8_config() -> QuantizationConfig:
    return QuantizationConfig(weight_dtype="int8", activation_dtype="int8")


def int4_int8_config() -> QuantizationConfig:
    return QuantizationConfig(weight_dtype="int4", activation_dtype="int8")


def mixed_precision_config(model: DiffusionModel,
                           boundary: SchemeLike = "fp8",
                           interior: SchemeLike = "fp4",
                           activation_dtype: str = "fp8",
                           rounding_learning: bool = False
                           ) -> QuantizationConfig:
    """Mixed-precision preset: boundary layers high precision, interior low.

    Builds a :func:`~repro.core.policy.boundary_interior_policy` over the
    model's U-Net so the first and last quantizable layers use ``boundary``
    while every other layer uses ``interior``.
    """
    policy = boundary_interior_policy(model.unet, boundary)
    return QuantizationConfig(weight_dtype=get_scheme(interior).name,
                              activation_dtype=activation_dtype,
                              rounding_learning=rounding_learning,
                              policy=policy)


PAPER_CONFIGS: Dict[str, QuantizationConfig] = {
    "FP32/FP32": full_precision_config(),
    "INT8/INT8": int8_int8_config(),
    "FP8/FP8": fp8_fp8_config(),
    "INT4/INT8": int4_int8_config(),
    "FP4/FP8": fp4_fp8_config(rounding_learning=True),
    "FP4/FP8 (no RL)": fp4_fp8_config(rounding_learning=False),
}


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
@dataclass
class LayerQuantizationRecord:
    """What happened to one layer during quantization."""

    path: str
    layer_type: str
    weight_format: str
    activation_format: str
    weight_mse: float
    weight_scheme: str = "fp32"
    activation_scheme: str = "fp32"
    policy_rule: Optional[str] = None
    rounding_learning_used: bool = False
    rounding_mse_before: float = 0.0
    rounding_mse_after: float = 0.0
    #: Bytes of packed integer weight storage (None for float schemes).
    packed_bytes: Optional[int] = None

    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "LayerQuantizationRecord":
        return cls(**data)


@dataclass
class QuantizationReport:
    """Per-layer records plus experiment-level metadata."""

    config: QuantizationConfig
    layers: List[LayerQuantizationRecord] = field(default_factory=list)
    skip_concats: List[str] = field(default_factory=list)

    @property
    def num_quantized_layers(self) -> int:
        return len(self.layers)

    def mean_weight_mse(self) -> float:
        if not self.layers:
            return 0.0
        return float(np.mean([record.weight_mse for record in self.layers]))

    def scheme_histogram(self) -> Dict[str, int]:
        """How many layers each weight scheme ended up on (policy visibility)."""
        histogram: Dict[str, int] = {}
        for record in self.layers:
            histogram[record.weight_scheme] = histogram.get(record.weight_scheme, 0) + 1
        return histogram

    def summary(self) -> str:
        lines = [f"quantization config: {self.config.label}",
                 f"quantized layers: {self.num_quantized_layers}",
                 f"quantized skip concats: {len(self.skip_concats)}",
                 f"mean weight quantization MSE: {self.mean_weight_mse():.3e}"]
        histogram = self.scheme_histogram()
        if len(histogram) > 1:
            mix = ", ".join(f"{name}: {count}"
                            for name, count in sorted(histogram.items()))
            lines.append(f"weight scheme mix: {mix}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        return {
            "config": self.config.to_dict(),
            "layers": [record.to_dict() for record in self.layers],
            "skip_concats": list(self.skip_concats),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "QuantizationReport":
        return cls(
            config=QuantizationConfig.from_dict(data["config"]),
            layers=[LayerQuantizationRecord.from_dict(r) for r in data["layers"]],
            skip_concats=list(data.get("skip_concats", [])),
        )

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_json(cls, text: str) -> "QuantizationReport":
        return cls.from_dict(json.loads(text))


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _resolve_layer_schemes(config: QuantizationConfig, path: str, module):
    """Resolve the (weight, activation) schemes for one layer or concat.

    The policy (if any) wins where it matches; the config defaults fill the
    rest.  Returns ``(weight_scheme, activation_scheme, rule_label)``.
    """
    weight_scheme = config.weight_scheme()
    activation_scheme = config.activation_scheme()
    rule_label = None
    if config.policy is not None:
        decision = config.policy.resolve(path, module)
        if decision.weights is not None:
            weight_scheme = get_scheme(decision.weights)
            rule_label = decision.weight_rule
        if decision.activations is not None:
            activation_scheme = get_scheme(decision.activations)
            rule_label = rule_label or decision.activation_rule
    return weight_scheme, activation_scheme, rule_label


def _plan(unet: nn.Module, config: QuantizationConfig):
    """What quantizing ``unet`` replaces, its schemes resolved once.

    Returns ``(layers, concats)``: ``(path, layer, weight_scheme,
    activation_scheme, rule_label)`` for every Conv2d/Linear layer, in
    breadth-first order, not left FP32 on both sides, and ``(path,
    activation_scheme)`` for every skip concat quantized.
    """
    layers = []
    for path, layer in quantizable_layer_paths(unet):
        weights, activations, rule = _resolve_layer_schemes(config, path, layer)
        if not (weights.is_identity and activations.is_identity):
            layers.append((path, layer, weights, activations, rule))
    concats = []
    if config.quantize_skip_connections:
        for path, module in skip_concat_paths(unet):
            scheme = _resolve_layer_schemes(config, path, module)[1]
            if not scheme.is_identity:
                concats.append((path, scheme))
    return layers, concats


def _plan_needs_calibration(layers, concats,
                            config: QuantizationConfig) -> bool:
    """Whether quantizing what :func:`_plan` returned reads recorded
    activations: a planned layer quantizes its activations, a skip concat
    is quantized, or rounding learning applies to a planned weight scheme.
    (:meth:`QuantizationConfig.requires_calibration` answers the same
    question from the config alone, before any plan exists.)"""
    if concats or any(not activations.is_identity
                      for _path, _layer, _weights, activations, _rule in layers):
        return True
    return config.rounding_learning and any(
        weights.supports_rounding_learning for _path, _layer, weights, *_ in layers)


# ----------------------------------------------------------------------
# main entry point
# ----------------------------------------------------------------------
def quantize_pipeline(pipeline: DiffusionPipeline, config: QuantizationConfig,
                      prompts: Optional[Sequence[str]] = None,
                      calibration: Optional[CalibrationData] = None):
    """Return ``(quantized_pipeline, report)`` leaving the input pipeline intact.

    This is the main public entry point used by the examples and benchmarks:
    it resolves every layer's schemes on the full-precision model (a
    policy's predicates see the input's own layers), copies the model,
    quantizes the copy according to ``config`` and wraps it in a new
    pipeline with identical sampling settings so seed-matched comparisons
    are possible.  ``pipeline`` also collects the calibration data when
    ``calibration`` is not supplied and a planned layer or skip concat
    reads it.  The returned pipeline is always a
    distinct object — even for a full-precision config — so mutating it
    can never corrupt the baseline.
    """
    model = pipeline.model
    # Resolving the default schemes up front also validates the dtype
    # strings, so typos fail fast with the registry's error message.
    config.weight_scheme()
    config.activation_scheme()
    layers, concats = _plan(model.unet, config)
    # The layers replaced below are read and none of their weights kept,
    # so the copy shares those weights instead of copying them; no array
    # of the quantized model is the input model's.
    quantized_model = copy.deepcopy(
        model, {id(layer.weight): layer.weight for _path, layer, *_ in layers})
    if calibration is None:
        if _plan_needs_calibration(layers, concats, config):
            calibration = collect_calibration_data(pipeline, config.calibration,
                                                   prompts=prompts)
        else:
            calibration = CalibrationData()

    report = QuantizationReport(config=config)
    unet = quantized_model.unet
    for path, _layer, weight_scheme, activation_scheme, rule_label in layers:
        layer = unet.get_submodule(path)
        record = LayerQuantizationRecord(
            path=path, layer_type=type(layer).__name__,
            weight_format="FP32", activation_format="FP32", weight_mse=0.0,
            weight_scheme=weight_scheme.name,
            activation_scheme=activation_scheme.name,
            policy_rule=rule_label)
        quantized_weight, weight_quantizer = weight_scheme.quantize_weights(
            layer, config, calibration, path, record)
        activation_quantizer = activation_scheme.build_activation_quantizer(
            calibration.concatenated(path), config)
        record.activation_format = activation_quantizer.describe()
        # Integer and FP4 formats store the weight the layer serves as
        # packed levels; the float32 simulation is a memo dequantized from
        # them.  Packing the quantized weight (not the original) keeps
        # learned rounding.
        packed_weight = weight_quantizer.pack_weights(quantized_weight)
        if packed_weight is not None:
            record.packed_bytes = packed_weight.nbytes
        wrapper_type = (QuantizedConv2d if isinstance(layer, nn.Conv2d)
                        else QuantizedLinear)
        unet.set_submodule(path, wrapper_type(layer, quantized_weight,
                                              activation_quantizer,
                                              packed_weight=packed_weight))
        report.layers.append(record)

    for path, scheme in concats:
        main_quantizer = scheme.build_activation_quantizer(
            calibration.concatenated(f"{path}.main"), config)
        skip_quantizer = scheme.build_activation_quantizer(
            calibration.concatenated(f"{path}.skip"), config)
        unet.set_submodule(path, QuantizedSkipConcat(main_quantizer,
                                                     skip_quantizer))
        report.skip_concats.append(path)
    quantized_pipeline = DiffusionPipeline(quantized_model, spec=pipeline.spec,
                                           num_steps=pipeline.num_steps)
    return quantized_pipeline, report
