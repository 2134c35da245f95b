"""The paper's contribution: low-bitwidth floating-point PTQ for diffusion models.

Public API overview
-------------------

Primitives
    * :class:`FPFormat`, :func:`quantize_fp`, :func:`quantize_fp_blockwise` —
      low-bitwidth floating-point formats, round-to-nearest quantization
      (Eq. 5-9) and the block-wise variant (per-block exponent bias).
    * :class:`IntFormat` / :class:`PerChannelIntFormat`,
      :func:`calibrate_int_format`, :func:`quantize_int` and their
      per-channel counterparts — the uniform integer (Q-diffusion style)
      baseline (Eq. 4).
    * :func:`search_tensor_format` — Algorithm 1's per-tensor encoding/bias
      search.
    * :func:`learn_rounding` — gradient-based rounding learning for FP4
      weights (Eq. 12-14).
    * :func:`collect_calibration_data` — initialization / calibration dataset
      collection from the full-precision model.

Schemes and policies (the extensible quantization API)
    * :class:`QuantScheme` — one registrable calibrate/quantize strategy;
      built-ins cover ``fp32``, ``fp8``/``fp4`` (format search + rounding
      learning), ``int8``/``int4``, per-channel integer (``int8_pc``/
      ``int4_pc``) and block-wise FP (``fp8_block``/``fp4_block``).
    * :func:`register_scheme` / :func:`get_scheme` /
      :func:`available_schemes` — the scheme registry; any registered name
      is accepted wherever a dtype string is expected.
    * :class:`QuantizationPolicy` / :class:`PolicyRule` — ordered per-layer
      overrides (glob patterns, layer types, predicates) enabling true
      mixed precision; :func:`boundary_interior_policy` builds the classic
      "keep first/last layer high precision" recipe.

Orchestration
    * :func:`quantize_pipeline` — end-to-end PTQ of a diffusion pipeline,
      the one quantization path: it resolves every layer's schemes once,
      on the input model, and quantizes a copy, dispatching through the
      scheme registry, with :data:`PAPER_CONFIGS` providing the exact
      weight/activation settings evaluated in the paper's tables and
      :func:`mixed_precision_config` building a policy-driven
      mixed-precision experiment.
    * :class:`QuantizationConfig` / :class:`QuantizationReport` /
      :class:`LayerQuantizationRecord` — serializable experiment descriptions
      and results (``to_dict`` / ``from_dict`` / ``to_json`` / ``from_json``).
    * :func:`measure_weight_sparsity` — the sparsity analysis of Figure 11.

Storage
    * :class:`PackedIntWeight` — the packed levels a quantized layer holds;
      its float32 weight is served from :data:`DEQUANTIZE_MEMO`, one
      process-wide store that admits weights while they fit
      :data:`DEQUANTIZE_MEMO_BUDGET_BYTES`.
    * :func:`resident_nbytes` — measured bytes of the arrays a model holds.
"""

from .formats import (
    ENCODING_CANDIDATES,
    FP4_ENCODINGS,
    FP8_ENCODINGS,
    FPFormat,
    encoding_candidates,
)
from .fp import (
    calibrate_block_biases,
    fp_levels,
    fp_scales,
    quantization_mse,
    quantize_fp,
    quantize_fp_blockwise,
    quantize_fp_with_rounding,
)
from .integer import (
    IntFormat,
    PerChannelIntFormat,
    calibrate_int_format,
    calibrate_int_format_per_channel,
    int_quantization_mse,
    quantize_int,
    quantize_int_per_channel,
)
from .search import (
    DEFAULT_NUM_BIAS_CANDIDATES,
    SearchResult,
    bias_candidates,
    search_tensor_format,
)
from .rounding import (
    RoundingLearningConfig,
    RoundingLearningResult,
    learn_rounding,
    regularizer_value,
)
from .calibration import (
    CalibrationConfig,
    CalibrationData,
    collect_calibration_data,
    quantizable_layer_paths,
    skip_concat_paths,
)
from .hashing import canonical_json, canonicalize, content_hash
from .qmodules import (
    DEQUANTIZE_MEMO,
    DEQUANTIZE_MEMO_BUDGET_BYTES,
    BlockFPTensorQuantizer,
    DequantizeMemo,
    FPTensorQuantizer,
    IdentityQuantizer,
    IntTensorQuantizer,
    PackedIntWeight,
    PerChannelIntTensorQuantizer,
    QuantizedConv2d,
    QuantizedLinear,
    QuantizedSkipConcat,
    TensorQuantizer,
    resident_nbytes,
)
from .schemes import (
    BlockFPScheme,
    FPSearchScheme,
    IdentityScheme,
    IntScheme,
    PerChannelIntScheme,
    QuantScheme,
    available_schemes,
    get_scheme,
    register_scheme,
    scheme_name,
    unregister_scheme,
)
from .policy import (
    PolicyDecision,
    PolicyRule,
    QuantizationPolicy,
    boundary_interior_policy,
)
from .quantizer import (
    PAPER_CONFIGS,
    LayerQuantizationRecord,
    QuantizationConfig,
    QuantizationReport,
    fp4_fp8_config,
    fp8_fp8_config,
    full_precision_config,
    int4_int8_config,
    int8_int8_config,
    mixed_precision_config,
    quantize_pipeline,
)
from .sparsity import (
    SparsityReport,
    measure_weight_sparsity,
    sparsity_increase,
    tensor_sparsity,
)

__all__ = [
    # formats / fp / int
    "FPFormat", "FP8_ENCODINGS", "FP4_ENCODINGS", "ENCODING_CANDIDATES",
    "encoding_candidates", "fp_levels", "fp_scales", "quantize_fp",
    "quantize_fp_with_rounding",
    "quantize_fp_blockwise", "calibrate_block_biases",
    "quantization_mse", "IntFormat", "PerChannelIntFormat",
    "calibrate_int_format", "calibrate_int_format_per_channel",
    "quantize_int", "quantize_int_per_channel", "int_quantization_mse",
    # search / rounding / calibration
    "search_tensor_format", "bias_candidates", "SearchResult",
    "DEFAULT_NUM_BIAS_CANDIDATES",
    "learn_rounding", "regularizer_value", "RoundingLearningConfig",
    "RoundingLearningResult",
    "CalibrationConfig", "CalibrationData", "collect_calibration_data",
    "quantizable_layer_paths", "skip_concat_paths",
    # content hashing
    "canonicalize", "canonical_json", "content_hash",
    # quantizer modules
    "TensorQuantizer", "IdentityQuantizer", "FPTensorQuantizer",
    "IntTensorQuantizer", "PerChannelIntTensorQuantizer",
    "BlockFPTensorQuantizer", "PackedIntWeight", "QuantizedConv2d", "QuantizedLinear",
    "QuantizedSkipConcat", "DequantizeMemo", "DEQUANTIZE_MEMO",
    "DEQUANTIZE_MEMO_BUDGET_BYTES", "resident_nbytes",
    # schemes and registry
    "QuantScheme", "IdentityScheme", "FPSearchScheme", "IntScheme",
    "PerChannelIntScheme", "BlockFPScheme",
    "register_scheme", "unregister_scheme", "get_scheme",
    "available_schemes", "scheme_name",
    # policies
    "QuantizationPolicy", "PolicyRule", "PolicyDecision",
    "boundary_interior_policy",
    # orchestration
    "QuantizationConfig", "QuantizationReport", "LayerQuantizationRecord",
    "PAPER_CONFIGS", "quantize_pipeline", "full_precision_config",
    "fp8_fp8_config", "fp4_fp8_config",
    "int8_int8_config", "int4_int8_config", "mixed_precision_config",
    # sparsity
    "SparsityReport", "measure_weight_sparsity", "sparsity_increase",
    "tensor_sparsity",
]
