"""First-class quantization schemes and the scheme registry.

Historically the model quantizer dispatched on dtype strings
(``if dtype.startswith("fp"): ...``), which made every new format a fork of
the core loop.  This module turns each format into a registrable
:class:`QuantScheme` object that encapsulates its own calibrate / quantize /
build-quantizer logic behind a common interface:

* :meth:`QuantScheme.quantize_weights` — quantize one layer's weight tensor
  ahead of time, filling in the per-layer report record and returning the
  quantized array plus the :class:`~repro.core.qmodules.TensorQuantizer`
  whose ``pack_weights`` may store it as packed levels;
* :meth:`QuantScheme.build_activation_quantizer` — calibrate an on-the-fly
  activation quantizer from initialization-dataset samples.

Built-in schemes (all pre-registered):

========== =============================================================
name       behaviour
========== =============================================================
``fp32``   identity / full precision pass-through
``fp8``    per-tensor FP with encoding+bias search (Algorithm 1)
``fp4``    as ``fp8`` at 4 bits, with optional rounding learning
``int8``   per-tensor uniform integer, min/max calibrated (Q-diffusion)
``int4``   as ``int8`` at 4 bits
``int8_pc`` per-output-channel integer weights (per-tensor activations)
``int4_pc`` as ``int8_pc`` at 4 bits
``fp8_block`` block-wise FP weights: searched encoding, per-block bias
``fp4_block`` as ``fp8_block`` at 4 bits
========== =============================================================

New schemes are added with :func:`register_scheme`; anywhere a config takes
a dtype string (``weight_dtype="fp4"``) any registered scheme name works.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Union

import numpy as np

from .fp import quantize_fp_with_rounding
from .qmodules import (
    BlockFPTensorQuantizer,
    FPTensorQuantizer,
    IdentityQuantizer,
    IntTensorQuantizer,
    PerChannelIntTensorQuantizer,
    TensorQuantizer,
)
from .rounding import learn_rounding
from .search import search_tensor_format


#: Algorithm 1's search and the integer activation calibration see at most
#: this many elements of a tensor, a :func:`subsample` drawn with seed 0.
MAX_SEARCH_ELEMENTS = 16384


def subsample(values: np.ndarray, limit: int, seed: int = 0) -> np.ndarray:
    """Deterministically subsample a flat array to bound search cost."""
    flat = np.asarray(values, dtype=np.float32).reshape(-1)
    if flat.size <= limit:
        return flat
    rng = np.random.default_rng(seed)
    index = rng.choice(flat.size, size=limit, replace=False)
    return flat[index]


def _search_format(values: np.ndarray, bits: int, config):
    """Algorithm 1's search on a bounded subsample of ``values``."""
    return search_tensor_format(
        subsample(values, MAX_SEARCH_ELEMENTS), bits,
        num_bias_candidates=config.num_bias_candidates)


def _quantized_weights(quantizer: TensorQuantizer, weights: np.ndarray,
                       record, weight_format: str, quantized=None):
    """``(quantized, quantizer)`` as :meth:`QuantScheme.quantize_weights`
    returns them, with the weight-side fields of ``record`` filled in;
    ``quantized`` defaults to ``quantizer.quantize(weights)``."""
    if quantized is None:
        quantized = quantizer.quantize(weights)
    record.weight_format = weight_format
    record.weight_mse = float(np.mean((weights - quantized) ** 2))
    return quantized, quantizer


class QuantScheme:
    """One quantization scheme: a registrable calibrate/quantize strategy.

    Subclasses set :attr:`name` (the registry key, also accepted wherever a
    dtype string is expected), :attr:`label` (the display form used in table
    row labels) and :attr:`bits`, and implement the two build methods.  A
    scheme instance is stateless: all per-experiment knobs come in through
    the :class:`~repro.core.quantizer.QuantizationConfig` and all per-layer
    state lives in the returned quantizers.
    """

    name: str = ""
    label: str = ""
    bits: int = 32

    #: Identity schemes skip calibration entirely and leave layers untouched.
    is_identity: bool = False
    #: Whether ``config.rounding_learning`` applies to this scheme's weights.
    supports_rounding_learning: bool = False

    # ------------------------------------------------------------------
    def quantize_weights(self, layer, config, calibration, path: str,
                         record) -> Tuple[np.ndarray, TensorQuantizer]:
        """Quantize ``layer.weight`` ahead of time.

        Returns ``(quantized_weight, weight_quantizer)`` and fills in the
        weight-side fields of ``record`` (a
        :class:`~repro.core.quantizer.LayerQuantizationRecord`).  The layer
        keeps ``weight_quantizer.pack_weights(quantized_weight)`` when that
        is not ``None``, else the float32 ``quantized_weight``.
        """
        raise NotImplementedError

    def build_activation_quantizer(self, samples: np.ndarray,
                                   config) -> TensorQuantizer:
        """Calibrate an on-the-fly quantizer from activation samples."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class IdentityScheme(QuantScheme):
    """Full precision: weights copied, activations passed through."""

    name = "fp32"
    label = "FP32"
    bits = 32
    is_identity = True

    def quantize_weights(self, layer, config, calibration, path, record):
        record.weight_format = "FP32"
        return layer.weight.data.copy(), IdentityQuantizer()

    def build_activation_quantizer(self, samples, config):
        return IdentityQuantizer()


class FPSearchScheme(QuantScheme):
    """Per-tensor FP with the paper's encoding/bias search (Algorithm 1).

    At 4 bits the scheme optionally refines the weight rounding with
    gradient-based rounding learning (Section V-B) when the config asks for
    it and calibration samples are available.
    """

    def __init__(self, bits: int):
        self.bits = bits
        self.name = f"fp{bits}"
        self.label = f"FP{bits}"
        self.supports_rounding_learning = bits <= 4

    def quantize_weights(self, layer, config, calibration, path, record):
        weights = layer.weight.data
        quantizer = FPTensorQuantizer(_search_format(weights, self.bits,
                                                     config).fmt)
        use_rounding = config.rounding_learning and self.supports_rounding_learning
        samples = calibration.samples(path)
        if not (use_rounding and samples):
            return _quantized_weights(quantizer, weights, record,
                                      quantizer.describe())
        result = learn_rounding(layer, quantizer.fmt, samples, config.rounding)
        record.rounding_learning_used = True
        record.rounding_mse_before = result.initial_output_mse
        record.rounding_mse_after = result.final_output_mse
        return _quantized_weights(
            quantizer, weights, record, quantizer.describe(),
            quantize_fp_with_rounding(weights, quantizer.fmt, result.round_up))

    def build_activation_quantizer(self, samples, config):
        if samples.size == 0:
            return IdentityQuantizer()
        return FPTensorQuantizer(_search_format(samples, self.bits, config).fmt)


class IntScheme(QuantScheme):
    """Per-tensor uniform integer with min/max calibration (Q-diffusion)."""

    def __init__(self, bits: int):
        self.bits = bits
        self.name = f"int{bits}"
        self.label = f"INT{bits}"

    def quantize_weights(self, layer, config, calibration, path, record):
        weights = layer.weight.data
        return _quantized_weights(
            IntTensorQuantizer.calibrated(weights, self.bits), weights, record,
            f"INT{self.bits}")

    def build_activation_quantizer(self, samples, config):
        if samples.size == 0:
            return IdentityQuantizer()
        return IntTensorQuantizer.calibrated(
            subsample(samples, MAX_SEARCH_ELEMENTS), self.bits)


class PerChannelIntScheme(IntScheme):
    """Integer weights calibrated per output channel.

    Activations have no stable channel layout across the recorded samples,
    so the activation side falls back to per-tensor integer calibration.
    """

    def __init__(self, bits: int):
        super().__init__(bits)
        self.name = f"int{bits}_pc"
        self.label = f"INT{bits}-PC"

    def quantize_weights(self, layer, config, calibration, path, record):
        weights = layer.weight.data
        return _quantized_weights(
            PerChannelIntTensorQuantizer.calibrated(weights, self.bits),
            weights, record, f"INT{self.bits}(per-channel)")


class BlockFPScheme(QuantScheme):
    """Block-wise FP weights: one searched encoding, one bias per block.

    The encoding (e/m split) is chosen once per tensor with Algorithm 1's
    search on a subsample; each contiguous block of ``block_size`` elements
    then gets its own exponent bias fitted to the block's maximum magnitude,
    the way block floating-point hardware shares an exponent offset per
    block.  Activations fall back to the per-tensor search.
    """

    def __init__(self, bits: int, block_size: int = 64):
        self.bits = bits
        self.block_size = block_size
        self.name = f"fp{bits}_block"
        self.label = f"FP{bits}-B{block_size}"

    def quantize_weights(self, layer, config, calibration, path, record):
        weights = layer.weight.data
        fmt = _search_format(weights, self.bits, config).fmt
        return _quantized_weights(
            BlockFPTensorQuantizer.calibrated(weights, fmt, self.block_size),
            weights, record, f"FP{self.bits}({fmt.name}, block={self.block_size})")

    def build_activation_quantizer(self, samples, config):
        if samples.size == 0:
            return IdentityQuantizer()
        return FPTensorQuantizer(_search_format(samples, self.bits, config).fmt)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
SchemeLike = Union[str, QuantScheme]

_SCHEME_REGISTRY: Dict[str, QuantScheme] = {}


def register_scheme(scheme: QuantScheme, override: bool = False) -> QuantScheme:
    """Register a scheme under its ``name`` (case-insensitive).

    Raises ``ValueError`` on duplicate names unless ``override=True``, so a
    typo cannot silently shadow a built-in.
    """
    key = scheme.name.lower()
    if not key:
        raise ValueError("scheme must define a non-empty name")
    if key in _SCHEME_REGISTRY and not override:
        raise ValueError(
            f"quantization scheme '{key}' is already registered "
            f"({_SCHEME_REGISTRY[key]!r}); pass override=True to replace it")
    _SCHEME_REGISTRY[key] = scheme
    return scheme


def unregister_scheme(name: str) -> None:
    """Remove a scheme from the registry (mainly for tests)."""
    _SCHEME_REGISTRY.pop(name.lower(), None)


def get_scheme(scheme: SchemeLike) -> QuantScheme:
    """Resolve a scheme name (or pass through a scheme instance).

    This is the resolution shim that keeps plain dtype strings such as
    ``"fp4"`` working everywhere a scheme is expected.
    """
    if isinstance(scheme, QuantScheme):
        return scheme
    key = str(scheme).lower()
    try:
        return _SCHEME_REGISTRY[key]
    except KeyError:
        raise ValueError(
            f"unknown quantization scheme '{scheme}'; "
            f"registered schemes: {available_schemes()}") from None


def available_schemes() -> List[str]:
    """Sorted names of every registered scheme."""
    return sorted(_SCHEME_REGISTRY)


def scheme_name(scheme: SchemeLike) -> str:
    """Canonical registry name of a scheme reference (str or instance)."""
    return get_scheme(scheme).name


# Built-ins.  Registration order is irrelevant; names are the contract.
register_scheme(IdentityScheme())
register_scheme(FPSearchScheme(8))
register_scheme(FPSearchScheme(4))
register_scheme(IntScheme(8))
register_scheme(IntScheme(4))
register_scheme(PerChannelIntScheme(8))
register_scheme(PerChannelIntScheme(4))
register_scheme(BlockFPScheme(8))
register_scheme(BlockFPScheme(4))
