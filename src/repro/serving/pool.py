"""Model-variant pool: quantized pipelines per (model, scheme), LRU-evicted.

The quantization registry gives every checkpoint a family of precision
variants (FP32, FP8, FP4, INT8, ...).  The pool is the serving-side owner of
those variants: :meth:`ModelVariantPool.get` lazily builds the pipeline for
a ``(model, scheme)`` pair and caches it.  The default builder is
:func:`repro.experiments.variants.build_variant`, the experiments' own
pretrain -> calibration -> quantize stage chain (the zoo checkpoint is
memoized in-process by :func:`repro.zoo.load_pretrained`).

Without a ``run_store`` every build is a cold quantize.  With one (the
experiments' content-addressed :class:`~repro.experiments.store.RunStore`)
a variant quantized before — by a previous server process or by
:meth:`prewarm` — is *loaded* from the artifact store instead of
re-quantized at request time.  Stage-level sharing with experiment runs follows content keys: the
pretrain checkpoint is shared whenever the pretrain configs match, while
calibration/quantize artifacts are shared only when the serving
quantization config coincides with the experiment's (serving uses the
pool's own ``quantization`` mapping, not a spec's bench-scaled configs).
Per-variant build time and provenance (``"store"`` vs ``"cold"``) land in
:meth:`stats` so serving reports show prewarm effectiveness.

Resident variants are charged against a **memory budget** by the bytes
they measurably hold (:func:`repro.core.resident_nbytes`: parameters,
buffers and packed weight storage), so an FP4 or INT4 variant of packed
layers costs the pool ~1/8 of its FP32 sibling.  A variant is measured
when it is built, and again at the next :meth:`ModelVariantPool.stats`
or build after it serves.  The analytic peak-memory
estimate of :mod:`repro.profiling.memory` (:func:`variant_cost_bytes`)
stays the prediction; :meth:`ModelVariantPool.stats` reports both per
variant, plus the process-wide dequantization memo that packed variants
share once.  When a build pushes the total over budget,
least-recently-used variants are evicted (the newest variant is always
kept, even alone over budget, so serving can't wedge).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Callable, Dict, Iterable, Optional, Set, Tuple

from .. import nn
from ..core import DEQUANTIZE_MEMO, QuantizationConfig, resident_nbytes
from ..diffusion import DiffusionPipeline
from ..models import get_model_spec
from ..profiling import estimate_peak_memory, scheme_bytes_per_element
from ..zoo import PretrainConfig

VariantKey = Tuple[str, str]  # (model name, scheme name)


def variant_cost_bytes(model: str, scheme: str, batch_size: int = 8) -> float:
    """Analytic memory cost of keeping one pipeline variant resident.

    Peak inference memory of the variant's U-Net at the pool's serving
    batch size, with both weights and activations priced at the scheme's
    bytes per element (:mod:`repro.profiling.memory`, paper Figure 5).
    """
    spec = get_model_spec(model)
    bytes_per_element = scheme_bytes_per_element(scheme)
    sample_size = spec.sample_shape[-1]
    estimate = estimate_peak_memory(
        spec.unet, sample_size, batch_size,
        weight_bytes_per_element=bytes_per_element,
        activation_bytes_per_element=bytes_per_element)
    return estimate.total_bytes


class ModelVariantPool:
    """Lazily-built, LRU-evicted cache of quantized pipeline variants."""

    def __init__(self, memory_budget_bytes: Optional[float] = None,
                 batch_size: int = 8,
                 pretrain: Optional[PretrainConfig] = None,
                 cache_dir=None,
                 quantization: Optional[Callable[[str], QuantizationConfig]] = None,
                 builder: Optional[Callable[[str, str], DiffusionPipeline]] = None,
                 cost_fn: Optional[Callable[[str, str], float]] = None,
                 run_store=None,
                 clock: Callable[[], float] = time.perf_counter):
        """
        ``builder`` overrides how a ``(model, scheme)`` pipeline is built
        (tests inject stubs; production uses :func:`build_variant`).
        ``quantization`` maps a scheme name to the full
        :class:`QuantizationConfig` used for that variant (default: the
        scheme for both weights and activations).  A variant is charged
        the bytes its model measurably holds
        (:func:`repro.core.resident_nbytes`; 0 for a builder's stand-in
        without a model) and predicted to cost
        :func:`variant_cost_bytes`; ``cost_fn`` replaces
        both the charge and the prediction (simulated replicas charge
        modeled bytes); ``memory_budget_bytes=None`` disables eviction
        entirely.  ``run_store`` (a
        :class:`repro.experiments.RunStore`) makes the default builder load
        pre-quantized variants from the content-addressed artifact store,
        falling back to a cold quantize that populates the store; without
        one every build is a cold quantize.
        ``clock`` stamps build/prewarm durations (wall time by default);
        an engine serving from the pool replaces it with its own (possibly
        virtual) clock, so the pool's timing stats are deterministic
        whenever the engine's are.
        """
        self.memory_budget_bytes = memory_budget_bytes
        self.clock = clock
        self.batch_size = batch_size
        self.pretrain = pretrain or PretrainConfig()
        self.cache_dir = cache_dir
        self.run_store = run_store
        self._quantization = quantization or self._default_quantization
        self._builder = builder or self._default_builder
        self._cost_fn = cost_fn
        self._variants: "OrderedDict[VariantKey, DiffusionPipeline]" = OrderedDict()
        self._costs: Dict[VariantKey, float] = {}
        #: Per-variant build provenance: build time and "store"/"cold"/
        #: "custom" source, kept across evictions for the serving report.
        self._variant_meta: Dict[VariantKey, Dict] = {}
        #: Resident variants built or served since they were last measured.
        self._unmeasured: Set[VariantKey] = set()
        self._last_build_source: Optional[str] = None
        self.hits = 0
        self.builds = 0
        self.evictions = 0
        self.store_loads = 0
        self.cold_builds = 0

    # ------------------------------------------------------------------
    @staticmethod
    def _default_quantization(scheme: str) -> QuantizationConfig:
        return QuantizationConfig(weight_dtype=scheme, activation_dtype=scheme)

    def _default_builder(self, model: str, scheme: str) -> DiffusionPipeline:
        # Imported here: the experiments package is only needed once a
        # variant is built, and importing it costs every server start.
        from ..experiments.variants import build_variant
        built = build_variant(model, self._quantization(scheme),
                              pretrain=self.pretrain, store=self.run_store,
                              zoo_cache_dir=self.cache_dir)
        self._last_build_source = built.source
        return built.pipeline

    # ------------------------------------------------------------------
    @property
    def resident_bytes(self) -> float:
        return sum(self._costs.values())

    @property
    def resident_variants(self) -> Tuple[VariantKey, ...]:
        """Resident keys in least- to most-recently-used order."""
        return tuple(self._variants)

    def stats(self) -> Dict:
        """Counters, charged bytes against the budget, and per variant its
        build provenance, measured ``resident_nbytes`` and
        ``predicted_bytes``; ``dequantize_memo`` is the float-weight memo
        all packed variants of the process share.  Variants served since
        their last measurement are measured again first."""
        self._measure()
        return {
            "hits": self.hits,
            "builds": self.builds,
            "evictions": self.evictions,
            "resident": len(self._variants),
            "resident_bytes": self.resident_bytes,
            "memory_budget_bytes": self.memory_budget_bytes,
            "store_loads": self.store_loads,
            "cold_builds": self.cold_builds,
            "dequantize_memo": DEQUANTIZE_MEMO.stats(),
            "variants": {
                f"{model}/{scheme}": dict(meta,
                                          resident=(model, scheme) in self._variants)
                for (model, scheme), meta in self._variant_meta.items()
            },
        }

    def has_variant(self, model: str, scheme: str) -> bool:
        """Whether ``(model, scheme)`` is resident right now (no build).

        Affinity routing scores replicas by residency without touching the
        LRU order — :meth:`get` would promote the key and build on a miss.
        """
        return (model, scheme) in self._variants

    # ------------------------------------------------------------------
    def get(self, model: str, scheme: str) -> DiffusionPipeline:
        """Return the pipeline for ``(model, scheme)``, building it lazily."""
        key: VariantKey = (model, scheme)
        pipeline = self._variants.get(key)
        if pipeline is not None:
            self.hits += 1
            self._variants.move_to_end(key)
            self._unmeasured.add(key)
            return pipeline
        self._last_build_source = None
        started = self.clock()
        pipeline = self._builder(model, scheme)
        build_time = self.clock() - started
        source = self._last_build_source or "custom"
        if source == "store":
            self.store_loads += 1
        elif source == "cold":
            self.cold_builds += 1
        self.builds += 1
        if self._cost_fn is None:
            predicted = variant_cost_bytes(model, scheme, self.batch_size)
        else:
            predicted = self._costs[key] = float(self._cost_fn(model, scheme))
        self._variant_meta[key] = {"build_time_s": build_time, "source": source,
                                   "predicted_bytes": float(predicted)}
        self._variants[key] = pipeline
        self._unmeasured.add(key)
        self._measure()
        self._evict_over_budget(keep=key)
        return pipeline

    def _measure(self) -> None:
        """Measure the resident variants built or served since their last
        measurement; without a ``cost_fn`` that is also their charge.  A
        served variant can have grown: a packed layer builds the row
        arrays of its GEMM view on its first fused product."""
        for key in self._unmeasured & self._variants.keys():
            bundle = getattr(self._variants[key], "model", None)
            measured = resident_nbytes(bundle) if isinstance(bundle, nn.Module) else 0
            self._variant_meta[key]["resident_nbytes"] = measured
            if self._cost_fn is None:
                self._costs[key] = float(measured)
        self._unmeasured.clear()

    def _evict_over_budget(self, keep: VariantKey) -> None:
        if self.memory_budget_bytes is None:
            return
        while (self.resident_bytes > self.memory_budget_bytes
               and len(self._variants) > 1):
            victim = next(iter(self._variants))
            if victim == keep:
                # The newest variant alone exceeds the budget; keep serving.
                break
            self._variants.pop(victim)
            self._costs.pop(victim)
            self.evictions += 1

    def prewarm(self, specs: Iterable) -> Dict:
        """Build every variant a workload will need before traffic arrives.

        ``specs`` may mix ``(model, scheme)`` pairs and
        :class:`repro.experiments.ExperimentSpec` objects; a spec
        contributes one variant per distinct row weight scheme of its
        model (the *schemes* are taken from the spec — each variant is
        still quantized with the pool's own ``quantization`` config, since
        that is what :meth:`get` must later serve).  Builds go through the
        pool's builder, so with a ``run_store`` attached the prewarm is
        mostly artifact loads after the first server process has run.
        Returns a summary (per-variant source and build time) for the
        serving report.
        """
        pairs = []
        for item in specs:
            if isinstance(item, tuple):
                pairs.append(item)
            else:  # an ExperimentSpec
                for row in item.rows:
                    pairs.append((item.model, row.resolve_config().weight_dtype))
        pairs = list(dict.fromkeys(pairs))
        loads_before = self.store_loads
        cold_before = self.cold_builds
        started = self.clock()
        for model, scheme in pairs:
            self.get(model, scheme)
        return {
            "prewarmed": [f"{model}/{scheme}" for model, scheme in pairs],
            "duration_s": self.clock() - started,
            # deltas for *this* prewarm, not pool-lifetime totals
            "store_loads": self.store_loads - loads_before,
            "cold_builds": self.cold_builds - cold_before,
            "variants": {
                f"{model}/{scheme}": dict(self._variant_meta.get(
                    (model, scheme), {}))
                for model, scheme in pairs
            },
        }
