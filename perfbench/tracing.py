"""The traced run: spans around the program's public entry points.

:class:`Instrumentation` wraps each entry point listed in
:data:`ENTRY_POINTS` from the outside (the program itself is not edited)
and books one span per call on a :class:`repro.obs.Tracer`.  Every span
carries its own id, the id of the enclosing span (its cause) and the id of
the benchmark op it belongs to (-1 during set-up).  Spans stay in memory
and are saved as a Chrome trace at the end of the run.

A layer's self time is its span's duration minus the part its child spans
cover (:func:`self_times`); :func:`layer_metrics` turns the spans into the
per-layer metrics declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib
import itertools
import statistics
import sys
import threading
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core import qmodules
from repro.diffusion import samplers
from repro.obs import Tracer
from repro.serving.cluster.affinity import RoutingPolicy

SETUP_OP = -1

#: Spans kept in memory per run; a run that overflows reports dropped > 0.
MAX_EVENTS = 2_000_000


# ----------------------------------------------------------------------
# span annotations: attributes read off an entry point's arguments/result
# ----------------------------------------------------------------------
def _search_attrs(args, kwargs, result) -> Dict:
    return {"candidates": result.candidates_evaluated}


def _rounding_attrs(args, kwargs, result) -> Dict:
    return {"improved": result.final_output_mse < result.initial_output_mse}


def _act_quant_attrs(args, kwargs, result) -> Dict:
    return {"bytes": int(args[1].nbytes)}


def _fused_attrs(args, kwargs, result) -> Dict:
    storage = args[1]
    view = storage.packed_view()
    engaged = result is not None
    if engaged:
        weight_bytes = view.packed.nbytes
    elif view is not None:
        weight_bytes = view.shape[0] * view.shape[1] * 4
    else:
        weight_bytes = storage.num_elements * 4
    return {"engaged": engaged, "weight_bytes": int(weight_bytes)}


def _runner_attrs(args, kwargs, result) -> Dict:
    stage_s: Dict[str, float] = defaultdict(float)
    for record in result.manifest.stages:
        stage_s[record.kind] += record.duration_s
    return {"stage_s": dict(stage_s), "stages_total_s": sum(stage_s.values())}


def _batch_attrs(args, kwargs, result) -> Dict:
    engine, batch = args[0], args[1]
    return {"batch_size": len(batch),
            "max_batch_size": engine.config.max_batch_size,
            "requests": [request.request_id for request in batch.requests],
            "queue_waits": [response.queue_wait for response in result]}


def _frontdoor_attrs(args, kwargs, result) -> Dict:
    return {"rejected": result is None}


# (layer span name, module, attribute path, annotation).  Module-level
# functions are replaced in every module that imported them by name;
# methods are replaced on the class that defines them.
ENTRY_POINTS: Tuple = (
    ("zoo.load", "repro.zoo.registry", "load_pretrained", None),
    ("experiments.runner", "repro.experiments.runner", "run_experiment",
     _runner_attrs),
    ("core.calibration", "repro.core.calibration", "collect_calibration_data",
     None),
    ("core.search", "repro.core.search", "search_tensor_format", _search_attrs),
    ("core.rounding", "repro.core.rounding", "learn_rounding", _rounding_attrs),
    ("core.quantizer", "repro.core.quantizer", "quantize_pipeline", None),
    ("tensor.backend.gemm", "repro.tensor.backend", "ComputeBackend.gemm", None),
    ("tensor.backend.gemm", "repro.tensor.backend",
     "ComputeBackend.batched_gemm", None),
    ("tensor.backend.gemm", "repro.tensor.backend",
     "ComputeBackend.im2col_conv", None),
    ("tensor.backward", "repro.tensor.tensor", "Tensor.backward", None),
    ("tensor.fused", "repro.tensor.functional", "fused_conv2d", _fused_attrs),
    ("tensor.fused", "repro.tensor.functional", "fused_linear", _fused_attrs),
    ("models.unet", "repro.models.configs", "DiffusionModel.forward", None),
    ("models.text_encoder", "repro.models.text_encoder",
     "TextEncoder.encode_prompts", None),
    ("models.autoencoder", "repro.diffusion.pipeline",
     "DiffusionPipeline.decode_latents", None),
    ("serving.engine.batch", "repro.serving.engine",
     "ServingEngine.complete_batch", _batch_attrs),
    ("serving.router", "repro.serving.router", "SLORouter.decide", None),
    ("serving.cluster.frontdoor", "repro.serving.cluster.frontdoor",
     "FrontDoor.dispatch", _frontdoor_attrs),
    ("serving.cluster.replica", "repro.serving.cluster.replica",
     "Replica.schedule", None),
    ("serving.cluster.replica", "repro.serving.cluster.replica",
     "Replica.complete", None),
    ("serving.cluster.autoscaler", "repro.serving.cluster.autoscaler",
     "Autoscaler.evaluate", None),
    ("serving.cluster.report", "repro.serving.cluster.report",
     "build_cluster_report", None),
    ("serving.cluster.sim", "repro.serving.cluster.sim",
     "ClusterSimulation.run", None),
)


def _subclasses_defining(base: type, method: str) -> List[type]:
    """``base`` and every subclass that defines ``method`` itself."""
    found, pending = [], [base]
    while pending:
        cls = pending.pop()
        if method in cls.__dict__:
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


class Instrumentation:
    """Installs span wrappers; a context manager that removes them on exit."""

    def __init__(self, tracer=None):
        self.tracer = tracer if tracer is not None else Tracer(
            max_events=MAX_EVENTS, process="perfbench")
        self.op = SETUP_OP
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def traced(self, name: str, fn: Callable,
               annotate: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped to book one span named ``name`` per call."""
        instrumentation = self

        def wrapper(*args, **kwargs):
            stack = instrumentation._stack()
            span_id = next(instrumentation._ids)
            attrs = {"id": span_id, "parent": stack[-1] if stack else 0,
                     "op": instrumentation.op}
            with instrumentation.tracer.span(name, category="layer",
                                             attrs=attrs) as span:
                stack.append(span_id)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                if annotate is not None:
                    for key, value in annotate(args, kwargs, result).items():
                        span.set(key, value)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _marked(self, fn: Callable) -> Callable:
        """``fn`` wrapped to mark that a quantized layer is executing."""
        local = self._local

        def wrapper(*args, **kwargs):
            local.in_qlayer = getattr(local, "in_qlayer", 0) + 1
            try:
                return fn(*args, **kwargs)
            finally:
                local.in_qlayer -= 1

        return wrapper

    def _act_quant(self, fn: Callable) -> Callable:
        """A quantizer's ``quantize``, traced only inside quantized layers
        (activations), not when quantizing weights or searching formats."""
        traced = self.traced("core.qmodules.act_quant", fn, _act_quant_attrs)
        local = self._local

        def wrapper(*args, **kwargs):
            if getattr(local, "in_qlayer", 0):
                return traced(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, module_name: str, attr: str, wrapper) -> None:
        original = getattr(importlib.import_module(module_name), attr)
        for name, module in list(sys.modules.items()):
            if not name.startswith(("repro", "perfbench")) or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapper)

    def install(self) -> "Instrumentation":
        for name, module_name, path, annotate in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, method = path.split(".")
                cls = getattr(module, class_name)
                self._set(cls, method,
                          self.traced(name, cls.__dict__[method], annotate))
            else:
                self._patch_function(module_name, path,
                                     self.traced(name, getattr(module, path),
                                                 annotate))
        for cls in vars(samplers).values():
            if isinstance(cls, type) and "sample" in cls.__dict__:
                self._set(cls, "sample", self.traced(
                    "diffusion.sampler", cls.__dict__["sample"]))
        for cls in _subclasses_defining(RoutingPolicy, "choose"):
            self._set(cls, "choose", self.traced(
                "serving.cluster.placement", cls.__dict__["choose"]))
        for cls in _subclasses_defining(qmodules.TensorQuantizer, "quantize"):
            self._set(cls, "quantize", self._act_quant(cls.__dict__["quantize"]))
        for cls in (qmodules.QuantizedConv2d, qmodules.QuantizedLinear,
                    qmodules.QuantizedSkipConcat):
            self._set(cls, "forward", self._marked(cls.__dict__["forward"]))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Instrumentation":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def spans(self) -> List[Dict]:
        return self.tracer.spans(category="layer")


# ----------------------------------------------------------------------
# arithmetic over recorded spans
# ----------------------------------------------------------------------
def self_times(spans: Iterable[Dict]) -> Dict[int, float]:
    """Self time of every span: duration minus the time its children cover.

    Children of one span never overlap (a single thread runs them one
    after the other), so the covered time is the sum of their durations.
    """
    spans = list(spans)
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        parent = span["args"]["parent"]
        if parent:
            covered[parent] += span["dur"]
    return {span["args"]["id"]: span["dur"] - covered[span["args"]["id"]]
            for span in spans}


#: (metric, unit, better) of every per-layer metric, in report order.
#: Unless the name says otherwise a value is per op of the traced window:
#: per table row (ptq), per round of four images (generate), per request
#: (serve) or per simulator run (fleet).
LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("zoo.load_s", "s", "lower"),
    ("experiments.runner.self_s", "s", "lower"),
    ("experiments.stage.calibration_s", "s", "lower"),
    ("experiments.stage.quantize_s", "s", "lower"),
    ("experiments.stage.generate_s", "s", "lower"),
    ("experiments.stage.evaluate_s", "s", "lower"),
    ("experiments.store.write_mb", "MB", "lower"),
    ("experiments.evaluate.sfid_vs_fp32", "sFID", "lower"),
    ("core.calibration.self_s", "s", "lower"),
    ("core.calibration.calls", "count", "lower"),
    ("core.search.self_s", "s", "lower"),
    ("core.search.calls", "count", "lower"),
    ("core.search.candidates", "count", "lower"),
    ("core.rounding.self_s", "s", "lower"),
    ("core.rounding.calls", "count", "lower"),
    ("core.rounding.improved_share", "ratio", "higher"),
    ("core.quantizer.self_s", "s", "lower"),
    ("setup.core.calibration.self_s", "s", "lower"),
    ("setup.core.search.self_s", "s", "lower"),
    ("setup.core.quantizer.self_s", "s", "lower"),
    ("core.variant_mb.fp32", "MB", "lower"),
    ("core.variant_mb.fp4", "MB", "lower"),
    ("core.variant_mb.int8", "MB", "lower"),
    ("core.variant_mb.int4", "MB", "lower"),
    ("core.qmodules.act_quant_s", "s", "lower"),
    ("core.qmodules.act_quant_calls", "count", "lower"),
    ("core.qmodules.act_quant_mb", "MB", "lower"),
    ("tensor.backend.gemm_s", "s", "lower"),
    ("tensor.backend.gemm_calls", "count", "lower"),
    ("tensor.backend.macs", "count", "lower"),
    ("tensor.backward.self_s", "s", "lower"),
    ("tensor.backward.calls", "count", "lower"),
    ("tensor.fused.self_s", "s", "lower"),
    ("tensor.fused.engaged", "count", "higher"),
    ("tensor.fused.declined", "count", "lower"),
    ("tensor.fused.engaged_share", "ratio", "higher"),
    ("tensor.fused.weight_mb", "MB", "lower"),
    ("models.unet.self_s", "s", "lower"),
    ("models.unet.calls", "count", "lower"),
    ("models.text_encoder.self_s", "s", "lower"),
    ("models.autoencoder.self_s", "s", "lower"),
    ("diffusion.sampler.self_s", "s", "lower"),
    ("diffusion.sampler.calls", "count", "lower"),
    ("serving.engine.batch_s", "s", "lower"),
    ("serving.engine.queue_wait_p50_s", "s", "lower"),
    ("serving.batcher.batch_size_mean", "count", "higher"),
    ("serving.batcher.timeout_share", "ratio", "lower"),
    ("serving.router.self_s", "s", "lower"),
    ("serving.router.calls", "count", "lower"),
    ("serving.pool.hits", "count", "higher"),
    ("serving.pool.builds", "count", "lower"),
    ("serving.embedding_cache.hit_share", "ratio", "higher"),
    ("loadgen.sent", "count", "higher"),
    ("loadgen.succeeded", "count", "higher"),
    ("loadgen.failed", "count", "lower"),
    ("loadgen.lateness_p90_s", "s", "lower"),
    ("serving.cluster.frontdoor.self_s", "s", "lower"),
    ("serving.cluster.frontdoor.rejected", "count", "lower"),
    ("serving.cluster.placement.self_s", "s", "lower"),
    ("serving.cluster.replica.self_s", "s", "lower"),
    ("serving.cluster.replica.variant_loads", "count", "lower"),
    ("serving.cluster.autoscaler.self_s", "s", "lower"),
    ("serving.cluster.report.self_s", "s", "lower"),
    ("serving.cluster.sim.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.dropped", "count", "lower"),
)


class _Layer:
    """Totals of one span name in one phase."""

    __slots__ = ("calls", "dur", "self", "spans")

    def __init__(self):
        self.calls = 0
        self.dur = 0.0
        self.self = 0.0
        self.spans: List[Dict] = []


def _group(spans: List[Dict]) -> Tuple[Dict[str, _Layer], Dict[str, _Layer]]:
    """(set-up layers, op layers) keyed by span name."""
    selfs = self_times(spans)
    setup: Dict[str, _Layer] = defaultdict(_Layer)
    ops: Dict[str, _Layer] = defaultdict(_Layer)
    for span in spans:
        layer = (setup if span["args"]["op"] == SETUP_OP else ops)[span["name"]]
        layer.calls += 1
        layer.dur += span["dur"]
        layer.self += selfs[span["args"]["id"]]
        layer.spans.append(span)
    return setup, ops


def layer_metrics(spans: List[Dict], num_ops: int,
                  facts: Optional[Dict[str, float]] = None) -> Dict[str, float]:
    """Every metric of :data:`LAYER_METRICS` from the spans of one traced
    run of ``num_ops`` ops, plus ``facts`` the workload measured itself.

    A metric whose layer did not run in this workload reads 0.
    """
    setup, ops = _group(spans)
    per_op = 1.0 / max(num_ops, 1)

    def args(layer: str, key: str) -> List:
        return [span["args"][key] for span in ops[layer].spans]

    values: Dict[str, float] = {name: 0.0 for name, _, _ in LAYER_METRICS}
    values["zoo.load_s"] = setup["zoo.load"].self
    for layer in ("calibration", "search", "quantizer"):
        values[f"setup.core.{layer}.self_s"] = setup[f"core.{layer}"].self

    runner = ops["experiments.runner"]
    values["experiments.runner.self_s"] = per_op * (
        runner.dur - sum(args("experiments.runner", "stages_total_s")))
    for kind in ("calibration", "quantize", "generate", "evaluate"):
        values[f"experiments.stage.{kind}_s"] = per_op * sum(
            stage_s.get(kind, 0.0)
            for stage_s in args("experiments.runner", "stage_s"))

    for layer in ("core.calibration", "core.search", "core.rounding",
                  "tensor.backward", "models.unet", "diffusion.sampler",
                  "serving.router"):
        values[f"{layer}.calls"] = per_op * ops[layer].calls
    for layer in ("core.calibration", "core.search", "core.rounding",
                  "core.quantizer", "tensor.backward", "tensor.fused",
                  "models.unet", "models.text_encoder", "models.autoencoder",
                  "diffusion.sampler", "serving.router",
                  "serving.cluster.frontdoor", "serving.cluster.placement",
                  "serving.cluster.replica", "serving.cluster.autoscaler",
                  "serving.cluster.report", "serving.cluster.sim"):
        values[f"{layer}.self_s"] = per_op * ops[layer].self

    values["core.search.candidates"] = per_op * sum(
        args("core.search", "candidates"))
    improved = args("core.rounding", "improved")
    values["core.rounding.improved_share"] = (
        sum(improved) / len(improved) if improved else 0.0)

    act = ops["core.qmodules.act_quant"]
    values["core.qmodules.act_quant_s"] = per_op * act.self
    values["core.qmodules.act_quant_calls"] = per_op * act.calls
    values["core.qmodules.act_quant_mb"] = per_op * sum(
        args("core.qmodules.act_quant", "bytes")) / 1e6

    gemm = ops["tensor.backend.gemm"]
    values["tensor.backend.gemm_s"] = per_op * gemm.self
    values["tensor.backend.gemm_calls"] = per_op * gemm.calls

    engaged = args("tensor.fused", "engaged")
    values["tensor.fused.engaged"] = per_op * sum(engaged)
    values["tensor.fused.declined"] = per_op * (len(engaged) - sum(engaged))
    values["tensor.fused.engaged_share"] = (
        sum(engaged) / len(engaged) if engaged else 0.0)
    values["tensor.fused.weight_mb"] = per_op * sum(
        args("tensor.fused", "weight_bytes")) / 1e6

    batches = ops["serving.engine.batch"]
    if batches.calls:
        sizes = args("serving.engine.batch", "batch_size")
        limits = args("serving.engine.batch", "max_batch_size")
        waits = [wait for group in args("serving.engine.batch", "queue_waits")
                 for wait in group]
        values["serving.engine.batch_s"] = batches.dur / batches.calls
        values["serving.engine.queue_wait_p50_s"] = statistics.median(waits)
        values["serving.batcher.batch_size_mean"] = (
            sum(size * size for size in sizes) / sum(sizes))
        values["serving.batcher.timeout_share"] = sum(
            size < limit for size, limit in zip(sizes, limits)) / len(sizes)
    values["serving.cluster.frontdoor.rejected"] = per_op * sum(
        args("serving.cluster.frontdoor", "rejected"))

    for name, value in (facts or {}).items():
        if name not in values:
            raise KeyError(f"undeclared per-layer metric {name!r}")
        values[name] = float(value)
    return values


def layer_table(spans: List[Dict], num_ops: int) -> List[Tuple[str, float, float, int, float]]:
    """Rows ``(layer, setup self s, self s per op, calls per op, share of
    op time)`` for the console table, largest self time first."""
    setup, ops = _group(spans)
    total = sum(layer.self for layer in ops.values()) or 1.0
    per_op = 1.0 / max(num_ops, 1)
    names = sorted(set(setup) | set(ops),
                   key=lambda name: -(ops[name].self + setup[name].self))
    return [(name, setup[name].self, per_op * ops[name].self,
             per_op * ops[name].calls, ops[name].self / total)
            for name in names]
