"""Unified telemetry layer: tracer, metrics registry, calibration.

Covers the observability acceptance criteria:

* span nesting / attribute propagation and the clock-agnostic contract;
* exported traces are valid Chrome trace-event JSON (schema-checked);
* metrics snapshots survive a JSON round trip exactly;
* tracing a VirtualClock cluster simulation leaves the report
  byte-identical, and one trace file can cover runner stages, serving
  request segments and cluster replica lanes together;
* the disabled-tracer path adds no meaningful overhead to the sampler
  loop (the strict 2% bound lives in the ``telemetry.overhead`` bench
  pair; this guard is a generous smoke check).
"""

from __future__ import annotations

import copy
import json
import time

import numpy as np
import pytest

from repro.diffusion import DiffusionPipeline, GenerationPlan
from repro.experiments import Runner, RunStore, Stage, StageGraph
from repro.models import DiffusionModel
from repro.obs import (
    CalibrationReport,
    MetricsRegistry,
    Tracer,
    load_chrome_trace,
    run_cost_model_calibration,
    validate_chrome_trace,
)
from repro.obs.calibration import _fixture_pipeline
from repro.profiling import (
    GPU_V100,
    estimate_plan_latency,
    measure_latency,
    unet_layer_costs,
)
from repro.serving import (
    EngineConfig,
    ModelVariantPool,
    Request,
    ServingEngine,
    SLORouter,
    WorkloadConfig,
    generate_workload,
)
from repro.serving.cluster import (
    ClusterConfig,
    ClusterSimulation,
    TraceConfig,
    generate_trace,
)

from tiny_factories import make_tiny_spec


class FakeClock:
    """Deterministic clock: each read advances by ``step`` seconds."""

    def __init__(self, step: float = 0.5):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def _tiny_pipeline(task: str = "unconditional",
                   name: str = "tiny") -> DiffusionPipeline:
    spec = make_tiny_spec(name=name, task=task)
    model = DiffusionModel(spec, rng=np.random.default_rng(7))
    return DiffusionPipeline(model, num_steps=4)


# ----------------------------------------------------------------------
# tracer core
# ----------------------------------------------------------------------
class TestTracer:
    def test_span_nesting_and_attribute_propagation(self):
        tracer = Tracer(clock=FakeClock(step=1.0))
        with tracer.span("outer", category="test",
                         attrs={"fixed": 1}) as outer:
            outer.set("late", "yes").set("fixed", 2)
            with tracer.span("inner", category="test"):
                pass
        spans = {span["name"]: span for span in tracer.spans(category="test")}
        assert set(spans) == {"outer", "inner"}
        # inner closes first and nests inside outer's interval
        outer_span, inner_span = spans["outer"], spans["inner"]
        assert outer_span["ts"] <= inner_span["ts"]
        assert (inner_span["ts"] + inner_span["dur"]
                <= outer_span["ts"] + outer_span["dur"])
        # .set() overwrites constructor attrs and adds new ones
        assert outer_span["args"] == {"fixed": 2, "late": "yes"}

    def test_explicit_timestamps_never_read_the_clock(self):
        def forbidden():
            raise AssertionError("modeled-time path read the tracer clock")

        tracer = Tracer(clock=forbidden)
        tracer.add_span("modeled", 1.0, 3.5, attrs={"k": "v"})
        tracer.async_span("request", 7, 0.5, 2.0)
        tracer.instant("decision", ts=4.0)
        assert len(tracer.events()) == 4  # b + e for the async pair

    def test_lanes_map_to_stable_pid_tid_with_metadata(self):
        tracer = Tracer(clock=FakeClock())
        tracer.add_span("a", 0.0, 1.0, process="cluster", lane="replica-0")
        tracer.add_span("b", 0.0, 1.0, process="cluster", lane="replica-1")
        tracer.add_span("c", 1.0, 2.0, process="cluster", lane="replica-0")
        tracer.add_span("d", 0.0, 1.0, process="runner")
        doc = tracer.to_chrome_trace()
        validate_chrome_trace(doc)
        spans = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
        assert spans["a"]["pid"] == spans["b"]["pid"]
        assert spans["a"]["tid"] != spans["b"]["tid"]
        assert (spans["a"]["pid"], spans["a"]["tid"]) == \
            (spans["c"]["pid"], spans["c"]["tid"])
        assert spans["d"]["pid"] != spans["a"]["pid"]
        meta = {(e["name"], e["args"]["name"])
                for e in doc["traceEvents"] if e["ph"] == "M"}
        assert ("process_name", "cluster") in meta
        assert ("thread_name", "replica-1") in meta

    def test_chrome_export_converts_seconds_to_microseconds(self):
        tracer = Tracer(clock=FakeClock())
        tracer.add_span("work", 1.5, 2.0)
        tracer.instant("mark", ts=3.0)
        doc = tracer.to_chrome_trace()
        span = next(e for e in doc["traceEvents"] if e["ph"] == "X")
        mark = next(e for e in doc["traceEvents"] if e["ph"] == "i")
        assert span["ts"] == pytest.approx(1.5e6)
        assert span["dur"] == pytest.approx(0.5e6)
        assert mark["ts"] == pytest.approx(3.0e6)
        # export does not mutate the recorded (seconds) events
        assert tracer.spans()[0]["ts"] == 1.5

    def test_saved_trace_round_trips_and_validates(self, tmp_path):
        tracer = Tracer(clock=FakeClock())
        tracer.add_span("work", 0.0, 1.0, attrs={"n": 3})
        tracer.async_span("request", 12, 0.0, 2.0)
        path = tracer.save(tmp_path / "trace.json")
        doc = load_chrome_trace(path)
        phases = sorted(e["ph"] for e in doc["traceEvents"])
        assert phases == ["M", "M", "X", "b", "e"]

    def test_validator_rejects_malformed_documents(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({"events": []})
        with pytest.raises(ValueError, match="unknown phase"):
            validate_chrome_trace({"traceEvents": [
                {"ph": "Z", "name": "x", "pid": 1, "tid": 1, "ts": 0}]})
        with pytest.raises(ValueError, match="string 'id'"):
            validate_chrome_trace({"traceEvents": [
                {"ph": "b", "name": "x", "pid": 1, "tid": 1, "ts": 0,
                 "id": 7}]})
        with pytest.raises(ValueError, match="'dur'"):
            validate_chrome_trace({"traceEvents": [
                {"ph": "X", "name": "x", "pid": 1, "tid": 1, "ts": 0}]})

    def test_buffer_bound_counts_drops(self):
        tracer = Tracer(clock=FakeClock(), max_events=3)
        for index in range(8):
            tracer.instant(f"mark-{index}", ts=float(index))
        assert len(tracer.events()) == 3
        assert tracer.dropped == 5
        assert tracer.to_chrome_trace()["otherData"]["dropped_events"] == 5
        tracer.clear()
        assert tracer.events() == [] and tracer.dropped == 0


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_snapshot_json_round_trip_is_exact(self):
        registry = MetricsRegistry()
        registry.counter("requests", {"scheme": "int8"}).inc(3)
        registry.counter("requests", {"scheme": "fp32"}).inc()
        registry.gauge("replicas").set(4.0)
        histogram = registry.histogram("latency_s", {"tier": "tight"})
        for value in (0.2, 0.4, 0.1, 0.9):
            histogram.observe(value)
        snapshot = registry.snapshot()
        wire = json.dumps(snapshot, sort_keys=True)
        restored = MetricsRegistry.restore(json.loads(wire))
        assert json.dumps(restored.snapshot(), sort_keys=True) == wire

    def test_labels_create_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("hits", {"a": "1"}).inc()
        registry.counter("hits", {"a": "2"}).inc(5)
        values = {tuple(sorted(entry["labels"].items())): entry["state"]
                  for entry in registry.snapshot()["metrics"]}
        assert values[(("a", "1"),)]["value"] == 1.0
        assert values[(("a", "2"),)]["value"] == 5.0

    def test_kind_conflicts_and_bad_values_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="registered as counter"):
            registry.gauge("x")
        with pytest.raises(ValueError, match=">= 0"):
            registry.counter("x").inc(-1.0)

    def test_histogram_percentiles_are_deterministic(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", reservoir_size=64, seed=3)
        for value in range(1, 101):
            histogram.observe(float(value))
        state = histogram.snapshot()
        assert state["count"] == 100
        assert state["min"] == 1.0 and state["max"] == 100.0
        assert 0.0 < state["p50"] <= state["p95"] <= state["p99"] <= 100.0
        # same seed + same stream => identical reservoir
        other = MetricsRegistry().histogram("h", reservoir_size=64, seed=3)
        for value in range(1, 101):
            other.observe(float(value))
        assert other.snapshot() == state


# ----------------------------------------------------------------------
# runner instrumentation
# ----------------------------------------------------------------------
def _toy_graph() -> StageGraph:
    graph = StageGraph()
    graph.add(Stage(stage_id="numbers", kind="source", inputs={"n": 4},
                    encoding="json",
                    compute=lambda deps: {"values": [1, 2, 3, 4]}))
    graph.add(Stage(stage_id="total", kind="reduce", inputs={},
                    deps=("numbers",), encoding="json",
                    compute=lambda deps: {
                        "total": sum(deps["numbers"]["values"])}))
    return graph


class TestRunnerTracing:
    def test_stage_spans_timings_and_store_deltas(self, tmp_path):
        tracer = Tracer(clock=FakeClock(step=0.25))
        store = RunStore(tmp_path / "store")
        runner = Runner(store=store, tracer=tracer, clock=FakeClock())
        _values, manifest = runner.execute(_toy_graph())

        spans = tracer.spans(category="runner")
        assert {span["name"] for span in spans} == \
            {"stage.source", "stage.reduce"}
        by_stage = {span["args"]["stage_id"]: span for span in spans}
        assert by_stage["numbers"]["args"]["cache_hit"] is False
        assert by_stage["total"]["args"]["key"] == manifest.stages[-1].key

        # manifest carries per-stage timings and the store-counter deltas
        for record in manifest.stages:
            assert record.finished_s > record.started_s >= 0.0
        assert manifest.store == {"hits": 0, "misses": 2, "writes": 2}
        restored = json.loads(manifest.to_json())
        assert restored["store"]["writes"] == 2
        assert all("started_s" in stage for stage in restored["stages"])

        # warm rerun: spans say cache_hit, store delta says pure hits
        tracer.clear()
        _values, warm = Runner(store=store, tracer=tracer).execute(
            _toy_graph())
        assert all(span["args"]["cache_hit"]
                   for span in tracer.spans(category="runner"))
        assert warm.store == {"hits": 2, "misses": 0, "writes": 0}

    def test_untraced_runner_unchanged(self, tmp_path):
        _values, manifest = Runner(
            store=RunStore(tmp_path / "store")).execute(_toy_graph())
        assert manifest.hit_rate == 0.0
        assert manifest.store["misses"] == 2


# ----------------------------------------------------------------------
# cluster determinism + the one-file coverage criterion
# ----------------------------------------------------------------------
def _cluster_inputs(num_requests: int = 500):
    trace = generate_trace(TraceConfig(num_requests=num_requests, seed=13))
    config = ClusterConfig(initial_replicas=2, policy="affinity")
    return trace, config


class TestServingTracing:
    def test_execute_span_carries_the_routed_price(self):
        # The router cuts an 8-step request to 2 steps; the batch.execute
        # span carries the price the router routed on, of the 2 steps run.
        model = "ddim-cifar10"
        router = SLORouter(schemes=("fp32",))
        two_steps = router.predicted_plan_latency(
            model, "fp32", GenerationPlan(num_steps=2))
        request = Request(model=model, num_steps=8, seed=3,
                          latency_slo=1.01 * two_steps)
        decision = router.decide(request)
        assert decision.plan.num_steps == 2
        pipeline = _tiny_pipeline(name=model)
        tracer = Tracer()
        engine = ServingEngine(
            ModelVariantPool(builder=lambda _model, _scheme: pipeline),
            router=router, tracer=tracer)
        [response] = engine.serve([request])
        assert response.num_steps == 2
        [span] = tracer.spans(name="batch.execute")
        assert span["args"]["predicted_s"] == decision.predicted_latency


class TestClusterTracing:
    def test_traced_report_is_byte_identical(self):
        trace, config = _cluster_inputs()
        baseline = ClusterSimulation(config).run(trace)
        tracer = Tracer()
        traced = ClusterSimulation(config, tracer=tracer).run(trace)
        assert json.dumps(traced, sort_keys=True) == \
            json.dumps(baseline, sort_keys=True)
        # and the trace itself is real: replica lanes + request lifecycles
        doc = tracer.to_chrome_trace()
        validate_chrome_trace(doc)
        lanes = {e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert {"replica-0", "replica-1"} <= lanes
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"X", "b", "e"} <= phases

    def test_every_execute_span_carries_a_price(self):
        trace, config = _cluster_inputs(num_requests=200)
        tracer = Tracer()
        ClusterSimulation(config, tracer=tracer).run(trace)
        spans = tracer.spans(name="batch.execute")
        assert spans
        assert all(span["args"].get("predicted_s", 0.0) > 0.0
                   for span in spans)

    def test_one_trace_file_covers_runner_serving_and_cluster(self, tmp_path):
        tracer = Tracer()

        # runner stages
        Runner(store=RunStore(tmp_path / "store"),
               tracer=tracer).execute(_toy_graph())

        # single-engine serving segments
        pipeline = _tiny_pipeline(task="text-to-image",
                                  name="stable-diffusion")
        requests = generate_workload(WorkloadConfig(
            num_requests=6, models=("stable-diffusion",), num_steps=4,
            prompt_pool_size=4, popularity_skew=1.2, slo_tiers=(None,),
            seed=77))
        pool = ModelVariantPool(builder=lambda _model, _scheme: pipeline)
        engine = ServingEngine(pool, router=SLORouter(),
                               config=EngineConfig(max_batch_size=4),
                               tracer=tracer, trace_lane="engine-0")
        pool.prewarm([("stable-diffusion", "fp32")])
        assert len(engine.serve([copy.copy(r) for r in requests])) == 6

        # cluster replica lanes
        trace, config = _cluster_inputs(num_requests=200)
        ClusterSimulation(config, tracer=tracer).run(trace)

        doc = load_chrome_trace(tracer.save(tmp_path / "combined.json"))
        processes = {e["args"]["name"] for e in doc["traceEvents"]
                     if e["ph"] == "M" and e["name"] == "process_name"}
        assert {"runner", "serving", "cluster"} <= processes
        categories = {e.get("cat") for e in doc["traceEvents"]}
        assert {"runner", "batch", "request"} <= categories
        # serving request lifecycles are async pairs with matching ids
        begins = [e["id"] for e in doc["traceEvents"] if e["ph"] == "b"]
        ends = [e["id"] for e in doc["traceEvents"] if e["ph"] == "e"]
        assert begins and sorted(begins) == sorted(ends)


# ----------------------------------------------------------------------
# calibration
# ----------------------------------------------------------------------
class TestCalibration:
    def test_report_structure_and_error_math(self):
        report = CalibrationReport(device="test-device")
        report.add("w1", "int8", predicted_s=1.0, measured_s=2.0)
        report.add("w1", "fp32", predicted_s=2.0, measured_s=4.0)
        doc = report.to_dict()
        assert doc["schema"].startswith("repro.obs.calibration/")
        # both cells share ratio 2.0 => fitted scale 2, zero residual error
        assert doc["fitted_scale"] == pytest.approx(2.0)
        assert doc["summary"]["num_cells"] == 2
        assert doc["summary"]["median_abs_error_pct"] == pytest.approx(0.0)
        for cell in doc["cells"]:
            assert cell["scaled_predicted_s"] == \
                pytest.approx(cell["measured_s"])
        with pytest.raises(ValueError):
            report.add("w2", "int8", predicted_s=0.0, measured_s=1.0)

    def test_predictions_scale_with_steps_and_precision(self):
        pipeline = _tiny_pipeline()
        costs = unet_layer_costs(pipeline.spec.unet,
                                 sample_size=pipeline.spec.sample_shape[-1])
        four = estimate_plan_latency(costs, GPU_V100, "fp32",
                                     GenerationPlan(num_steps=4), 4)
        eight = estimate_plan_latency(costs, GPU_V100, "fp32",
                                      GenerationPlan(num_steps=8), 4)
        int8 = estimate_plan_latency(costs, GPU_V100, "int8",
                                     GenerationPlan(num_steps=4), 4)
        assert eight == pytest.approx(2 * four)
        assert 0.0 < int8 < four  # fewer bytes moved per element

    def test_calibration_harness_end_to_end(self, tmp_path):
        tracer = Tracer()
        plan = GenerationPlan(sampler="ddim", num_steps=2)
        report = run_cost_model_calibration(
            schemes=("fp32", "int8"), workloads={"tiny.ddim": plan},
            repeats=1, tracer=tracer)
        doc = report.to_dict()
        assert doc["summary"]["num_cells"] == 2
        assert {cell["scheme"] for cell in doc["cells"]} == {"fp32", "int8"}
        for cell in doc["cells"]:
            assert cell["measured_s"] > 0 and cell["predicted_s"] > 0
        path = report.save(tmp_path / "calibration.json")
        assert json.loads(path.read_text())["schema"] == doc["schema"]
        spans = tracer.spans(category="calibration")
        assert len(spans) == 2
        assert all("predicted_s" in span["args"] for span in spans)

    def test_cells_are_priced_at_the_steps_they_run(self):
        # A 2-step plan on the 4-step fixture walks 2 steps; the
        # prediction and the evaluation count must follow the plan.
        plan = GenerationPlan(sampler="ddim", num_steps=2)
        report = run_cost_model_calibration(
            schemes=("fp32",), workloads={"tiny.ddim-2": plan}, repeats=1)
        [cell] = report.cells
        assert cell["model_evals"] == 2
        fixture = _fixture_pipeline("fp32")
        assert fixture.num_steps == 4
        costs = unet_layer_costs(fixture.spec.unet,
                                 sample_size=fixture.spec.image_size)
        assert cell["predicted_s"] == estimate_plan_latency(
            costs, GPU_V100, "fp32", plan, fixture.num_steps,
            fixture.schedule.num_timesteps)


# ----------------------------------------------------------------------
# overhead guard (generous; the 2% bound is the bench pair's job)
# ----------------------------------------------------------------------
class TestOverheadGuard:
    def test_disabled_tracer_does_not_slow_the_sampler_loop(self):
        pipeline = _tiny_pipeline()
        plan = GenerationPlan(sampler="ddim", num_steps=4)
        noise = pipeline.initial_noise(1, seed=11)
        shape = noise.shape

        def run(tracer):
            sampler = plan.build_sampler(pipeline.schedule, 4)
            return sampler.sample(pipeline.model, shape,
                                  np.random.default_rng(1),
                                  initial_noise=noise.copy(), tracer=tracer)

        # identical trajectories first (tracing must not change the answer)
        traced_tracer = Tracer()
        assert np.array_equal(run(None), run(traced_tracer))

        disabled = measure_latency(lambda: run(None),
                                   clock=time.perf_counter, repeats=5)
        enabled = measure_latency(lambda: run(traced_tracer),
                                  clock=time.perf_counter, repeats=5)
        # generous CI-safe bound; the bench baseline enforces the real 2%
        assert disabled["best_s"] < enabled["best_s"] * 1.5 + 0.05
