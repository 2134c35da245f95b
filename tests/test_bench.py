"""Tests for the continuous benchmarking subsystem (repro.bench)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.bench import (
    BenchTimer,
    Measurement,
    build_report,
    compare_reports,
    load_report,
    markdown_summary,
    register_workload,
    unregister_workload,
    workloads_for_suite,
    write_report,
)
from repro.bench.compare import (
    CALIBRATION_WORKLOAD,
    VERDICT_IMPROVED,
    VERDICT_MISSING,
    VERDICT_NEW,
    VERDICT_PASS,
    VERDICT_REGRESSION,
)
from repro.bench.registry import WORKLOAD_REGISTRY, Workload
from repro.bench.reporter import openblas_threads
from repro.diffusion import DiffusionPipeline, GenerationPlan
from repro.models import DiffusionModel
from repro.tensor import Tensor, inference_mode, is_grad_enabled, is_inference_mode

from tiny_factories import make_tiny_spec

REPO_ROOT = Path(__file__).resolve().parents[1]


class FakeClock:
    """Deterministic clock: each call returns the next scripted instant."""

    def __init__(self, step: float = 1.0):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


# ----------------------------------------------------------------------
# timer
# ----------------------------------------------------------------------
def test_timer_is_deterministic_with_fake_clock():
    calls = []
    timer = BenchTimer(warmup=2, repeats=5, trim_fraction=0.2,
                       clock=FakeClock(step=0.5))
    measurement = timer.measure(lambda: calls.append(1), name="probe")
    # 2 warmup calls + 5 timed calls ran the function
    assert len(calls) == 7
    # every sample is exactly one clock step (start and stop bracket the call)
    assert measurement.samples == [0.5] * 5
    assert measurement.median_s == 0.5
    assert measurement.p95_s == 0.5
    assert measurement.warmup == 2


def test_timer_trims_slow_outliers():
    measurement = Measurement(name="m", samples=[1.0, 1.0, 1.0, 1.0, 50.0],
                              warmup=0, trim_fraction=0.2)
    assert measurement.trimmed == 1
    assert measurement.median_s == 1.0
    assert measurement.p95_s == 1.0        # the outlier was dropped
    assert measurement.min_s == 1.0
    data = measurement.to_dict()
    assert data["repeats"] == 5 and data["trimmed"] == 1


def test_timer_pair_interleaves_samples():
    order = []
    timer = BenchTimer(warmup=1, repeats=3, clock=FakeClock(step=1.0))
    a, b = timer.measure_pair(lambda: order.append("a"),
                              lambda: order.append("b"),
                              name_a="a", name_b="b")
    # warmup a, b then strict a/b alternation for the timed samples
    assert order == ["a", "b", "a", "b", "a", "b", "a", "b"]
    assert len(a.samples) == 3 and len(b.samples) == 3


def test_timer_rejects_bad_configuration():
    with pytest.raises(ValueError):
        BenchTimer(repeats=0)
    with pytest.raises(ValueError):
        BenchTimer(trim_fraction=1.0)
    with pytest.raises(ValueError):
        BenchTimer(warmup=-1)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_registry_round_trip():
    name = "test.registry.roundtrip"
    try:
        register_workload(name, lambda: (lambda: 42, {"kind": "probe"}),
                          suites=("test-suite",), repeats=3)
        assert name in WORKLOAD_REGISTRY
        suite = workloads_for_suite("test-suite")
        assert [w.name for w in suite] == [name]
        fn, metadata = suite[0].build()
        assert fn() == 42
        assert metadata == {"kind": "probe"}
        with pytest.raises(ValueError):
            register_workload(name, lambda: (lambda: 0))
    finally:
        unregister_workload(name)
    assert name not in WORKLOAD_REGISTRY


def test_registry_pair_validation():
    with pytest.raises(ValueError):
        register_workload("test.badpair", lambda: (lambda: 0), pair="p")
    with pytest.raises(ValueError):
        register_workload("test.badarm", lambda: (lambda: 0), pair="p",
                          arm="sideways")
    with pytest.raises(ValueError):
        register_workload("test.badfloor", lambda: (lambda: 0),
                          min_speedup=1.2)
    assert "test.badfloor" not in WORKLOAD_REGISTRY


def test_qforward_pairs_declare_their_speedup_floors():
    import repro.bench.workloads  # noqa: F401  (registers the built-ins)

    floors = {workload.pair: workload.min_speedup
              for workload in workloads_for_suite("ci")
              if workload.min_speedup is not None}
    assert floors == {"qforward.int8": 1.3, "qforward.int4": 1.2,
                      "qforward.fp4": 1.2, "kernel.int8_gemv": 1.0}


def test_ci_suite_matches_committed_baseline():
    """Every ``ci`` workload has a baseline entry and vice versa.

    The comparison labels a renamed or deleted workload ``new``/``missing``
    without failing, so a drift here would otherwise go unnoticed.
    """
    import repro.bench.workloads  # noqa: F401  (registers the built-ins)

    baseline = json.loads(
        (REPO_ROOT / "benchmarks" / "baselines" / "bench_baseline.json")
        .read_text())
    suite = {workload.name for workload in workloads_for_suite("ci")}
    assert suite == set(baseline["workloads"])


# ----------------------------------------------------------------------
# baseline comparison verdicts
# ----------------------------------------------------------------------
def _report_with(medians, calibration=1.0):
    workloads = {name: {"median_s": value} for name, value in medians.items()}
    workloads[CALIBRATION_WORKLOAD] = {"median_s": calibration}
    return {"workloads": workloads}


def test_comparison_verdicts_pass_regress_and_new():
    baseline = _report_with({"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0, "gone": 1.0})
    current = _report_with({"a": 1.0, "b": 2.0, "c": 0.5, "d": 1.1,
                            "fresh": 3.0})
    comparison = compare_reports(current, baseline, threshold=0.25)
    verdicts = comparison["verdicts"]
    assert verdicts["a"]["verdict"] == VERDICT_PASS
    assert verdicts["b"]["verdict"] == VERDICT_REGRESSION
    assert verdicts["c"]["verdict"] == VERDICT_IMPROVED
    assert verdicts["d"]["verdict"] == VERDICT_PASS
    assert verdicts["fresh"]["verdict"] == VERDICT_NEW
    assert verdicts["gone"]["verdict"] == VERDICT_MISSING
    assert comparison["status"] == "regression"
    assert comparison["regressions"] == ["b"]


def test_comparison_normalizes_uniform_machine_slowdown():
    baseline = _report_with({"a": 1.0, "b": 2.0, "c": 3.0}, calibration=1.0)
    # the whole machine is 2x slower; nothing actually regressed
    current = _report_with({"a": 2.0, "b": 4.0, "c": 6.0}, calibration=2.0)
    comparison = compare_reports(current, baseline, threshold=0.25)
    assert comparison["status"] == "pass"
    assert comparison["machine_scale"] == pytest.approx(2.0)
    # a real regression still stands out against the pack
    current["workloads"]["b"]["median_s"] = 8.0
    comparison = compare_reports(current, baseline, threshold=0.25)
    assert comparison["verdicts"]["b"]["verdict"] == VERDICT_REGRESSION


def test_comparison_without_baseline_or_threshold_validation():
    current = _report_with({"a": 1.0})
    assert compare_reports(current, None)["status"] == "no-baseline"
    with pytest.raises(ValueError):
        compare_reports(current, current, threshold=-0.1)


# ----------------------------------------------------------------------
# report schema
# ----------------------------------------------------------------------
def _tiny_results():
    fast = Measurement(name="pairdemo.fast", samples=[1.0, 1.0], warmup=1)
    pre = Measurement(name="pairdemo.pre", samples=[3.0, 3.0], warmup=1)
    plain = Measurement(name="plain", samples=[2.0], warmup=0,
                        metadata={"plan_fingerprint": "abc123"})
    return [
        (Workload(name="pairdemo.pre", setup=None, suites=("t",),
                  pair="pairdemo", arm="pre"), pre),
        (Workload(name="pairdemo.fast", setup=None, suites=("t",),
                  pair="pairdemo", arm="fast"), fast),
        (Workload(name="plain", setup=None, suites=("t",)), plain),
    ]


def test_fingerprint_records_the_blas_thread_count():
    script = ("import json; from repro.bench import environment_fingerprint; "
              "env = environment_fingerprint(); "
              "print(json.dumps([env['thread_env'], env['openblas_threads']]))")
    environ = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"),
                   OPENBLAS_NUM_THREADS="1")
    result = subprocess.run([sys.executable, "-c", script], env=environ,
                            capture_output=True, text=True, check=True)
    thread_env, openblas = json.loads(result.stdout)
    assert thread_env["OPENBLAS_NUM_THREADS"] == "1"
    assert set(thread_env) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                               "MKL_NUM_THREADS"}
    if openblas_threads() == "unknown":
        pytest.skip("numpy's BLAS here is not an OpenBLAS this host can read")
    assert openblas == 1


def test_bench_report_schema(tmp_path):
    report = build_report("t", _tiny_results())
    # top-level contract of every BENCH_<suite>.json
    assert set(report) >= {"schema_version", "suite", "environment",
                           "workloads", "speedups", "comparison"}
    assert report["suite"] == "t"
    env = report["environment"]
    assert set(env) >= {"python", "numpy", "platform", "machine",
                        "cpu_count", "fingerprint"}
    for entry in report["workloads"].values():
        assert set(entry) >= {"median_s", "p95_s", "mean_s", "min_s",
                              "repeats", "warmup", "trimmed", "samples_s",
                              "metadata", "suites", "pair", "arm"}
    # per-workload metadata (e.g. plan fingerprints) survives into the report
    assert report["workloads"]["plain"]["metadata"]["plan_fingerprint"] == "abc123"
    # the pre/fast pair produced a speedup entry
    assert report["speedups"]["pairdemo"]["speedup"] == pytest.approx(3.0)

    # JSON round-trip through disk
    path = write_report(report, tmp_path / "BENCH_t.json")
    assert load_report(path) == report

    # markdown rendering mentions every workload and the speedup pair
    summary = markdown_summary(report)
    assert "pairdemo" in summary and "plain" in summary
    assert "3.00x" in summary


def _pair_results(speedup: float, min_speedup: float):
    """Synthetic measurements of one pre/fast pair at ``speedup``."""
    pre = Measurement(name="floor.pre", samples=[speedup] * 3, warmup=0)
    fast = Measurement(name="floor.fast", samples=[1.0] * 3, warmup=0)
    return [
        (Workload(name="floor.pre", setup=None, suites=("t",),
                  pair="floor", arm="pre"), pre),
        (Workload(name="floor.fast", setup=None, suites=("t",),
                  pair="floor", arm="fast", min_speedup=min_speedup), fast),
    ]


@pytest.mark.parametrize("speedup, status", [(1.1, "regression"),
                                             (1.3, "pass")])
def test_speedup_below_its_floor_fails_whatever_the_baseline(speedup,
                                                             status):
    results = _pair_results(speedup, min_speedup=1.3)
    report = build_report("t", results)
    assert report["speedups"]["floor"]["min_speedup"] == 1.3
    assert report["speedups"]["floor"]["speedup"] == pytest.approx(speedup)
    # Against itself as baseline every median passes; the floor still
    # decides, and without a baseline too.
    against_self = build_report("t", results, baseline=report)
    slow = ["floor"] if status == "regression" else []
    assert against_self["comparison"]["status"] == status
    assert against_self["comparison"]["slow_pairs"] == slow
    assert against_self["comparison"]["regressions"] == []
    alone = build_report("t", results)["comparison"]
    assert alone["slow_pairs"] == slow
    assert alone["status"] == ("regression" if slow else "no-baseline")
    assert ("below" in markdown_summary(against_self)) == bool(slow)


def test_report_comparison_against_self_passes(tmp_path):
    report = build_report("t", _tiny_results())
    again = build_report("t", _tiny_results(), baseline=report)
    assert again["comparison"]["status"] == "pass"
    assert all(v["verdict"] == VERDICT_PASS
               for v in again["comparison"]["verdicts"].values())


# ----------------------------------------------------------------------
# inference_mode semantics + bit-identical generation
# ----------------------------------------------------------------------
def test_inference_mode_is_strict():
    assert not is_inference_mode()
    with inference_mode():
        assert is_inference_mode()
        assert not is_grad_enabled()
        # tensors cannot opt into gradients inside the block
        t = Tensor(np.ones(3), requires_grad=True)
        assert not t.requires_grad
        out = t * 2.0
        assert out._backward is None and out._parents == ()
        with pytest.raises(RuntimeError):
            out.backward()
    assert not is_inference_mode()
    assert is_grad_enabled()


def test_packed_quantized_layers_survive_pickling_intact():
    """Unpickled packed layers keep their parameter surface and weights."""
    import pickle

    from repro.core import QuantizationConfig, quantize_pipeline

    spec = make_tiny_spec()
    model = DiffusionModel(spec, rng=np.random.default_rng(5))
    pipeline = DiffusionPipeline(model, num_steps=4)
    quantized, _report = quantize_pipeline(pipeline, QuantizationConfig(
        weight_dtype="int8", activation_dtype="int8").scaled_for_speed())
    unet = quantized.model.unet
    restored = pickle.loads(pickle.dumps(unet))
    # module traversal sees every parameter without needing a forward
    assert restored.num_parameters() == unet.num_parameters()
    assert set(restored.state_dict()) == set(unet.state_dict())
    for name, param in unet.named_parameters():
        match = dict(restored.named_parameters())[name]
        assert np.array_equal(param.data, match.data), name


def test_packed_layer_drops_stale_levels_on_state_dict_load():
    """Loading different weights invalidates the packed storage, so a
    subsequent pickle round-trip keeps the loaded weights."""
    import pickle

    from repro import nn
    from repro.core.qmodules import IntTensorQuantizer, QuantizedLinear
    from repro.core.integer import calibrate_int_format

    rng = np.random.default_rng(0)
    layer = nn.Linear(6, 4)
    weights = layer.weight.data
    quantizer = IntTensorQuantizer(calibrate_int_format(weights, 8))
    wrapped = QuantizedLinear(layer, quantizer.quantize(weights), quantizer,
                              packed_weight=quantizer.pack_weights(weights))
    new_weights = rng.standard_normal(weights.shape).astype(np.float32)
    wrapped.load_state_dict({"weight": new_weights})
    assert wrapped.packed_weight is None
    restored = pickle.loads(pickle.dumps(wrapped))
    assert np.array_equal(restored.weight.data, new_weights)


def test_inference_mode_outputs_bit_identical_to_grad_path():
    spec = make_tiny_spec()
    model = DiffusionModel(spec, rng=np.random.default_rng(5))
    x = np.random.default_rng(1).standard_normal((2, 3, 16, 16)).astype(np.float32)
    t_batch = np.full((2,), 3, dtype=np.int64)
    grad_out = model(Tensor(x), t_batch).data
    with inference_mode():
        fast_out = model(Tensor(x), t_batch).data
    assert np.array_equal(grad_out, fast_out)


def _reference_ddim_step(x, eps, alpha_bar, alpha_bar_prev):
    x0_pred = (x - np.sqrt(1.0 - alpha_bar) * eps) / np.sqrt(alpha_bar)
    direction = np.sqrt(max(1.0 - alpha_bar_prev, 0.0)) * eps
    return (np.sqrt(alpha_bar_prev) * x0_pred + direction).astype(np.float32)


def _reference_sampler_loop(plan: GenerationPlan, model, schedule, noise):
    """Reference trajectory: grad-enabled forwards, fresh arrays per step."""
    shape = noise.shape
    x = noise.copy()
    rng = np.random.default_rng(1)
    if plan.sampler == "ddpm":
        for t in reversed(range(schedule.num_timesteps)):
            t_batch = np.full((shape[0],), t, dtype=np.int64)
            eps = model(Tensor(x), t_batch, context=None).data
            alpha = schedule.alphas[t]
            alpha_bar = schedule.alphas_bar[t]
            beta = schedule.betas[t]
            mean = (x - beta / np.sqrt(1.0 - alpha_bar) * eps) / np.sqrt(alpha)
            if t > 0:
                step_noise = rng.standard_normal(shape).astype(np.float32)
                x = mean + np.sqrt(beta) * step_noise
            else:
                x = mean
            x = x.astype(np.float32)
        return x
    sampler = plan.build_sampler(schedule, plan.num_steps)
    timesteps = sampler.timesteps
    for index, t in enumerate(timesteps):
        t_batch = np.full((shape[0],), t, dtype=np.int64)
        eps = model(Tensor(x), t_batch, context=None).data
        alpha_bar = schedule.alphas_bar[t]
        prev_t = timesteps[index + 1] if index + 1 < len(timesteps) else -1
        if plan.sampler == "dpm2" and prev_t >= 0:
            alpha_bar_prev = schedule.alphas_bar[prev_t]
            midpoint = _reference_ddim_step(x, eps, alpha_bar, alpha_bar_prev)
            prev_batch = np.full((shape[0],), prev_t, dtype=np.int64)
            eps_prev = model(Tensor(midpoint), prev_batch, context=None).data
            eps = (0.5 * (eps + eps_prev)).astype(np.float32)
            x = _reference_ddim_step(x, eps, alpha_bar, alpha_bar_prev)
        else:
            alpha_bar_prev = schedule.alphas_bar[prev_t] if prev_t >= 0 else 1.0
            x = _reference_ddim_step(x, eps, alpha_bar, alpha_bar_prev)
    return x


@pytest.mark.parametrize("plan", [
    GenerationPlan(sampler="ddim", num_steps=4),
    GenerationPlan(sampler="ddpm"),
    GenerationPlan(sampler="dpm2", num_steps=4),
])
def test_sampler_trajectories_bit_identical_to_grad_path(plan):
    """The shipped samplers (inference_mode + buffer reuse) match a
    grad-enabled, allocation-per-step replay of the same trajectory."""
    spec = make_tiny_spec()
    model = DiffusionModel(spec, rng=np.random.default_rng(5))
    pipeline = DiffusionPipeline(model, num_steps=4)
    noise = pipeline.initial_noise(2, seed=11)
    sampler = plan.build_sampler(pipeline.schedule, pipeline.num_steps)
    fast = sampler.sample(model, noise.shape, np.random.default_rng(1),
                          initial_noise=noise.copy())
    reference = _reference_sampler_loop(plan, model, pipeline.schedule, noise)
    assert np.array_equal(fast, reference)


@pytest.mark.parametrize("plan", [
    GenerationPlan(sampler="ddim", num_steps=4),
    GenerationPlan(sampler="ddpm"),
    GenerationPlan(sampler="dpm2", num_steps=4),
])
def test_generation_bit_identical_across_repeat_runs(plan):
    """The buffered inference samplers are deterministic run-to-run."""
    spec = make_tiny_spec()
    model = DiffusionModel(spec, rng=np.random.default_rng(5))
    pipeline = DiffusionPipeline(model, num_steps=4)
    first = pipeline.generate(2, seed=11, batch_size=2, plan=plan)
    second = pipeline.generate(2, seed=11, batch_size=2, plan=plan)
    assert np.array_equal(first, second)
