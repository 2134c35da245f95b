"""The built-in benchmark workloads.

Workloads are registered at import time and built lazily: every setup
function constructs its models/arrays on first use (outside the timed
region) and returns the callable the timer samples.

Coverage matches what the serving stack actually executes:

* ``tensor.*`` / ``kernel.*`` — micro benchmarks of the autograd engine's
  hot primitives (elementwise chains, matmul, im2col convolution,
  attention), each measured on the graph-building path and the
  inference fast path.
* ``quant.<scheme>.*`` — quantize (and packed dequantize) throughput per
  registered quantization scheme; ``quant.fp4.learn_rounding`` times the
  paper's rounding learning (Sec. V-B) on the FP4/FP8 row's commonest
  Linear and Conv2d shapes.
* ``sampler_loop.<plan>`` — one full sampler trajectory per registered
  solver on the shipped path (``inference_mode`` + buffer reuse).
  Workload metadata carries the :class:`~repro.diffusion.GenerationPlan`
  fingerprint, so bench rows and experiment-store generate stages describing
  the same trajectory share an identity.
* ``qforward.<scheme>`` — one U-Net forward at serving precision, paired
  against full precision: the *pre* arm runs the FP32 model, the *fast*
  arm runs the quantized model with packed weights on the accelerated
  backend, where the deep layers run on the integer GEMM kernels.
  ``int8`` and ``int4`` weights take INT8 activations, ``fp4`` weights
  the paper's FP8 activations (no rounding learning).  Each pair declares
  the smallest speedup it must show (``min_speedup``).  Metadata carries
  the :class:`~repro.core.QuantizationConfig` fingerprint and the MAC
  count of one forward.
* ``kernel.int8_gemv`` — one single-row INT8/INT8 linear layer at the
  smallest weight the accelerated backend's gates admit: the *pre* arm
  takes the path a declined product takes, the *fast* arm the layer's call
  plan on the integer kernel.  Its ``min_speedup`` of 1 fails a run in
  which that smallest admitted single-row product is slower than the
  declined path.
* ``serving.throughput`` — end-to-end dynamic-batched serving of a small
  deterministic workload through the real engine.
* ``cluster.sim`` — one fleet-simulator run on the virtual clock.
* ``telemetry.overhead`` — a sampler trajectory with tracing on (*pre*)
  against the same trajectory with tracing off (*fast*).
* ``calibration.reference`` — a fixed numpy matmul loop used to normalize
  medians across machines when comparing against a committed baseline.

Both arms of every pair (``kernel.conv2d``, ``kernel.int8_gemv``,
``qforward.<scheme>``, ``telemetry.overhead``) are verified at setup time,
so a reported speedup can never come from computing less: arms that
compute the same thing must be bit-identical, and the ``kernel.int8_gemv``
and ``qforward`` pairs — whose arms legitimately differ by the integer
kernels' rounding — are checked against the reference backend within the
accelerated kernels' documented tolerance instead.
"""

from __future__ import annotations

import copy
from functools import lru_cache

import numpy as np

from ..core import QuantizationConfig, quantize_pipeline
from ..core.qmodules import PackedIntWeight
from ..diffusion import DiffusionPipeline, GenerationPlan
from ..models import DiffusionModel, ModelSpec, UNetConfig
from ..tensor import Tensor, count_macs, inference_mode, use_backend
from ..tensor import functional as F
from .registry import FAST_ARM, PRE_ARM, register_workload

#: Suite membership: ``ci`` is the gate suite the perf-regression job runs
#: (currently every built-in workload — micro and macro are its slices for
#: targeted local runs; all of it finishes in seconds at bench scale).
_MICRO = ("ci", "micro", "full")
_MACRO = ("ci", "macro", "full")


# ----------------------------------------------------------------------
# shared fixtures (built once per process, outside the timed region)
# ----------------------------------------------------------------------
def _bench_spec(name: str = "bench-tiny", task: str = "unconditional") -> ModelSpec:
    """The bench model: deliberately small so fixed per-op overhead (graph
    construction, allocations) is a visible fraction of a forward — that
    overhead is exactly what the inference fast path removes."""
    context = 16 if task == "text-to-image" else None
    return ModelSpec(
        name=name, task=task, image_size=8, image_channels=3,
        latent=False, latent_channels=4, latent_downsample=4,
        unet=UNetConfig(
            in_channels=3, out_channels=3, base_channels=8,
            channel_multipliers=(1, 2), num_res_blocks=1,
            attention_levels=(1,), num_heads=2, context_dim=context),
        text_embed_dim=context, train_timesteps=8, default_sampling_steps=4,
        seed=3)


@lru_cache(maxsize=None)
def _bench_model() -> DiffusionModel:
    return DiffusionModel(_bench_spec(), rng=np.random.default_rng(17))


@lru_cache(maxsize=None)
def _bench_pipeline() -> DiffusionPipeline:
    return DiffusionPipeline(_bench_model(), num_steps=4)


def _quantization_config(scheme: str) -> QuantizationConfig:
    """``scheme`` weights with INT8 activations, or with the paper's FP8
    activations for FP weights (no rounding learning)."""
    activations = "fp8" if scheme.startswith("fp") else "int8"
    return QuantizationConfig(weight_dtype=scheme,
                              activation_dtype=activations,
                              rounding_learning=False).scaled_for_speed()


def _weight_array(size: int = 16384) -> np.ndarray:
    # Sized so the float64 temporaries of a quantize pass stay cache
    # resident: keeps the workload compute-bound instead of riding the
    # machine's (noisy, co-tenant-dependent) memory bandwidth.
    rng = np.random.default_rng(9)
    return (rng.standard_normal(size).astype(np.float32) * 0.05).reshape(64, -1)


# ----------------------------------------------------------------------
# calibration reference (machine-speed normalization anchor)
# ----------------------------------------------------------------------
def _setup_calibration():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((256, 256)).astype(np.float32)
    b = rng.standard_normal((256, 256)).astype(np.float32)

    def run():
        out = a
        for _ in range(8):
            out = out @ b
        return out

    return run, {"role": "calibration"}


register_workload("calibration.reference", _setup_calibration,
                  suites=("ci", "micro", "macro", "full"), repeats=9)


# ----------------------------------------------------------------------
# tensor-op micro benchmarks
# ----------------------------------------------------------------------
def _setup_tensor_elementwise():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((8, 64, 64)).astype(np.float32))

    def run():
        with inference_mode():
            for _ in range(12):
                out = x * 2.0 + 1.0
                out = out.silu()
                out = (out - 0.5) * out.sigmoid()
                out = out.sum()
            return out

    return run


def _setup_tensor_matmul():
    rng = np.random.default_rng(1)
    a = Tensor(rng.standard_normal((16, 96, 96)).astype(np.float32))
    b = Tensor(rng.standard_normal((16, 96, 96)).astype(np.float32))

    def run():
        with inference_mode():
            for _ in range(6):
                out = a.matmul(b)
            return out

    return run


def _setup_tensor_softmax():
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((32, 128, 128)).astype(np.float32))

    def run():
        with inference_mode():
            return x.softmax(axis=-1)

    return run


register_workload("tensor.elementwise", _setup_tensor_elementwise, suites=_MICRO)
register_workload("tensor.matmul", _setup_tensor_matmul, suites=_MICRO)
register_workload("tensor.softmax", _setup_tensor_softmax, suites=_MICRO)


# ----------------------------------------------------------------------
# kernel benchmarks: conv and attention, graph path vs inference path
# ----------------------------------------------------------------------
def _conv_fixture():
    # U-Net-block-sized conv: small enough that the im2col/pad allocations
    # and graph bookkeeping are a visible fraction of the BLAS time.
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 8, 16, 16)).astype(np.float32)
    weight = rng.standard_normal((16, 8, 3, 3)).astype(np.float32)
    bias = rng.standard_normal((16,)).astype(np.float32)
    return x, weight, bias


def _setup_conv_grad():
    x, weight, bias = _conv_fixture()
    weight_t = Tensor(weight, requires_grad=True)
    bias_t = Tensor(bias, requires_grad=True)

    def run():
        for _ in range(8):
            out = F.conv2d(Tensor(x), weight_t, bias_t, stride=1, padding=1)
        return out

    return run


def _setup_conv_inference():
    x, weight, bias = _conv_fixture()
    weight_t = Tensor(weight)
    bias_t = Tensor(bias)

    def run():
        with inference_mode():
            for _ in range(8):
                out = F.conv2d(Tensor(x), weight_t, bias_t, stride=1, padding=1)
            return out

    return run


def _setup_attention():
    rng = np.random.default_rng(5)
    q = Tensor(rng.standard_normal((8, 64, 32)).astype(np.float32))
    k = Tensor(rng.standard_normal((8, 64, 32)).astype(np.float32))
    v = Tensor(rng.standard_normal((8, 64, 32)).astype(np.float32))

    def run():
        with inference_mode():
            for _ in range(8):
                out = F.scaled_dot_product_attention(q, k, v)
            return out

    return run


register_workload("kernel.conv2d.pre", _setup_conv_grad, suites=_MICRO,
                  pair="kernel.conv2d", arm=PRE_ARM)
register_workload("kernel.conv2d.fast", _setup_conv_inference, suites=_MICRO,
                  pair="kernel.conv2d", arm=FAST_ARM)
register_workload("kernel.attention", _setup_attention, suites=_MICRO)


# ----------------------------------------------------------------------
# quantize / dequantize per scheme
# ----------------------------------------------------------------------
def _setup_quantize(scheme_name: str):
    def setup():
        from ..core import get_scheme
        from ..core.quantizer import LayerQuantizationRecord
        from .. import nn

        values = _weight_array()
        layer = nn.Linear(values.shape[1], values.shape[0])
        layer.weight.data = values
        record = LayerQuantizationRecord(
            path="bench", layer_type="Linear", weight_format="FP32",
            activation_format="FP32", weight_mse=0.0)
        from ..core.calibration import CalibrationData
        _quantized, quantizer = get_scheme(scheme_name).quantize_weights(
            layer, _quantization_config("int8"), CalibrationData(), "bench",
            record)

        def run():
            for _ in range(24):
                out = quantizer.quantize(values)
            return out

        return run, {"scheme": scheme_name, "elements": int(values.size),
                     "iterations": 24}

    return setup


def _setup_dequantize(scheme_name: str, bits: int):
    def setup():
        from ..core.integer import calibrate_int_format

        values = _weight_array()
        packed = PackedIntWeight.pack(values, calibrate_int_format(values, bits))

        def run():
            for _ in range(80):
                packed.drop_dequantized()
                out = packed.dequantize()
            return out

        return run, {"scheme": scheme_name, "elements": int(values.size),
                     "packed_bytes": packed.nbytes, "iterations": 80}

    return setup


for _scheme in ("fp8", "fp4", "int8", "int4", "int8_pc", "fp4_block"):
    register_workload(f"quant.{_scheme}.quantize", _setup_quantize(_scheme),
                      suites=_MICRO, repeats=9)
for _scheme, _bits in (("int8", 8), ("int4", 4)):
    register_workload(f"quant.{_scheme}.dequantize",
                      _setup_dequantize(_scheme, _bits), suites=_MICRO,
                      repeats=9)


def _setup_learn_rounding():
    """One rounding learning per layer at the paper-table budget (40
    iterations x 4 of 6 calibration records), on a Linear(32, 32) fed
    ``(4, 16, 32)`` token records and a 3x3 Conv2d(32, 32) fed
    ``(4, 32, 4, 4)`` records, each with its Algorithm 1 FP4 format."""
    from .. import nn
    from ..core import RoundingLearningConfig, learn_rounding, search_tensor_format

    rng = np.random.default_rng(0)
    cases = []
    for layer, shape in ((nn.Linear(32, 32, rng=rng), (4, 16, 32)),
                         (nn.Conv2d(32, 32, 3, padding=1, rng=rng), (4, 32, 4, 4))):
        fmt = search_tensor_format(layer.weight.data, 4).fmt
        samples = [rng.standard_normal(shape).astype(np.float32) for _ in range(6)]
        cases.append((layer, fmt, samples))
    config = RoundingLearningConfig(iterations=40, samples_per_iteration=4)

    def run():
        return [learn_rounding(layer, fmt, samples, config)
                for layer, fmt, samples in cases]

    return run, {"layers": len(cases), "records": 6,
                 "iterations": config.iterations,
                 "samples_per_iteration": config.samples_per_iteration}


register_workload("quant.fp4.learn_rounding", _setup_learn_rounding,
                  suites=_MICRO, repeats=9)


# ----------------------------------------------------------------------
# sampler loops (shipped path: inference_mode + buffer reuse)
# ----------------------------------------------------------------------
_SAMPLER_PLANS = {
    "ddim": GenerationPlan(sampler="ddim", num_steps=4),
    "ddpm": GenerationPlan(sampler="ddpm"),
    "dpm2": GenerationPlan(sampler="dpm2", num_steps=4),
}
_SAMPLE_SHAPE = (1, 3, 8, 8)


def _setup_sampler(plan_name: str):
    def setup():
        plan = _SAMPLER_PLANS[plan_name]
        pipeline = _bench_pipeline()
        model = _bench_model()
        noise = pipeline.initial_noise(_SAMPLE_SHAPE[0], seed=11)

        def run():
            sampler = plan.build_sampler(pipeline.schedule, pipeline.num_steps)
            return sampler.sample(model, _SAMPLE_SHAPE,
                                  np.random.default_rng(1),
                                  initial_noise=noise.copy())

        return run, {"plan": plan.to_dict(),
                     "plan_fingerprint": plan.fingerprint()}

    return setup


for _name in _SAMPLER_PLANS:
    register_workload(f"sampler_loop.{_name}", _setup_sampler(_name),
                      suites=_MACRO, repeats=9)


# ----------------------------------------------------------------------
# quantized forward, pre (FP32 weights) vs fast (packed, integer kernels)
# ----------------------------------------------------------------------
def _qforward_spec() -> ModelSpec:
    """A bottom-heavy U-Net sized for the integer GEMM kernels.

    The integer path pays off most where a layer's float weight spills
    the last-level cache while its GEMM stays skinny: the deepest U-Net
    level, where channels are wide and the spatial grid is 2x2.
    ``channel_multipliers=(1, 2, 8)`` concentrates nearly all of the
    ~170 MB of weights at that level, so the pair measures the weight-
    traffic win instead of drowning it in shallow high-resolution layers
    that both arms execute identically.
    """
    return ModelSpec(
        name="bench-qheavy", task="unconditional", image_size=8,
        image_channels=3, latent=False, latent_channels=4,
        latent_downsample=4,
        unet=UNetConfig(in_channels=3, out_channels=3, base_channels=64,
                        channel_multipliers=(1, 2, 8), num_res_blocks=1,
                        attention_levels=(2,), num_heads=4,
                        context_dim=None),
        text_embed_dim=None, train_timesteps=8, default_sampling_steps=4,
        seed=3)


@lru_cache(maxsize=None)
def _qforward_pipeline() -> DiffusionPipeline:
    model = DiffusionModel(_qforward_spec(), rng=np.random.default_rng(17))
    return DiffusionPipeline(model, num_steps=4)


@lru_cache(maxsize=None)
def _qforward_quantized(scheme: str) -> DiffusionPipeline:
    quantized, _report = quantize_pipeline(_qforward_pipeline(),
                                           _quantization_config(scheme))
    return quantized


def _setup_qforward(scheme: str, arm: str):
    def setup():
        config = _quantization_config(scheme)
        pipeline = _qforward_pipeline()
        x = pipeline.initial_noise(1, seed=7)
        t_batch = np.full((1,), 3, dtype=np.int64)
        fp32_model = pipeline.model
        quantized_model = _qforward_quantized(scheme).model

        def run_pre():
            with inference_mode():
                return fp32_model(Tensor(x), t_batch).data

        def run_fast():
            with inference_mode(), use_backend("accelerated"):
                return quantized_model(Tensor(x), t_batch).data

        metadata = {"scheme": scheme,
                    "config_fingerprint": config.fingerprint()}
        # Verified in one arm's setup only; see _setup_sampler.  The two
        # arms legitimately differ (by quantization error), so the
        # bit-identity check the other pairs use does not apply; instead
        # the fast arm must match the same quantized model on the
        # reference backend within the fused kernels' documented
        # tolerance.  The verification forward also yields the pair's MAC
        # count for the report.
        if arm == FAST_ARM:
            with inference_mode():
                reference_out = quantized_model(Tensor(x), t_batch).data
            with count_macs() as mac_counter:
                accelerated_out = run_fast()
            if not np.all(np.isfinite(accelerated_out)):
                raise AssertionError(
                    f"qforward.{scheme} produced non-finite values on the "
                    f"accelerated backend")
            scale = max(float(np.max(np.abs(reference_out))), 1.0)
            if not np.allclose(accelerated_out, reference_out,
                               rtol=1e-3, atol=1e-3 * scale):
                raise AssertionError(
                    f"qforward.{scheme} diverged between the accelerated "
                    f"and reference backends beyond tolerance")
            metadata["macs"] = mac_counter.macs
        run = run_fast if arm == FAST_ARM else run_pre
        return run, metadata

    return setup


#: (weight scheme, smallest speedup over FP32 the pair must show).
_QFORWARD_FLOORS = (("int8", 1.3), ("int4", 1.2), ("fp4", 1.2))
for _scheme, _floor in _QFORWARD_FLOORS:
    register_workload(f"qforward.{_scheme}.pre", _setup_qforward(_scheme, PRE_ARM),
                      suites=_MACRO, pair=f"qforward.{_scheme}", arm=PRE_ARM,
                      repeats=9)
    register_workload(f"qforward.{_scheme}.fast",
                      _setup_qforward(_scheme, FAST_ARM),
                      suites=_MACRO, pair=f"qforward.{_scheme}", arm=FAST_ARM,
                      repeats=9, min_speedup=_floor)


# ----------------------------------------------------------------------
# the integer-kernel gates' edge: a GEMV, declined path vs call plan
# ----------------------------------------------------------------------
#: Products per sample; one product takes microseconds.
_GEMV_CALLS = 64
#: The layer's input width; the weight gate sets its output width.
_GEMV_DEPTH = 128


@lru_cache(maxsize=None)
def _gemv_fixture():
    """A single-row INT8/INT8 linear layer at the smallest weight the
    accelerated backend's gates admit, and its input."""
    from .. import nn
    from ..core.integer import calibrate_int_format
    from ..core.qmodules import IntTensorQuantizer, QuantizedLinear
    from ..tensor.backend import AcceleratedBackend

    rows = -(-AcceleratedBackend._FUSED_MIN_WEIGHT // _GEMV_DEPTH)
    rng = np.random.default_rng(29)
    layer = nn.Linear(_GEMV_DEPTH, rows, rng=rng)
    x = rng.standard_normal((1, _GEMV_DEPTH)).astype(np.float32)
    weights = IntTensorQuantizer(calibrate_int_format(layer.weight.data, 8))
    module = QuantizedLinear(
        layer, weights.quantize(layer.weight.data),
        IntTensorQuantizer(calibrate_int_format(x, 8)),
        packed_weight=weights.pack_weights(layer.weight.data))
    return module, x


def _setup_int8_gemv(arm: str):
    def setup():
        module, x = _gemv_fixture()
        # The pre arm is the path a declined product takes (fake-quantize,
        # then BLAS on the dequantized weight); the fast arm runs the plan.
        backend = "accelerated" if arm == FAST_ARM else "reference"

        def run():
            with inference_mode(), use_backend(backend):
                for _ in range(_GEMV_CALLS):
                    out = module(Tensor(x))
            return out

        metadata = {"shape": [1, module.out_features, module.in_features],
                    "calls": _GEMV_CALLS}
        if arm == FAST_ARM:
            with inference_mode(), use_backend("reference"):
                reference_out = module(Tensor(x)).data
            accelerated_out = run().data
            if not module.packed_weight.packed_view().plans:
                raise AssertionError("kernel.int8_gemv built no call plan")
            scale = max(float(np.max(np.abs(reference_out))), 1.0)
            if not np.allclose(accelerated_out, reference_out,
                               rtol=1e-3, atol=1e-3 * scale):
                raise AssertionError(
                    "kernel.int8_gemv diverged between the accelerated and "
                    "reference backends beyond tolerance")
        return run, metadata

    return setup


register_workload("kernel.int8_gemv.pre", _setup_int8_gemv(PRE_ARM),
                  suites=_MICRO, pair="kernel.int8_gemv", arm=PRE_ARM,
                  repeats=9)
register_workload("kernel.int8_gemv.fast", _setup_int8_gemv(FAST_ARM),
                  suites=_MICRO, pair="kernel.int8_gemv", arm=FAST_ARM,
                  repeats=9, min_speedup=1.0)


# ----------------------------------------------------------------------
# end-to-end serving throughput
# ----------------------------------------------------------------------
def _setup_serving():
    from ..serving import (
        EngineConfig,
        ModelVariantPool,
        ServingEngine,
        SLORouter,
        WorkloadConfig,
        generate_workload,
    )

    spec = _bench_spec(name="stable-diffusion", task="text-to-image")
    model = DiffusionModel(spec, rng=np.random.default_rng(23))
    pipeline = DiffusionPipeline(model, num_steps=4)
    requests = generate_workload(WorkloadConfig(
        num_requests=12, models=("stable-diffusion",), num_steps=4,
        prompt_pool_size=4, popularity_skew=1.2, slo_tiers=(None,), seed=77))

    def run():
        pool = ModelVariantPool(builder=lambda _model, _scheme: pipeline)
        engine = ServingEngine(pool, router=SLORouter(),
                               config=EngineConfig(max_batch_size=8))
        pool.prewarm([("stable-diffusion", "fp32")])
        responses = engine.serve([copy.copy(r) for r in requests])
        if len(responses) != len(requests):
            raise AssertionError("serving bench dropped requests")
        return responses

    return run, {"num_requests": len(requests), "num_steps": 4,
                 "max_batch_size": 8}


register_workload("serving.throughput", _setup_serving, suites=_MACRO,
                  repeats=5)


# ----------------------------------------------------------------------
# cluster simulator throughput (events/second of the discrete-event loop)
# ----------------------------------------------------------------------
def _setup_cluster_sim():
    from ..serving.cluster import (
        ClusterConfig,
        ClusterSimulation,
        TraceConfig,
        generate_trace,
    )

    trace = generate_trace(TraceConfig(num_requests=2000, seed=13))

    def run():
        report = ClusterSimulation(
            ClusterConfig(initial_replicas=3, policy="affinity")).run(trace)
        if report["requests"]["offered"] != 2000:
            raise AssertionError("cluster sim dropped arrivals")
        return report

    return run, {"num_requests": len(trace), "replicas": 3,
                 "policy": "affinity"}


register_workload("cluster.sim", _setup_cluster_sim, suites=_MACRO,
                  repeats=5)


# ----------------------------------------------------------------------
# telemetry overhead: traced sampler loop (pre) vs tracer disabled (fast)
# ----------------------------------------------------------------------
def _setup_telemetry(arm: str):
    def setup():
        from ..obs import Tracer

        plan = _SAMPLER_PLANS["ddim"]
        pipeline = _bench_pipeline()
        model = _bench_model()
        noise = pipeline.initial_noise(_SAMPLE_SHAPE[0], seed=11)
        schedule = pipeline.schedule
        tracer = Tracer()

        def run_traced():
            tracer.clear()
            sampler = plan.build_sampler(schedule, pipeline.num_steps)
            return sampler.sample(model, _SAMPLE_SHAPE,
                                  np.random.default_rng(1),
                                  initial_noise=noise.copy(),
                                  tracer=tracer,
                                  step_attrs={"workload": "telemetry"})

        def run_untraced():
            sampler = plan.build_sampler(schedule, pipeline.num_steps)
            return sampler.sample(model, _SAMPLE_SHAPE,
                                  np.random.default_rng(1),
                                  initial_noise=noise.copy())

        # Tracing must never change the trajectory; the pair exists to
        # price the per-step span bookkeeping, not a different answer.
        if arm == FAST_ARM and not np.array_equal(run_traced(),
                                                  run_untraced()):
            raise AssertionError("tracing changed the sampler trajectory")
        run = run_traced if arm == PRE_ARM else run_untraced
        return run, {"plan": plan.to_dict(), "traced": arm == PRE_ARM}

    return setup


register_workload("telemetry.overhead.pre", _setup_telemetry(PRE_ARM),
                  suites=_MACRO, pair="telemetry.overhead", arm=PRE_ARM,
                  repeats=9)
register_workload("telemetry.overhead.fast", _setup_telemetry(FAST_ARM),
                  suites=_MACRO, pair="telemetry.overhead", arm=FAST_ARM,
                  repeats=9)

