"""The four workloads: set-up, one op, output checks and layer facts.

Every input a workload feeds the program — table-row seeds, U-Net weights,
image seeds, prompts, request seeds, arrival times and the fleet trace — is
drawn from the ``--seed`` argument through :func:`derive_seed`, one stream
per kind of input.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import shutil
import statistics
import time
import traceback
import types
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import core, experiments, zoo
from repro.core.calibration import quantizable_layer_paths
from repro.data.prompts import sample_prompt_specs
from repro.diffusion import DiffusionPipeline, GenerationPlan
from repro.models import DiffusionModel, ModelSpec, UNetConfig, get_model_spec
from repro.serving import EngineConfig, ModelVariantPool, Request, ServingEngine
from repro.serving.cluster import (
    AutoscalerConfig,
    ClusterConfig,
    ClusterSimulation,
    TraceConfig,
    default_cluster_router,
    generate_trace,
)
from repro.serving.loadgen import slo_for_tier, zipf_weights
from repro.tensor import Tensor, count_macs, use_backend

from .hostspeed import Unprobed, probe_for
from .loadgen import poisson_arrivals, run_open_loop
from .stats import derive_seed, nearest_rank, summarize
from .tracing import Instrumentation

clock = time.perf_counter

# Input streams of derive_seed(seed, stream, index).
_ROW, _WEIGHTS, _CALIBRATION, _IMAGES, _WARMUP, _REQUESTS, _ARRIVALS, _TRACE = range(8)


@dataclass
class Dirs:
    """The benchmark's own cache and output directories, inside the checkout."""

    root: Path
    #: Hash of the sources that run; caches built by this code carry it.
    code: str = ""

    @property
    def zoo(self) -> Path:
        return self.root / "cache" / "zoo"

    @property
    def stores(self) -> Path:
        return self.root / "stores"

    @property
    def results(self) -> Path:
        return self.root / "results"


@dataclass
class OpRecord:
    """One measured op: its latency and whether its output checked out."""

    seconds: float
    ok: bool
    work: float = 1.0
    good: Optional[bool] = None  # counted in throughput; defaults to ok
    #: How much slower than the probe's reference the host ran around
    #: the op (hostspeed.py); 1.0 when the workload is not calibrated.
    slowdown: float = 1.0

    @property
    def counts(self) -> bool:
        return self.ok if self.good is None else self.good

    @property
    def scaled(self) -> float:
        """The op's seconds at the probe's reference speed."""
        return self.seconds / self.slowdown


@dataclass
class Window:
    """The ops of one measuring window.

    ``seconds`` is the time they took: the ops' own scaled time in a
    closed loop, first due time to last response in an open one.
    ``op_s`` is the window's ``op_s`` metric.
    """

    records: List[OpRecord]
    seconds: float
    op_s: float
    macs: List[int] = field(default_factory=list)


def pretrain_config():
    """The zoo checkpoint every experiment row of the paper tables uses."""
    return experiments.BenchSettings().pretrain


def closed_loop(op: Callable[[int], OpRecord], seconds: float,
                trace=None, probe=None) -> Window:
    """Run ``op(0), op(1), ...`` back to back (one client) for ``seconds``.

    Another op starts only while the typical op still ends inside the
    window, so a long op is never cut; the first op always runs.  With
    ``trace`` each op's spans carry its index and its MACs are counted.
    ``probe`` (hostspeed.py) measures the host's slowdown around each op.
    """
    records: List[OpRecord] = []
    macs: List[int] = []
    probe = probe or Unprobed()
    started = clock()
    index = 0
    while True:
        if trace is not None:
            trace.op = index
        try:
            with counting_macs(trace) as counter, probe.around() as reading:
                record = op(index)
        except Exception:
            traceback.print_exc()
            record = OpRecord(seconds=math.nan, ok=False)
        record.seconds -= reading.seconds
        record.slowdown = reading.slowdown
        records.append(record)
        if counter is not None:
            macs.append(counter.macs)
        index += 1
        elapsed = clock() - started
        durations = [r.seconds for r in records if not math.isnan(r.seconds)]
        typical = statistics.median(durations) if durations else elapsed
        if elapsed + typical > seconds:
            scaled = [r.scaled for r in records if not math.isnan(r.seconds)]
            succeeded = [r.scaled for r in records if r.ok]
            return Window(records, sum(scaled),
                          statistics.median(succeeded) if succeeded else math.nan,
                          macs)


def counting_macs(trace):
    """``count_macs()`` in a traced window; nothing in an untraced one."""
    if trace is None:
        return contextlib.nullcontext()
    return count_macs()


def reachable_array_bytes(root) -> int:
    """Bytes of the distinct ndarray buffers reachable from ``root``."""
    buffers: Dict[int, int] = {}
    seen = set()
    pending = [root]
    skip = (str, bytes, int, float, bool, type(None), type, types.ModuleType,
            types.FunctionType, types.BuiltinFunctionType, types.MethodType)
    while pending:
        obj = pending.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            buffers[id(obj)] = obj.nbytes
        elif isinstance(obj, dict):
            pending.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            pending.extend(obj)
        else:
            pending.extend(getattr(obj, "__dict__", {}).values())
            for cls in type(obj).__mro__:
                for slot in getattr(cls, "__slots__", ()):
                    pending.append(getattr(obj, slot, None))
    return sum(buffers.values())


class Workload:
    """Base class: one named set of inputs the benchmark runs."""

    name = ""
    backend = "reference"
    zoo_models: Tuple[str, ...] = ()
    needs_kernels = False
    #: What one op is, for the console and the result file.
    op_unit = "op"
    #: Host-speed probe parts (hostspeed.PARTS) its op times are scaled
    #: by; none leaves them as measured.
    calibration: Tuple[str, ...] = ()
    #: Probe every this many seconds during an op instead of between ops.
    probe_every: Optional[float] = None

    def __init__(self, seed: int, dirs: Dirs):
        self.seed = seed
        self.dirs = dirs

    def fill(self) -> None:
        """Compute, once per version of the code, artifacts every set-up
        then loads."""

    def setup(self) -> None:
        """Build everything the ops need; may be called more than once."""

    def measure(self, seconds: float, trace=None) -> Window:
        return closed_loop(self.op, seconds, trace,
                           probe_for(self.calibration, self.probe_every))

    def op(self, index: int) -> OpRecord:
        raise NotImplementedError

    def check(self) -> List[str]:
        """Output checks run after the window; returns failure messages."""
        return []

    def layer_facts(self) -> Dict[str, float]:
        """Per-layer numbers measured by the workload itself, not by spans."""
        return {}

    def details(self) -> Dict[str, object]:
        """Workload-specific results, printed and kept in the result file."""
        return {}


# ----------------------------------------------------------------------
# ptq: one cold paper-table row per op
# ----------------------------------------------------------------------
class PTQ(Workload):
    """The paper's method end to end: calibrate, search formats, learn
    rounding, generate, score — one cold table row per op."""

    name = "ptq"
    zoo_models = ("stable-diffusion",)
    op_unit = "table row"
    #: Search and rounding run small autograd graphs op by op, so the
    #: interpreter sets a row's speed.  One row fills the window, so the
    #: host is probed while it runs.
    calibration = ("interpreter",)
    probe_every = 0.5
    MODEL = "stable-diffusion"
    ROW = "FP4/FP8"
    REFERENCE = "full-precision generated"

    def __init__(self, seed, dirs):
        super().__init__(seed, dirs)
        self.store_mb: List[float] = []
        self.sfid: List[float] = []

    def setup(self) -> None:
        checkpoint = zoo.load_pretrained(self.MODEL, pretrain_config(),
                                         cache_dir=self.dirs.zoo, refresh=True)
        self.expected_layers = sorted(
            path for path, _ in quantizable_layer_paths(checkpoint.unet))

    def spec(self, index: int):
        """Op ``index``'s table row; its seed sets calibration, rounding
        and generation seeds."""
        settings = experiments.BenchSettings(
            num_images=16, num_steps=8,
            seed=derive_seed(self.seed, _ROW, index))
        return experiments.ExperimentSpec(
            model=self.MODEL, rows=[experiments.RowSpec(preset=self.ROW)],
            settings=settings, references=(self.REFERENCE,))

    def op(self, index: int) -> OpRecord:
        spec = self.spec(index)
        store_dir = self.dirs.stores / f"ptq-{index}"
        shutil.rmtree(store_dir, ignore_errors=True)
        started = clock()
        run = experiments.run_experiment(
            spec, store=experiments.RunStore(store_dir), max_workers=1,
            zoo_cache_dir=self.dirs.zoo)
        seconds = clock() - started
        self.store_mb.append(sum(path.stat().st_size
                                 for path in store_dir.rglob("*")
                                 if path.is_file()) / 1e6)
        shutil.rmtree(store_dir, ignore_errors=True)
        row = run.table.rows[0]
        sfid = row.metrics[self.REFERENCE].sfid
        self.sfid.append(sfid)
        replaced = sorted(record.path for record in row.report.layers)
        return OpRecord(seconds, replaced == self.expected_layers
                        and math.isfinite(sfid))

    def layer_facts(self) -> Dict[str, float]:
        if not self.sfid:
            return {}
        return {"experiments.store.write_mb": statistics.mean(self.store_mb),
                "experiments.evaluate.sfid_vs_fp32": self.sfid[0]}

    def details(self) -> Dict[str, object]:
        return {"sfid_vs_fp32": self.sfid[0]} if self.sfid else {}


# ----------------------------------------------------------------------
# generate: batch-1 images from a U-Net whose weights dwarf the L2 cache
# ----------------------------------------------------------------------
def qheavy_spec():
    """Bottom-heavy U-Net: ~167 MB of FP32 weights, most of them at a 2x2
    deepest level, so every deep product is GEMV-shaped at batch 1."""
    return ModelSpec(
        name="bench-qheavy", task="unconditional", image_size=8,
        image_channels=3, latent=False, latent_channels=4, latent_downsample=4,
        unet=UNetConfig(in_channels=3, out_channels=3, base_channels=64,
                        channel_multipliers=(1, 2, 8), num_res_blocks=1,
                        attention_levels=(2,), num_heads=4, context_dim=None),
        text_embed_dim=None, train_timesteps=8, default_sampling_steps=4,
        seed=3)


class Generate(Workload):
    """Four variants of one model in round robin, one batch-1 image each."""

    name = "generate"
    backend = "accelerated"
    needs_kernels = True
    op_unit = "round of four batch-1 images"
    #: Every step streams the weights from memory (167 MB in fp32), so
    #: memory bandwidth sets an image's speed.
    calibration = ("memory",)
    #: (variant, paper preset); fp32 is the unquantized pipeline.
    VARIANTS = (("fp32", None), ("fp4", "FP4/FP8 (no RL)"),
                ("int8", "INT8/INT8"), ("int4", "INT4/INT8"))
    INT_VARIANTS = ("int8", "int4")

    def __init__(self, seed, dirs):
        super().__init__(seed, dirs)
        self.variants: Dict = {}
        self.image_s: Dict[str, List[float]] = {name: [] for name, _ in self.VARIANTS}
        self.first_images: Dict[str, Tuple[int, np.ndarray]] = {}
        self.engaged: Dict[str, int] = {}

    @property
    def plan(self):
        return GenerationPlan(sampler="ddim", num_steps=4)

    def setup(self) -> None:
        self.variants = {}
        gc.collect()
        model = DiffusionModel(qheavy_spec(), rng=self.weights_rng())
        fp32 = DiffusionPipeline(model, num_steps=4)
        variants = {"fp32": fp32}
        for name, preset in self.VARIANTS[1:]:
            config = core.PAPER_CONFIGS[preset].scaled_for_speed()
            config = replace(config, calibration=replace(
                config.calibration, seed=derive_seed(self.seed, _CALIBRATION)))
            variants[name], _report = core.quantize_pipeline(fp32, config)
        # Warm-up image per variant: loads the kernels and sizes the
        # per-thread workspaces before anything is timed.
        warmup = derive_seed(self.seed, _WARMUP)
        with use_backend(self.backend):
            for pipeline in variants.values():
                pipeline.generate_batch([warmup], plan=self.plan)
        self.variants = variants

    def weights_rng(self) -> np.random.Generator:
        return np.random.default_rng(derive_seed(self.seed, _WEIGHTS))

    def image_seed(self, index: int) -> int:
        """Noise seed of round ``index``; all four variants share it, so
        they denoise identical inputs."""
        return derive_seed(self.seed, _IMAGES, index)

    def op(self, index: int) -> OpRecord:
        image_seed = self.image_seed(index)
        total, ok = 0.0, True
        for name, _ in self.VARIANTS:
            started = clock()
            with use_backend(self.backend):
                image = self.variants[name].generate_batch([image_seed],
                                                           plan=self.plan)
            elapsed = clock() - started
            total += elapsed
            self.image_s[name].append(elapsed)
            ok = ok and bool(np.all(np.isfinite(image)))
            self.first_images.setdefault(name, (image_seed, image))
        return OpRecord(total, ok, work=len(self.VARIANTS))

    def check(self) -> List[str]:
        failures = []
        for name, (image_seed, image) in self.first_images.items():
            with use_backend("reference"):
                reference = self.variants[name].generate_batch(
                    [image_seed], plan=self.plan)
            atol = 1e-3 * float(np.max(np.abs(reference)))
            if not np.allclose(image, reference, rtol=1e-3, atol=atol):
                failures.append(f"{name}: accelerated image differs from the "
                                f"reference backend beyond rtol=1e-3")
        for name in self.INT_VARIANTS:
            with Instrumentation() as probe, use_backend(self.backend):
                self.variants[name].generate_batch(
                    [derive_seed(self.seed, _WARMUP)], plan=self.plan)
            self.engaged[name] = sum(span["args"]["engaged"]
                                     for span in probe.spans()
                                     if span["name"] == "tensor.fused")
            if not self.engaged[name]:
                failures.append(f"{name}: the fused kernel never engaged")
        return failures

    def layer_facts(self) -> Dict[str, float]:
        return {f"core.variant_mb.{name}":
                reachable_array_bytes(pipeline.model) / 1e6
                for name, pipeline in self.variants.items()}

    def details(self) -> Dict[str, object]:
        values: Dict[str, object] = {f"image_s.{name}": summarize(times)
                                     for name, times in self.image_s.items()}
        values["fused_products_per_image"] = dict(self.engaged)
        return values


# ----------------------------------------------------------------------
# serve: open-loop Poisson traffic through one ServingEngine
# ----------------------------------------------------------------------
class Serve(Workload):
    """Requests arrive on a Poisson schedule and queue, batch and route
    through one engine over six prewarmed variants."""

    name = "serve"
    zoo_models = ("stable-diffusion", "sdxl")
    op_unit = "request (due time to response)"
    #: Small batched forwards with Python around every layer.  Requests
    #: overlap, so the host is probed on a timer through the window and
    #: every request shares the window's slowdown.
    calibration = ("interpreter", "memory")
    probe_every = 0.5
    MODELS = ("stable-diffusion", "sdxl")
    SCHEMES = ("fp32", "fp8", "fp4")
    TIERS = ("loose", "medium", "tight", None)
    STEPS = 2
    RATE = 5.0                # requests per second
    LIMIT_S = 1.0             # goodput latency limit
    PROMPT_POOL = 64
    PROMPT_SKEW = 1.1
    #: Every CHECK_EVERY-th request is regenerated standalone and compared.
    CHECK_EVERY = 16

    def __init__(self, seed, dirs):
        super().__init__(seed, dirs)
        self.outcomes: List = []
        self.requests: List = []
        self.facts: Dict[str, float] = {}
        self.compared = {"bit-exact": 0, "round-off": 0}
        self.windows = 0

    @staticmethod
    def quantization(scheme: str):
        return core.QuantizationConfig(
            weight_dtype=scheme, activation_dtype=scheme).scaled_for_speed()

    def pool(self):
        """A variant pool that loads the quantized variants from the
        benchmark's run store, as a restarted server process would."""
        store = experiments.RunStore(self.dirs.stores / f"serve-{self.dirs.code}")
        return ModelVariantPool(pretrain=pretrain_config(),
                                cache_dir=self.dirs.zoo,
                                quantization=self.quantization, run_store=store)

    def variants(self) -> List[Tuple[str, str]]:
        return [(model, scheme) for model in self.MODELS
                for scheme in self.SCHEMES]

    def fill(self) -> None:
        self.pool().prewarm(self.variants())

    def setup(self) -> None:
        pool = self.pool()
        pool.prewarm(self.variants())
        # The paper-scale router prices the three schemes ~3x apart, so the
        # SLO tiers really split traffic across schemes and step budgets.
        self.router = default_cluster_router()
        self.engine = ServingEngine(
            pool, router=self.router,
            config=EngineConfig(max_batch_size=8, max_wait=0.02))

    def traffic(self, seconds: float, window: int):
        """(requests, due offsets) of one window, drawn from the seed.

        Model, SLO tier and plan are dealt from a balanced, shuffled deck
        so every run offers the same mix; prompts are Zipf-popular draws
        from a seed-drawn pool.  Guided requests cost twice the
        evaluations, so under the tight tier the router must also cut their
        step budget.
        """
        rng = np.random.default_rng(derive_seed(self.seed, _REQUESTS, window))
        offsets = poisson_arrivals(self.RATE, seconds, np.random.default_rng(
            derive_seed(self.seed, _ARRIVALS, window)))
        count = len(offsets)
        plans = (None, GenerationPlan(sampler="ddim", guidance_scale=3.0))
        deck = [(model, tier, plan) for model in self.MODELS
                for tier in self.TIERS for plan in plans]
        dealt = [deck[i] for i in rng.permutation(
            np.arange(count) % len(deck))]
        pool = [spec.to_text() for spec in sample_prompt_specs(
            self.PROMPT_POOL, seed=int(rng.integers(2 ** 31)))]
        prompts = rng.choice(len(pool), size=count,
                             p=zipf_weights(len(pool), self.PROMPT_SKEW))
        requests = [
            Request(model=model, prompt=pool[int(prompt)],
                    num_steps=self.STEPS,
                    latency_slo=slo_for_tier(self.router, model, self.STEPS,
                                             tier),
                    plan=plan, seed=int(rng.integers(2 ** 31)), tier=tier)
            for (model, tier, plan), prompt in zip(dealt, prompts)]
        return requests, offsets

    def measure(self, seconds: float, trace=None) -> Window:
        requests, offsets = self.traffic(seconds, self.windows)
        self.windows += 1
        pool, cache = self.engine.pool, self.engine.embedding_cache
        pool_before, cache_before = pool.stats(), cache.stats()
        if trace is not None:
            trace.op = 0
        probe = probe_for(self.calibration, self.probe_every)
        started = clock()
        with counting_macs(trace) as counter, probe.around() as reading:
            outcomes = run_open_loop(self.engine, requests, offsets)
        finished = max([o.finished for o in outcomes if o.finished] or [clock()])
        pool_after, cache_after = pool.stats(), cache.stats()
        records = []
        for outcome in outcomes:
            latency = outcome.latency
            ok = latency is not None and self._output_ok(outcome.response)
            records.append(OpRecord(
                seconds=latency if latency is not None else math.nan, ok=ok,
                good=ok and latency <= self.LIMIT_S, slowdown=reading.slowdown))
        self.requests, self.outcomes = requests, outcomes
        lookups = ((cache_after["hits"] - cache_before["hits"])
                   + (cache_after["misses"] - cache_before["misses"]))
        latenesses = [o.lateness for o in outcomes if o.lateness is not None]
        count = len(outcomes)
        self.facts = {
            "serving.pool.hits": (pool_after["hits"] - pool_before["hits"]) / count,
            "serving.pool.builds": pool_after["builds"] - pool_before["builds"],
            "serving.embedding_cache.hit_share": (
                (cache_after["hits"] - cache_before["hits"]) / lookups
                if lookups else 0.0),
            "loadgen.sent": len(latenesses),
            "loadgen.succeeded": sum(r.ok for r in records),
            "loadgen.failed": sum(not r.ok for r in records),
            "loadgen.lateness_p90_s": nearest_rank(latenesses, 90.0),
        }
        macs = []
        if counter is not None:
            macs = [counter.macs]
            self.facts["tensor.backend.macs"] = counter.macs / count
        succeeded = [r.scaled for r in records if r.ok]
        return Window(records, finished - started,
                      statistics.median(succeeded) if succeeded else math.nan,
                      macs)

    @staticmethod
    def _output_ok(response) -> bool:
        spec = get_model_spec(response.model)
        shape = (spec.image_channels, spec.image_size, spec.image_size)
        return (response.image.shape == shape
                and bool(np.all(np.isfinite(response.image))))

    def check(self) -> List[str]:
        """Regenerate a fixed sample of requests alone and compare.

        A request served alone must match bit for bit.  One served in a
        larger batch may differ in the last bits — BLAS picks its kernel by
        the row count — so it must match to float32 round-off.
        """
        failures = []
        if self.facts.get("serving.pool.builds"):
            failures.append("the variant pool built a variant during the window")
        self.compared = {"bit-exact": 0, "round-off": 0}
        for index in range(0, len(self.requests), self.CHECK_EVERY):
            request, response = self.requests[index], self.outcomes[index].response
            if response is None:
                continue
            pipeline = self.engine.pool.get(response.model, response.scheme)
            context = Tensor(pipeline.encode_prompts([request.prompt]).data)
            alone = pipeline.generate_batch([request.seed], context=context,
                                            plan=response.plan)[0]
            if response.batch_size == 1:
                self.compared["bit-exact"] += 1
                same = np.array_equal(alone, response.image)
            else:
                self.compared["round-off"] += 1
                same = np.allclose(alone, response.image, rtol=1e-4,
                                   atol=1e-4 * float(np.max(np.abs(alone))))
            if not same:
                failures.append(f"request {index}: served image differs from "
                                f"the same request generated alone")
        return failures

    def layer_facts(self) -> Dict[str, float]:
        return dict(self.facts)

    def details(self) -> Dict[str, object]:
        served = Counter(f"{o.response.model}/{o.response.scheme}/"
                         f"{o.response.num_steps} steps"
                         for o in self.outcomes if o.response is not None)
        latenesses = [o.lateness for o in self.outcomes if o.lateness is not None]
        return {"served_mix": dict(sorted(served.items())),
                "generator_lateness_p90_s": nearest_rank(latenesses, 90.0),
                "standalone_comparisons": dict(self.compared)}


# ----------------------------------------------------------------------
# fleet: the discrete-event cluster simulator over a diurnal trace
# ----------------------------------------------------------------------
class Fleet(Workload):
    """One ClusterSimulation run over a fixed multi-tenant trace per op."""

    name = "fleet"
    op_unit = "cluster simulation run"
    #: Pure-Python event handling over a heap of request objects.
    calibration = ("interpreter", "memory")
    NUM_REQUESTS = 4000

    def __init__(self, seed, dirs):
        super().__init__(seed, dirs)
        self.reports: List[str] = []
        self.facts: List[Dict[str, float]] = []

    def setup(self) -> None:
        self.trace = generate_trace(TraceConfig(
            num_requests=self.NUM_REQUESTS,
            seed=derive_seed(self.seed, _TRACE)))

    def simulate(self):
        simulation = ClusterSimulation(ClusterConfig(
            initial_replicas=4, policy="affinity",
            autoscaler=AutoscalerConfig()))
        return simulation, simulation.run(self.trace)

    def op(self, index: int) -> OpRecord:
        started = clock()
        simulation, report = self.simulate()
        seconds = clock() - started
        requests = report["requests"]
        ok = (requests["offered"] == len(self.trace)
              and requests["offered"] == (requests["admitted"]
                                          + requests["rejected"]["total"])
              and requests["completed"] == requests["admitted"])
        self.reports.append(json.dumps(report, indent=2, sort_keys=True))
        pools = [replica.pool.stats() for replica in simulation.replicas]
        self.facts.append({
            "serving.cluster.replica.variant_loads": (
                report["variants"]["loads"] + report["variants"]["reloads"]),
            "serving.pool.hits": sum(stats["hits"] for stats in pools),
            "serving.pool.builds": sum(stats["builds"] for stats in pools),
        })
        return OpRecord(seconds, ok, work=len(self.trace))

    def check(self) -> List[str]:
        if len(self.reports) < 2:
            self.reports.append(json.dumps(self.simulate()[1], indent=2,
                                           sort_keys=True))
        if len(set(self.reports)) != 1:
            return ["same-seed simulator runs gave different cluster reports"]
        return []

    def layer_facts(self) -> Dict[str, float]:
        if not self.facts:
            return {}
        return {name: statistics.mean(facts[name] for facts in self.facts)
                for name in self.facts[0]}


WORKLOADS = {cls.name: cls for cls in (PTQ, Generate, Serve, Fleet)}
