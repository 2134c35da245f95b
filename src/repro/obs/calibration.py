"""Cost-model calibration: roofline predictions vs measured trajectories.

The serving router and the autoscaler both price work with the analytic
roofline model (:mod:`repro.profiling`), whose device profiles are
datasheet-level — absolute numbers are not expected to match this
process's wall clock.  What *is* expected to hold is proportionality:
one global scale factor should map predictions onto measurements, and the
residual after that fit is the cost-model error the router actually eats
when it ranks (scheme, plan) options.

:func:`run_cost_model_calibration` runs every (workload=generation plan,
quantization scheme) cell on a tiny fixture model, predicts each cell
with :func:`repro.profiling.estimate_plan_latency`, measures it with an
injectable clock (:func:`repro.profiling.measure_latency` — wall clock by
default, a :class:`~repro.serving.clock.VirtualClock` in tests), fits the
scale as the median measured/predicted ratio, and reports per-cell
residual error.  When handed a :class:`~repro.obs.tracer.Tracer` it also
books one span per cell (with the prediction attached as attributes) so
the calibration run itself is traceable.

The report answers, per cell: *if the router used the cost model to pick
this option, how wrong was its latency estimate?*
"""

from __future__ import annotations

import json
import time
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..profiling import (
    GPU_V100,
    DeviceProfile,
    estimate_plan_latency,
    measure_latency,
    unet_layer_costs,
)
from .. import schemas

SCHEMA = schemas.OBS_CALIBRATION


class CalibrationReport:
    """Predicted-vs-measured cells plus the fitted global scale."""

    def __init__(self, device: str = "unknown"):
        self.device = device
        self.cells: List[Dict] = []

    def add(self, workload: str, scheme: str, predicted_s: float,
            measured_s: float, **extra) -> Dict:
        """Record one (workload, scheme) cell; returns the cell dict."""
        if predicted_s <= 0 or measured_s <= 0:
            raise ValueError(
                f"cell ({workload}, {scheme}) needs positive times, got "
                f"predicted={predicted_s} measured={measured_s}")
        cell = {"workload": workload, "scheme": scheme,
                "predicted_s": predicted_s, "measured_s": measured_s,
                "ratio": measured_s / predicted_s, **extra}
        self.cells.append(cell)
        return cell

    def fit_scale(self) -> float:
        """Global scale: the median measured/predicted ratio.

        The median (not the mean) so one outlier cell — a GC pause, a
        cold cache — cannot drag every other cell's residual with it.
        """
        if not self.cells:
            raise ValueError("cannot fit a scale with no cells recorded")
        return float(np.median([cell["ratio"] for cell in self.cells]))

    def to_dict(self) -> Dict:
        """The calibration report document (JSON-safe, deterministic order)."""
        scale = self.fit_scale()
        cells = []
        errors = []
        for cell in sorted(self.cells,
                           key=lambda c: (c["workload"], c["scheme"])):
            scaled = cell["predicted_s"] * scale
            error = (scaled - cell["measured_s"]) / cell["measured_s"]
            errors.append(abs(error))
            cells.append({**cell, "scaled_predicted_s": scaled,
                          "error_pct": 100.0 * error})
        return {
            "schema": SCHEMA,
            "device_profile": self.device,
            "fitted_scale": scale,
            "cells": cells,
            "summary": {
                "num_cells": len(cells),
                "median_abs_error_pct": float(100 * np.median(errors)),
                "max_abs_error_pct": float(100 * max(errors)),
            },
        }

    def save(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True)
                        + "\n")
        return path


# ----------------------------------------------------------------------
# the calibration harness
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def _fixture_pipeline(scheme: str):
    """Tiny (8x8) pipeline per scheme; cached — quantization is the dear part."""
    from ..core import QuantizationConfig, quantize_pipeline
    from ..diffusion import DiffusionPipeline
    from ..models import DiffusionModel, ModelSpec, UNetConfig

    spec = ModelSpec(
        name="calib-tiny", task="unconditional", image_size=8,
        image_channels=3, latent=False, latent_channels=4,
        latent_downsample=4,
        unet=UNetConfig(in_channels=3, out_channels=3, base_channels=8,
                        channel_multipliers=(1, 2), num_res_blocks=1,
                        attention_levels=(1,), num_heads=2, context_dim=None),
        text_embed_dim=None, train_timesteps=8, default_sampling_steps=4,
        seed=3)
    pipeline = DiffusionPipeline(DiffusionModel(
        spec, rng=np.random.default_rng(17)), num_steps=4)
    if scheme == "fp32":
        return pipeline
    config = QuantizationConfig(weight_dtype=scheme, activation_dtype="int8",
                                rounding_learning=False).scaled_for_speed()
    quantized, _report = quantize_pipeline(pipeline, config)
    return quantized


def run_cost_model_calibration(
        schemes: Sequence[str] = ("fp32", "int8", "int4"),
        workloads: Optional[Dict[str, object]] = None,
        device: DeviceProfile = GPU_V100,
        repeats: int = 3,
        clock: Callable[[], float] = time.perf_counter,
        tracer=None) -> CalibrationReport:
    """Measure every (workload, scheme) cell against the roofline model.

    ``workloads`` maps a workload name to a
    :class:`~repro.diffusion.GenerationPlan` (default: ddim/dpm2 at the
    fixture's 4 steps).  Per cell the fixture pipeline runs a full
    trajectory ``repeats`` times under ``clock`` (best-of, to shed
    scheduler noise) while the roofline predicts the same trajectory —
    the plan's steps resolved against the fixture's — from the fixture's
    own :class:`~repro.models.UNetConfig`.
    """
    from ..diffusion import GenerationPlan

    if workloads is None:
        workloads = {"sampler_loop.ddim": GenerationPlan(sampler="ddim",
                                                         num_steps=4),
                     "sampler_loop.dpm2": GenerationPlan(sampler="dpm2",
                                                         num_steps=4)}
    report = CalibrationReport(device=device.name)
    for workload, plan in sorted(workloads.items()):
        for scheme in schemes:
            pipeline = _fixture_pipeline(scheme)
            # The steps the trajectory below walks (plan.build_sampler).
            steps = (pipeline.num_steps, pipeline.schedule.num_timesteps)
            costs = unet_layer_costs(pipeline.spec.unet,
                                     sample_size=pipeline.spec.image_size)
            predicted = estimate_plan_latency(costs, device, scheme, plan,
                                              *steps)

            noise = pipeline.initial_noise(1, seed=11)

            def run(pipeline=pipeline, plan=plan, noise=noise):
                sampler = plan.build_sampler(pipeline.schedule,
                                             pipeline.num_steps)
                return sampler.sample(pipeline.model, noise.shape,
                                      np.random.default_rng(1),
                                      initial_noise=noise.copy())

            started = tracer.time() if tracer is not None else None
            measurement = measure_latency(run, clock=clock, repeats=repeats)
            measured = measurement["best_s"]
            if tracer is not None:
                tracer.add_span(f"calibrate.{workload}", started,
                                tracer.time(), category="calibration",
                                process="calibration", lane=scheme,
                                attrs={"workload": workload, "scheme": scheme,
                                       "predicted_s": predicted,
                                       "measured_s": measured})
            report.add(workload, scheme, predicted, measured,
                       repeats=repeats, model_evals=plan.model_evals(*steps))
    return report
