"""Reverse-process samplers behind a pluggable registry.

The samplers drive the backward process of Figure 3 in the paper: starting
from Gaussian noise ``x_T``, the noise-prediction network is applied
repeatedly and the predicted noise removed at every step.  The iterative
structure is exactly what makes diffusion models sensitive to quantization:
quantization error injected at every step accumulates across the trajectory
— which also makes the *sampler choice and step budget* first-class
experimental variables.  Three solvers are registered out of the box:

* ``ddpm`` — ancestral sampling over the full training grid (Ho et al.),
* ``ddim`` — deterministic strided sampling (Song et al.),
* ``dpm2`` — a second-order Heun / DPM-Solver-2-style corrector that spends
  two model evaluations per step for a more accurate trajectory at small
  step budgets.

New solvers plug in through :func:`register_sampler`; a
:class:`~repro.diffusion.plan.GenerationPlan` names a registered sampler and
the registry's per-sampler metadata (``evals_per_step``,
``uses_step_budget``) feeds the serving cost model.

Classifier-free guidance is a *model* wrapper, not a sampler:
:class:`GuidedDenoiser` blends conditional and unconditional noise
predictions (two U-Net evaluations per step) and composes with every
registered sampler.

Every sampler shares one calling convention::

    sampler.sample(model, shape, rng, context=None, initial_noise=None,
                   tracer=None, step_attrs=None)

``initial_noise`` pins ``x_T`` so seed-matched comparisons denoise identical
starting noise (paper Section VI-C).  Calibration records the U-Net's
activations along a trajectory through wrappers around the model's layers
(:func:`repro.core.calibration.collect_calibration_data`), not through the
sampler.

``tracer`` (a :class:`repro.obs.Tracer`) books one span per denoising step;
``step_attrs`` is attached to every step span.  The default ``tracer=None``
skips even the clock reads — the loops guard with ``if tracer is not None``
so disabled telemetry costs nothing (guarded by the ``telemetry.overhead``
bench workload).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..tensor import Tensor, inference_mode
from .schedule import NoiseSchedule


def _predict_noise(model, x: np.ndarray, t: np.ndarray,
                   context: Optional[Tensor]) -> np.ndarray:
    # repro: allow[hot-path-alloc] -- every sampler loop calls this under 'with inference_mode():'; the wrapper is graph-free
    prediction = model(Tensor(x), t, context=context)
    return prediction.data


def _resolve_initial_noise(shape, rng: np.random.Generator,
                           initial_noise: Optional[np.ndarray]) -> np.ndarray:
    if initial_noise is not None:
        return np.asarray(initial_noise, dtype=np.float32).reshape(shape)
    return rng.standard_normal(shape).astype(np.float32)


class _StepBuffers:
    """Preallocated per-trajectory scratch arrays for the sampler loops.

    Every denoising update is a handful of elementwise operations whose
    temporaries numpy promotes to float64 (the schedule scalars are float64).
    Allocating them per step dominates the loop's non-model cost, so each
    ``sample()`` call owns two float64 work buffers plus one float32 output
    buffer and the updates run through ``out=`` ufuncs.  The operation order
    and dtypes mirror the expression forms exactly, so trajectories stay
    bit-identical to the unbuffered spelling.  The returned ``out`` buffer
    is overwritten by the next step.
    """

    __slots__ = ("work1", "work2", "out")

    def __init__(self, shape):
        self.work1 = np.empty(shape, dtype=np.float64)
        self.work2 = np.empty(shape, dtype=np.float64)
        self.out = np.empty(shape, dtype=np.float32)

    def finish(self) -> np.ndarray:
        """Cast work1 into the float32 output."""
        np.copyto(self.out, self.work1)
        return self.out


# ----------------------------------------------------------------------
# classifier-free guidance
# ----------------------------------------------------------------------
class GuidedDenoiser:
    """Classifier-free guidance as a drop-in noise-prediction model.

    Wraps any denoiser and blends its conditional and unconditional
    predictions, ``eps = eps_uncond + s * (eps_cond - eps_uncond)``.  The
    unconditional branch re-evaluates the model with ``context=None`` (the
    U-Net's cross-attention blocks skip themselves), so a guided step costs
    two model evaluations — the 2x factor the serving cost model charges.
    When there is no context to condition on (or ``s == 1``) the blend
    degenerates to the plain prediction and the second evaluation is skipped.
    """

    def __init__(self, model, guidance_scale: float):
        self.model = model
        self.guidance_scale = guidance_scale

    def __call__(self, x: Tensor, t: np.ndarray,
                 context: Optional[Tensor] = None) -> Tensor:
        conditional = self.model(x, t, context=context)
        if context is None or self.guidance_scale == 1.0:
            return conditional
        unconditional = self.model(x, t, context=None)
        return unconditional + (conditional - unconditional) * self.guidance_scale


# ----------------------------------------------------------------------
# samplers
# ----------------------------------------------------------------------
class DDPMSampler:
    """Ancestral sampler following Ho et al. (paper Eq. 3)."""

    def __init__(self, schedule: NoiseSchedule):
        self.schedule = schedule

    # repro: hot -- T model evaluations per image; per-step temporaries dominate non-model cost
    def sample(self, model, shape, rng: np.random.Generator,
               context: Optional[Tensor] = None,
               initial_noise: Optional[np.ndarray] = None,
               tracer=None, step_attrs: Optional[Dict] = None) -> np.ndarray:
        """Generate samples of the given ``(N, C, H, W)`` shape.

        ``initial_noise`` pins ``x_T`` (the per-step transition noise still
        comes from ``rng``), so seed-matched comparisons start every DDPM
        trajectory from the same point just like DDIM ones.
        """
        schedule = self.schedule
        x = _resolve_initial_noise(shape, rng, initial_noise)
        buffers = _StepBuffers(shape)
        work = buffers.work1
        t_batch = np.empty((shape[0],), dtype=np.int64)
        with inference_mode():
            for t in reversed(range(schedule.num_timesteps)):
                if tracer is not None:
                    span_started = tracer.time()
                t_batch.fill(t)
                eps = _predict_noise(model, x, t_batch, context)
                alpha = schedule.alphas[t]
                alpha_bar = schedule.alphas_bar[t]
                beta = schedule.betas[t]
                # mean = (x - beta / sqrt(1 - alpha_bar) * eps) / sqrt(alpha)
                np.multiply(eps, beta / np.sqrt(1.0 - alpha_bar), out=work)
                np.subtract(x, work, out=work)
                np.divide(work, np.sqrt(alpha), out=work)
                if t > 0:
                    # repro: allow[hot-path-alloc] -- float64 draw + cast keeps trajectories bit-identical to the legacy spelling
                    noise = rng.standard_normal(shape).astype(np.float32)
                    np.multiply(noise, np.sqrt(beta), out=buffers.work2)
                    np.add(work, buffers.work2, out=work)
                x = buffers.finish()
                if tracer is not None:
                    tracer.add_span("sampler.step", span_started, tracer.time(),
                                    category="sampler", process="sampler",
                                    attrs={"t": int(t), "sampler": "ddpm",
                                           **(step_attrs or {})})
        return x


#: Cached strided-timestep tables keyed by (train_steps, num_steps); every
#: pipeline call rebuilds its sampler from the generation plan, so the table
#: construction must not be repaid per call.
_TIMESTEP_TABLES: Dict[Tuple[int, int], Tuple[int, ...]] = {}

#: Serving replicas build samplers from worker threads (variant pool warmup
#: and per-request plan changes), so the table memo is lock-guarded.
_TIMESTEP_LOCK = threading.Lock()


def _validate_num_steps(schedule: NoiseSchedule, num_steps: int) -> None:
    if num_steps < 1 or num_steps > schedule.num_timesteps:
        raise ValueError(
            f"num_steps must be in [1, {schedule.num_timesteps}], got {num_steps}")


class DDIMSampler:
    """Deterministic DDIM sampler with a strided timestep schedule.

    ``num_steps`` selects how many of the training timesteps are visited;
    the paper uses 200 steps for unconditional generation and 50 for
    text-to-image, while this reproduction defaults to the per-model
    ``default_sampling_steps`` to keep runtimes tractable.
    """

    def __init__(self, schedule: NoiseSchedule, num_steps: int, eta: float = 0.0):
        _validate_num_steps(schedule, num_steps)
        self.schedule = schedule
        self.num_steps = num_steps
        self.eta = eta
        self.timesteps = self._build_timesteps(schedule.num_timesteps, num_steps)

    @staticmethod
    def _build_timesteps(train_steps: int, num_steps: int) -> List[int]:
        """Strided timestep table, cached per ``(train_steps, num_steps)``.

        Rounding collisions after deduplication must not silently shrink the
        table below ``num_steps`` visited timesteps; collisions are refilled
        with the smallest unused timesteps (deterministic), and an impossible
        request raises instead of under-delivering steps.
        """
        key = (train_steps, num_steps)
        with _TIMESTEP_LOCK:
            cached = _TIMESTEP_TABLES.get(key)
            if cached is None:
                stride = train_steps / num_steps
                raw = (min(int(round(stride * i)), train_steps - 1)
                       for i in range(num_steps))
                steps = set(raw)
                if len(steps) < num_steps:
                    for candidate in range(train_steps):
                        if len(steps) == num_steps:
                            break
                        steps.add(candidate)
                if len(steps) != num_steps:
                    raise ValueError(
                        f"cannot visit {num_steps} distinct timesteps out of "
                        f"{train_steps} training steps")
                cached = tuple(sorted(steps, reverse=True))
                _TIMESTEP_TABLES[key] = cached
        return list(cached)

    # repro: hot -- the paper's fast path: num_steps model evaluations per image
    def sample(self, model, shape, rng: np.random.Generator,
               context: Optional[Tensor] = None,
               initial_noise: Optional[np.ndarray] = None,
               tracer=None, step_attrs: Optional[Dict] = None) -> np.ndarray:
        """Generate samples; with ``eta=0`` the trajectory is deterministic
        given ``initial_noise`` (or the rng state), which is how the paper
        fixes seeds to compare quantization configurations on identical
        trajectories (Section VI-C)."""
        schedule = self.schedule
        x = _resolve_initial_noise(shape, rng, initial_noise)
        timesteps = self.timesteps
        buffers = _StepBuffers(shape)
        work, work2 = buffers.work1, buffers.work2
        t_batch = np.empty((shape[0],), dtype=np.int64)
        with inference_mode():
            for index, t in enumerate(timesteps):
                if tracer is not None:
                    span_started = tracer.time()
                t_batch.fill(t)
                eps = _predict_noise(model, x, t_batch, context)
                alpha_bar = schedule.alphas_bar[t]
                prev_t = timesteps[index + 1] if index + 1 < len(timesteps) else -1
                alpha_bar_prev = schedule.alphas_bar[prev_t] if prev_t >= 0 else 1.0
                sigma = self.eta * np.sqrt(
                    (1.0 - alpha_bar_prev) / (1.0 - alpha_bar)
                    * (1.0 - alpha_bar / alpha_bar_prev))
                # x0_pred = (x - sqrt(1 - alpha_bar) * eps) / sqrt(alpha_bar)
                np.multiply(eps, np.sqrt(1.0 - alpha_bar), out=work)
                np.subtract(x, work, out=work)
                np.divide(work, np.sqrt(alpha_bar), out=work)
                # x = sqrt(alpha_bar_prev) * x0_pred + direction
                np.multiply(eps,
                            np.sqrt(max(1.0 - alpha_bar_prev - sigma ** 2, 0.0)),
                            out=work2)
                np.multiply(work, np.sqrt(alpha_bar_prev), out=work)
                np.add(work, work2, out=work)
                if sigma > 0:
                    # repro: allow[hot-path-alloc] -- float64 draw + cast keeps trajectories bit-identical to the legacy spelling
                    noise = rng.standard_normal(shape).astype(np.float32)
                    np.multiply(noise, sigma, out=work2)
                    np.add(work, work2, out=work)
                x = buffers.finish()
                if tracer is not None:
                    tracer.add_span("sampler.step", span_started, tracer.time(),
                                    category="sampler", process="sampler",
                                    attrs={"t": int(t), "index": index,
                                           "sampler": "ddim",
                                           **(step_attrs or {})})
        return x


def _ddim_step_into(x: np.ndarray, eps: np.ndarray, alpha_bar: float,
                    alpha_bar_prev: float, buffers: _StepBuffers,
                    out: np.ndarray) -> np.ndarray:
    """One deterministic (eta=0) DDIM update from ``alpha_bar`` to
    ``alpha_bar_prev``, computed in ``buffers`` and written into ``out``.

    Predicts ``x0 = (x - sqrt(1 - alpha_bar) eps) / sqrt(alpha_bar)`` and
    returns ``sqrt(alpha_bar_prev) x0 + sqrt(1 - alpha_bar_prev) eps``.
    ``out`` may alias ``x``: every read of ``x`` happens before the final
    cast into ``out``.
    """
    work, work2 = buffers.work1, buffers.work2
    np.multiply(eps, np.sqrt(1.0 - alpha_bar), out=work)
    np.subtract(x, work, out=work)
    np.divide(work, np.sqrt(alpha_bar), out=work)
    np.multiply(eps, np.sqrt(max(1.0 - alpha_bar_prev, 0.0)), out=work2)
    np.multiply(work, np.sqrt(alpha_bar_prev), out=work)
    np.add(work, work2, out=work)
    np.copyto(out, work)
    return out


class DPMSolver2Sampler:
    """Second-order deterministic solver (Heun / DPM-Solver-2 style).

    Each step first takes the deterministic DDIM (Euler) update to the next
    timestep, re-evaluates the model there, and re-takes the step with the
    *averaged* noise prediction — the classic predictor-corrector that keeps
    trajectories accurate at small step budgets, where first-order solvers
    (and quantization error, per the paper) drift most.  The final step to
    ``x_0`` has no second grid point and falls back to first order, so the
    solver spends ``2 * num_steps - 1`` model evaluations.
    """

    def __init__(self, schedule: NoiseSchedule, num_steps: int):
        _validate_num_steps(schedule, num_steps)
        self.schedule = schedule
        self.num_steps = num_steps
        self.timesteps = DDIMSampler._build_timesteps(
            schedule.num_timesteps, num_steps)

    # repro: hot -- 2*num_steps-1 model evaluations per image
    def sample(self, model, shape, rng: np.random.Generator,
               context: Optional[Tensor] = None,
               initial_noise: Optional[np.ndarray] = None,
               tracer=None, step_attrs: Optional[Dict] = None) -> np.ndarray:
        schedule = self.schedule
        x = _resolve_initial_noise(shape, rng, initial_noise)
        timesteps = self.timesteps
        buffers = _StepBuffers(shape)
        midpoint = np.empty(shape, dtype=np.float32)
        eps_avg = np.empty(shape, dtype=np.float32)
        t_batch = np.empty((shape[0],), dtype=np.int64)
        prev_batch = np.empty((shape[0],), dtype=np.int64)
        with inference_mode():
            for index, t in enumerate(timesteps):
                if tracer is not None:
                    span_started = tracer.time()
                t_batch.fill(t)
                eps = _predict_noise(model, x, t_batch, context)
                alpha_bar = schedule.alphas_bar[t]
                prev_t = timesteps[index + 1] if index + 1 < len(timesteps) else -1
                if prev_t < 0:
                    x = _ddim_step_into(x, eps, alpha_bar, 1.0, buffers,
                                        buffers.out)
                else:
                    alpha_bar_prev = schedule.alphas_bar[prev_t]
                    _ddim_step_into(x, eps, alpha_bar, alpha_bar_prev, buffers,
                                    midpoint)
                    prev_batch.fill(prev_t)
                    eps_prev = _predict_noise(model, midpoint, prev_batch, context)
                    # eps_avg = 0.5 * (eps + eps_prev)
                    np.add(eps, eps_prev, out=eps_avg)
                    np.multiply(eps_avg, 0.5, out=eps_avg)
                    x = _ddim_step_into(x, eps_avg, alpha_bar, alpha_bar_prev,
                                        buffers, buffers.out)
                if tracer is not None:
                    tracer.add_span("sampler.step", span_started, tracer.time(),
                                    category="sampler", process="sampler",
                                    attrs={"t": int(t), "index": index,
                                           "sampler": "dpm2",
                                           **(step_attrs or {})})
        return x


# ----------------------------------------------------------------------
# sampler registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SamplerInfo:
    """Registry entry: how to build a sampler and what it costs.

    ``factory(schedule, num_steps, eta)`` builds the sampler (entries are
    free to ignore arguments that do not apply to them).
    ``evals_per_step`` is the model evaluations one step costs (before
    guidance doubles it), ``first_order_final_step`` credits back the
    evaluations a predictor-corrector saves on its last step, and
    ``uses_step_budget`` is False for samplers that always walk the full
    training grid (DDPM) — all three feed the serving cost model through
    :meth:`repro.diffusion.GenerationPlan.model_evals`.
    ``deterministic`` is False for samplers that draw transition noise from
    the rng every step (DDPM); ``uses_eta`` marks samplers whose trajectory
    actually responds to the plan's ``eta`` — a plan normalizes away knobs
    its sampler ignores so fingerprints never split identical work.
    """

    name: str
    factory: Callable[[NoiseSchedule, int, float], object]
    evals_per_step: int = 1
    uses_step_budget: bool = True
    deterministic: bool = True
    uses_eta: bool = False
    first_order_final_step: bool = False


SAMPLER_REGISTRY: Dict[str, SamplerInfo] = {}


def register_sampler(name: str,
                     factory: Callable[[NoiseSchedule, int, float], object],
                     evals_per_step: int = 1,
                     uses_step_budget: bool = True,
                     deterministic: bool = True,
                     uses_eta: bool = False,
                     first_order_final_step: bool = False) -> SamplerInfo:
    """Register a sampler under ``name`` for use in generation plans."""
    if not name or not isinstance(name, str):
        raise ValueError(f"sampler name must be a non-empty string, got {name!r}")
    if evals_per_step < 1:
        raise ValueError(f"evals_per_step must be >= 1, got {evals_per_step}")
    info = SamplerInfo(name=name, factory=factory,
                       evals_per_step=evals_per_step,
                       uses_step_budget=uses_step_budget,
                       deterministic=deterministic,
                       uses_eta=uses_eta,
                       first_order_final_step=first_order_final_step)
    SAMPLER_REGISTRY[name] = info
    return info


def get_sampler_info(name: str) -> SamplerInfo:
    """Look up a registered sampler; unknown names list the known ones."""
    info = SAMPLER_REGISTRY.get(name)
    if info is None:
        raise ValueError(f"unknown sampler '{name}'; "
                         f"registered samplers: {available_samplers()}")
    return info


def available_samplers() -> Tuple[str, ...]:
    return tuple(sorted(SAMPLER_REGISTRY))


register_sampler(
    "ddpm", lambda schedule, num_steps, eta: DDPMSampler(schedule),
    uses_step_budget=False, deterministic=False)
register_sampler(
    "ddim", lambda schedule, num_steps, eta: DDIMSampler(schedule, num_steps,
                                                         eta=eta),
    uses_eta=True)
register_sampler(
    "dpm2", lambda schedule, num_steps, eta: DPMSolver2Sampler(schedule,
                                                               num_steps),
    evals_per_step=2, first_order_final_step=True)
