"""Serializable generation plans: *how* a pipeline samples, as data.

A :class:`GenerationPlan` pins everything about the reverse process that the
paper treats as an experimental variable — which sampler walks the
trajectory, how many timesteps it visits, and the classifier-free-guidance
scale — in one JSON-round-trippable, content-fingerprinted value.  It plays
the same role for generation that :class:`~repro.core.QuantizationConfig`
plays for quantization:

* pipelines accept a plan on every generation entry point
  (``DiffusionPipeline.generate(plan=...)``),
* experiment rows carry a plan, so sampler x steps x guidance sweeps key
  their generate stages by plan fingerprint and cache correctly,
* the serving router emits a (scheme, plan) decision per request and the
  batcher groups requests by plan fingerprint.

Plans are frozen (hashable — they sit inside serving batch keys) and
validate their sampler name against the registry on construction, so a typo
fails at spec-build time rather than mid-run.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from typing import Dict, Optional

from ..profiling.cost_model import plan_model_evals
from .samplers import GuidedDenoiser, get_sampler_info
from .schedule import NoiseSchedule


def _content_hash(value):
    # Imported lazily: repro.core pulls in the quantizer, which imports this
    # package back — a module-level import would be a cycle.
    from ..core.hashing import content_hash

    return content_hash(value)


@dataclass(frozen=True)
class GenerationPlan:
    """Declarative description of one generation trajectory.

    ``sampler`` names a registry entry (``ddpm`` / ``ddim`` / ``dpm2`` /
    any :func:`~repro.diffusion.samplers.register_sampler` addition);
    ``num_steps=None`` defers to the pipeline (ultimately the model's
    ``default_sampling_steps``); ``guidance_scale != 1`` turns on
    classifier-free guidance; ``eta`` adds DDIM stochasticity.
    """

    sampler: str = "ddim"
    num_steps: Optional[int] = None
    guidance_scale: float = 1.0
    eta: float = 0.0

    def __post_init__(self):
        info = get_sampler_info(self.sampler)  # fail fast on unknown samplers
        if self.num_steps is not None and self.num_steps < 1:
            raise ValueError(f"num_steps must be >= 1, got {self.num_steps}")
        if self.num_steps is not None and not info.uses_step_budget:
            # Samplers that always walk the full training grid (DDPM) have
            # no step budget; normalizing it away keeps every layer that
            # keys on the plan (stage graph, batch keys, labels) consistent
            # with the work actually done.
            object.__setattr__(self, "num_steps", None)
        if self.eta != 0.0 and not info.uses_eta:
            # Same story for eta: a sampler that ignores it (DDPM, dpm2)
            # must not have its fingerprint split by a knob with no effect.
            object.__setattr__(self, "eta", 0.0)
        if self.guidance_scale <= 0.0:
            raise ValueError(
                f"guidance_scale must be > 0, got {self.guidance_scale}")
        if self.eta < 0.0:
            raise ValueError(f"eta must be >= 0, got {self.eta}")

    # ------------------------------------------------------------------
    # semantics
    # ------------------------------------------------------------------
    @property
    def is_stochastic(self) -> bool:
        """Whether the trajectory draws fresh noise from the rng per step.

        True for ancestral samplers (DDPM) and for DDIM with ``eta > 0``;
        deterministic plans depend only on ``initial_noise``.
        """
        return self.eta > 0.0 or not get_sampler_info(self.sampler).deterministic

    def is_default(self) -> bool:
        """Whether this plan samples exactly like the pre-plan pipelines.

        ``num_steps`` is deliberately *excluded*: the step budget was always
        a pipeline parameter (and is keyed separately by the experiment
        stage graph), so a plan that only pins steps still follows the
        default DDIM trajectory.
        """
        return (self.sampler == "ddim" and self.guidance_scale == 1.0
                and self.eta == 0.0)

    def resolve_steps(self, default_steps: int,
                      train_steps: Optional[int] = None) -> int:
        """Concrete step count for a model with the given defaults.

        Samplers that ignore the step budget (DDPM walks the full training
        grid) resolve to ``train_steps`` so latency predictions and batch
        keys reflect the work actually done.
        """
        info = get_sampler_info(self.sampler)
        if not info.uses_step_budget and train_steps is not None:
            return train_steps
        return self.num_steps if self.num_steps is not None else default_steps

    def model_evals(self, default_steps: int,
                    train_steps: Optional[int] = None) -> int:
        """U-Net evaluations this plan performs on a model with the given
        defaults: its :meth:`resolve_steps` times the sampler's evaluations
        per step (less a first-order last step), doubled under guidance.

        The one count every latency price multiplies a per-forward roofline
        by — the router, the calibration harness and
        :func:`repro.profiling.estimate_plan_latency` all ask the plan.
        """
        info = get_sampler_info(self.sampler)
        return plan_model_evals(self.resolve_steps(default_steps, train_steps),
                                self.guidance_scale, info.evals_per_step,
                                info.first_order_final_step)

    def build_sampler(self, schedule: NoiseSchedule, default_steps: int):
        """Instantiate the registered sampler for ``schedule``."""
        info = get_sampler_info(self.sampler)
        steps = self.resolve_steps(default_steps, schedule.num_timesteps)
        return info.factory(schedule, steps, self.eta)

    def wrap_model(self, model):
        """Apply classifier-free guidance around ``model`` when requested."""
        if self.guidance_scale == 1.0:
            return model
        return GuidedDenoiser(model, self.guidance_scale)

    def validate_for_model(self, task: str, model_name: str) -> None:
        """Reject plan knobs the model cannot honor.

        Classifier-free guidance blends conditional and unconditional
        predictions, so it needs a conditioning context — requesting it for
        an unconditional model would silently produce unguided images
        mislabeled as guided.  Shared by the pipeline, the serving engine's
        admission check and the experiment compiler.
        """
        if self.guidance_scale != 1.0 and task != "text-to-image":
            raise ValueError(
                "classifier-free guidance needs a conditioning context; "
                f"model '{model_name}' is unconditional "
                f"(plan {self.describe()})")

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Content hash of the full plan (including the step budget)."""
        return _content_hash(self.to_dict())

    def trajectory_fingerprint(self) -> str:
        """Content hash of the trajectory shape, *excluding* ``num_steps``.

        The experiment stage graph keys the step budget through its existing
        ``num_steps`` input, so two spellings of the same work — a plan
        carrying ``num_steps=5`` vs. bench settings with ``num_steps=5`` —
        share artifacts.
        """
        data = self.to_dict()
        data.pop("num_steps")
        return _content_hash(data)

    def describe(self) -> str:
        """Short human-readable label, e.g. ``dpm2-5`` or ``ddim-g2.5``."""
        parts = [self.sampler]
        if self.num_steps is not None:
            parts.append(str(self.num_steps))
        if self.guidance_scale != 1.0:
            parts.append(f"g{self.guidance_scale:g}")
        if self.eta != 0.0:
            parts.append(f"eta{self.eta:g}")
        return "-".join(parts)

    def with_(self, **changes) -> "GenerationPlan":
        """A copy with the given fields replaced (plans are frozen)."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "GenerationPlan":
        return cls(**data)

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_json(cls, text: str) -> "GenerationPlan":
        return cls.from_dict(json.loads(text))


#: The plan a pipeline follows when none is given: deterministic DDIM at the
#: pipeline's step count, no guidance.
DEFAULT_PLAN = GenerationPlan()
