"""End-to-end generation pipelines (the "Stable Diffusion architecture" box).

A pipeline owns a :class:`~repro.models.DiffusionModel` bundle plus a noise
schedule and a :class:`~repro.diffusion.plan.GenerationPlan`, and exposes
``generate`` for unconditional models and ``generate_from_prompts`` for
text-to-image models.  Generated images are returned as ``(N, C, H, W)``
float arrays in ``[-1, 1]``.

*How* to sample — which registered sampler, how many steps, what guidance
scale — is data, not code: every generation entry point accepts a
``plan=`` override.  The default plan is deterministic DDIM at the
pipeline's step count, with no guidance.

Pipelines are the unit the quantizer operates on: quantizing a pipeline
replaces the Conv2d/Linear layers of its U-Net with quantized wrappers while
leaving the text encoder and autoencoder decoder in full precision, exactly
matching the paper's experimental setup.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..models import DiffusionModel, ModelSpec
from ..tensor import Tensor, inference_mode
from .plan import DEFAULT_PLAN, GenerationPlan
from .schedule import NoiseSchedule


class DiffusionPipeline:
    """Generation pipeline around a (possibly quantized) diffusion model."""

    def __init__(self, model: DiffusionModel, spec: Optional[ModelSpec] = None,
                 num_steps: Optional[int] = None, schedule_kind: str = "linear",
                 plan: Optional[GenerationPlan] = None):
        self.model = model
        self.spec = spec or model.spec
        self.schedule = NoiseSchedule.create(self.spec.train_timesteps, schedule_kind)
        self.plan = plan or DEFAULT_PLAN
        base_steps = num_steps or self.spec.default_sampling_steps
        self.num_steps = self.plan.resolve_steps(base_steps,
                                                 self.schedule.num_timesteps)
        self.sampler = self.plan.build_sampler(self.schedule, self.num_steps)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @property
    def is_text_to_image(self) -> bool:
        return self.spec.task == "text-to-image"

    def sample_shape(self, batch_size: int) -> tuple:
        return (batch_size,) + self.spec.sample_shape

    def initial_noise(self, batch_size: int, seed: int) -> np.ndarray:
        """Deterministic starting noise for seed-matched comparisons.

        The paper fixes the seed across runs being compared so that the
        full-precision and quantized models denoise identical noise inputs
        (Section VI-C); every benchmark here does the same through this
        method.
        """
        rng = np.random.default_rng(seed)
        return rng.standard_normal(self.sample_shape(batch_size)).astype(np.float32)

    def encode_prompts(self, prompts: Sequence[str]) -> Tensor:
        if self.model.text_encoder is None:
            raise ValueError(f"model '{self.spec.name}' is not a text-to-image model")
        with inference_mode():
            return self.model.text_encoder.encode_prompts(prompts)

    def decode_latents(self, latents: np.ndarray) -> np.ndarray:
        if self.model.autoencoder is None:
            return np.clip(latents, -1.0, 1.0)
        with inference_mode():
            images = self.model.autoencoder.decode(Tensor(latents))
        return images.data

    def resolve_plan(self,
                     plan: Optional[GenerationPlan] = None) -> GenerationPlan:
        """The plan a generation call will follow (``None`` -> the pipeline's)."""
        return plan if plan is not None else self.plan

    # ------------------------------------------------------------------
    # generation
    # ------------------------------------------------------------------
    def generate(self, num_images: int, seed: int = 0, batch_size: int = 8,
                 trace=None, plan: Optional[GenerationPlan] = None) -> np.ndarray:
        """Unconditional generation of ``num_images`` images."""
        if self.is_text_to_image:
            raise ValueError(
                "use generate_from_prompts for text-to-image pipelines")
        plan = self.resolve_plan(plan)
        plan.validate_for_model(self.spec.task, self.spec.name)
        return self._run(num_images, seed, batch_size, context_batches=None,
                         plan=plan, trace=trace)

    def encode_prompts_deduped(self, prompts: Sequence[str],
                               batch_size: int = 8) -> np.ndarray:
        """Encode prompts, running the text encoder once per *unique* prompt.

        Serving workloads repeat popular prompts heavily; encoding the unique
        set and gathering rows back into request order makes the encoder cost
        proportional to the number of distinct prompts.  Returns the stacked
        context embeddings as a ``(len(prompts), tokens, dim)`` array.
        """
        prompts = list(prompts)
        unique = list(dict.fromkeys(prompts))
        encoded: List[np.ndarray] = []
        for start in range(0, len(unique), batch_size):
            encoded.append(self.encode_prompts(unique[start:start + batch_size]).data)
        rows = np.concatenate(encoded, axis=0)
        index = {prompt: i for i, prompt in enumerate(unique)}
        return rows[[index[prompt] for prompt in prompts]]

    def generate_from_prompts(self, prompts: Sequence[str], seed: int = 0,
                              batch_size: int = 8, trace=None,
                              plan: Optional[GenerationPlan] = None) -> np.ndarray:
        """Text-to-image generation, one image per prompt.

        Repeated prompts are deduplicated before encoding: the text encoder
        runs once per unique prompt and its outputs are gathered back into
        prompt order, so popular-prompt workloads pay encoder cost only for
        the distinct prompts.
        """
        prompts = list(prompts)
        full_context = self.encode_prompts_deduped(prompts, batch_size)
        contexts: List[Tensor] = []
        for start in range(0, len(prompts), batch_size):
            contexts.append(Tensor(full_context[start:start + batch_size]))
        return self._run(len(prompts), seed, batch_size, context_batches=contexts,
                         plan=self.resolve_plan(plan), trace=trace)

    def generate_batch(self, seeds: Sequence[int],
                       context: Optional[Tensor] = None,
                       trace=None,
                       plan: Optional[GenerationPlan] = None) -> np.ndarray:
        """Serving path: generate one already-formed batch in a single pass.

        Unlike :meth:`generate` / :meth:`generate_from_prompts` (which chunk a
        dataset into fixed-size batches under one seed), this runs exactly one
        sampler pass over a batch assembled elsewhere — the dynamic batcher in
        :mod:`repro.serving` — with a *per-request* seed for each row and an
        optional precomputed (possibly cached) context.  ``plan`` selects the
        trajectory per call, so one pooled variant serves every routed step
        budget and sampler without rebuilding the pipeline.  Each row's output
        depends only on its own seed, context and plan, never on its
        batchmates, so a request's image is identical whatever batch it lands
        in.

        For *stochastic* plans (DDPM, DDIM with ``eta > 0``) the per-step
        transition noise cannot be shared across a batch without coupling
        rows to their batchmates, so the sampler runs once per row with a
        per-seed rng — correctness over batching efficiency; deterministic
        plans (the serving default) keep the single fused pass.
        """
        seeds = list(seeds)
        if not seeds:
            return np.zeros((0,) + self.spec.sample_shape, dtype=np.float32)
        if context is not None and context.data.shape[0] != len(seeds):
            raise ValueError(
                f"context batch dimension {context.data.shape[0]} does not "
                f"match {len(seeds)} seeds")
        plan = self.resolve_plan(plan)
        if plan.guidance_scale != 1.0 and context is None:
            # Without a context the guided blend degenerates to the plain
            # prediction — failing beats silently serving unguided images
            # labeled as guided.
            raise ValueError(
                "classifier-free guidance needs a conditioning context; "
                f"generate_batch got context=None (plan {plan.describe()})")
        if plan.is_stochastic and len(seeds) > 1:
            rows = []
            for position, seed in enumerate(seeds):
                row_context = (Tensor(context.data[position:position + 1])
                               if context is not None else None)
                rows.append(self.generate_batch([seed], context=row_context,
                                                trace=trace, plan=plan))
            return np.concatenate(rows, axis=0)
        sampler = plan.build_sampler(self.schedule, self.num_steps)
        model = plan.wrap_model(self.model)
        noise = np.concatenate([self.initial_noise(1, s) for s in seeds], axis=0)
        rng = np.random.default_rng(seeds[0] + 1)
        latents = sampler.sample(model, self.sample_shape(len(seeds)), rng,
                                 context=context, trace=trace,
                                 initial_noise=noise)
        return self.decode_latents(latents)

    def _run(self, num_images: int, seed: int, batch_size: int,
             context_batches, plan: GenerationPlan, trace) -> np.ndarray:
        sampler = plan.build_sampler(self.schedule, self.num_steps)
        model = plan.wrap_model(self.model)
        outputs = []
        batch_index = 0
        for start in range(0, num_images, batch_size):
            count = min(batch_size, num_images - start)
            shape = self.sample_shape(count)
            noise = self.initial_noise(count, seed + start)
            rng = np.random.default_rng(seed + start + 1)
            context = context_batches[batch_index] if context_batches else None
            latents = sampler.sample(model, shape, rng, context=context,
                                     trace=trace, initial_noise=noise)
            outputs.append(self.decode_latents(latents))
            batch_index += 1
        return np.concatenate(outputs, axis=0)
