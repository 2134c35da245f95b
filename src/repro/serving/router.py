"""SLO-aware (scheme, plan) routing over the analytic roofline cost model.

Routing implements the paper-motivated serving policy in **two dimensions**:
quantization is a latency/quality dial (fewer bits, cheaper forwards) and so
is the generation plan (fewer steps, fewer forwards; guidance doubles them;
second-order solvers multiply them).  Each request should be served at the
highest quality its latency budget allows — FP32 at the full step budget
when there is headroom, lower-precision schemes as the SLO tightens, and
only then reduced step budgets (conf_iiswc_ChenGM24's characterization is
exactly the cost model that makes this prediction possible without running
anything).

For a candidate ``(scheme, plan)`` the router predicts end-to-end latency as

    plan.model_evals(steps, guidance, solver order)
        x roofline(U-Net forward @ scheme bytes-per-element)

using :func:`repro.profiling.estimate_plan_latency` semantics, then picks
the best-quality candidate that fits the SLO.  Quality order: full step
budget across the scheme ladder first (the paper shows precision costs less
quality than trajectory truncation at matched speedups), then progressively
reduced step budgets.  When nothing fits, it degrades to the cheapest
candidate — an overloaded system serves *something* rather than nothing.
Requests without an SLO get the best-quality scheme at the full plan.

:meth:`SLORouter.decide` returns the full :class:`RoutingDecision`
(scheme + concrete plan + predicted latency).  That price is the one the
whole serving stack reads for a (model, scheme, plan): the engine stamps it
on ``batch.execute`` spans and the cluster's service model charges it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.schemes import get_scheme
from ..diffusion.plan import GenerationPlan
from ..diffusion.samplers import get_sampler_info
from ..models import get_model_spec
from ..profiling import (
    GPU_V100,
    DeviceProfile,
    LayerCost,
    estimate_scheme_latency,
    unet_layer_costs,
)
from .request import Request

#: Default candidate ladder, best quality first.
DEFAULT_SCHEMES = ("fp32", "fp8", "fp4")

#: Step budgets the router may degrade to, as fractions of the requested
#: budget, best quality (most steps) first.
DEFAULT_STEP_FRACTIONS = (1.0, 0.5, 0.25)


@dataclass(frozen=True)
class RoutingDecision:
    """The router's verdict for one request: what to serve it with."""

    scheme: str
    plan: GenerationPlan            # num_steps resolved to a concrete count
    predicted_latency: float        # roofline end-to-end estimate (seconds)


class SLORouter:
    """Chooses a (scheme, generation plan) per request from predictions."""

    def __init__(self, schemes: Sequence[str] = DEFAULT_SCHEMES,
                 device: DeviceProfile = GPU_V100,
                 batch_size: int = 1,
                 context_tokens: int = 16,
                 costs_fn: Optional[Callable[[str], List[LayerCost]]] = None):
        """
        ``costs_fn`` maps a model name to the per-layer cost list the
        roofline runs over; the default walks the model's own (scaled-down)
        ``UNetConfig``.  Passing e.g. ``lambda _:
        unet_layer_costs(paper_scale_stable_diffusion_config(), 64)`` routes
        with paper-scale costs — useful because the reproduction's stand-in
        models are so small that launch overhead flattens the scheme spread.
        A request's plan may be degraded to the step budgets of
        :data:`DEFAULT_STEP_FRACTIONS`.
        """
        if not schemes:
            raise ValueError("router needs at least one candidate scheme")
        # Sort best quality (most bits) first; ties keep caller order.
        self.schemes: List[str] = sorted(
            schemes, key=lambda s: -get_scheme(s).bits)
        self.device = device
        self.batch_size = batch_size
        self.context_tokens = context_tokens
        self._costs_fn = costs_fn or self._spec_costs
        self._cost_cache: Dict[Tuple[str, str], float] = {}

    # ------------------------------------------------------------------
    def _spec_costs(self, model: str) -> List[LayerCost]:
        spec = get_model_spec(model)
        return unet_layer_costs(spec.unet, spec.sample_shape[-1],
                                batch_size=self.batch_size,
                                context_tokens=self.context_tokens)

    def predicted_step_latency(self, model: str, scheme: str) -> float:
        """Roofline latency of one U-Net forward of ``model`` at ``scheme``."""
        key = (model, scheme)
        cached = self._cost_cache.get(key)
        if cached is not None:
            return cached
        latency = estimate_scheme_latency(self._costs_fn(model), self.device,
                                          scheme)
        self._cost_cache[key] = latency
        return latency

    def predicted_latency(self, model: str, scheme: str, num_steps: int) -> float:
        """Predicted end-to-end latency of a plain ``num_steps`` trajectory."""
        return self.predicted_step_latency(model, scheme) * num_steps

    def plan_steps(self, model: str, plan: GenerationPlan) -> int:
        """The concrete step count ``plan`` performs on ``model``.

        Plans for full-grid samplers (DDPM) carry no step budget; they
        resolve to the model's ``train_timesteps``.
        """
        spec = get_model_spec(model)
        return plan.resolve_steps(spec.default_sampling_steps,
                                  spec.train_timesteps)

    def predicted_plan_latency(self, model: str, scheme: str,
                               plan: GenerationPlan) -> float:
        """Predicted end-to-end latency of serving ``plan`` at ``scheme``.

        The same quantity as :func:`repro.profiling.estimate_plan_latency`:
        the cached per-forward roofline times the plan's
        :meth:`~repro.diffusion.GenerationPlan.model_evals` on ``model``.
        """
        spec = get_model_spec(model)
        return self.predicted_step_latency(model, scheme) * plan.model_evals(
            spec.default_sampling_steps, spec.train_timesteps)

    def predictions(self, model: str, num_steps: int) -> Dict[str, float]:
        """Predicted latency for every candidate scheme (debug/ops view)."""
        return {scheme: self.predicted_latency(model, scheme, num_steps)
                for scheme in self.schemes}

    # ------------------------------------------------------------------
    def resolve_plan(self, request: Request) -> GenerationPlan:
        """The request's plan with a concrete step count.

        Precedence for the step budget: the plan's own ``num_steps``, the
        request's ``num_steps`` field, then the model's
        ``default_sampling_steps`` (samplers that walk the full training
        grid resolve to ``train_timesteps``).
        """
        plan = request.plan or GenerationPlan()
        if plan.num_steps is None and request.num_steps is not None:
            plan = plan.with_(num_steps=request.num_steps)
        spec = get_model_spec(request.model)
        return plan.with_(num_steps=plan.resolve_steps(
            spec.default_sampling_steps, spec.train_timesteps))

    def _candidate_plans(self, plan: GenerationPlan) -> List[GenerationPlan]:
        """Step-degraded variants of ``plan``, best quality first."""
        if not get_sampler_info(plan.sampler).uses_step_budget:
            return [plan]
        budgets = dict.fromkeys(
            max(1, int(round(plan.num_steps * fraction)))
            for fraction in DEFAULT_STEP_FRACTIONS)
        return [plan.with_(num_steps=steps) for steps in budgets]

    def decide(self, request: Request) -> RoutingDecision:
        """Pick the (scheme, plan) to serve ``request`` with.

        An explicitly requested scheme always wins the scheme dimension.
        With an SLO, the best-quality candidate predicted to fit is chosen —
        trying the full step budget across the scheme ladder before reducing
        steps, so cheaper schemes absorb tight budgets first and the
        trajectory is only truncated when no precision can save it.  With no
        feasible candidate, the cheapest one; with no SLO, best quality at
        the full budget.
        """
        plan = self.resolve_plan(request)
        schemes = ([request.scheme] if request.scheme is not None
                   else self.schemes)
        if request.latency_slo is None:
            scheme = schemes[0]
            return RoutingDecision(
                scheme=scheme, plan=plan,
                predicted_latency=self.predicted_plan_latency(
                    request.model, scheme, plan))
        candidates = [(scheme, candidate)
                      for candidate in self._candidate_plans(plan)
                      for scheme in schemes]
        predicted = {
            (scheme, candidate): self.predicted_plan_latency(
                request.model, scheme, candidate)
            for scheme, candidate in candidates}
        for scheme, candidate in candidates:  # best quality first
            if predicted[(scheme, candidate)] <= request.latency_slo:
                return RoutingDecision(scheme=scheme, plan=candidate,
                                       predicted_latency=predicted[
                                           (scheme, candidate)])
        scheme, candidate = min(predicted, key=predicted.get)
        return RoutingDecision(scheme=scheme, plan=candidate,
                               predicted_latency=predicted[(scheme, candidate)])
