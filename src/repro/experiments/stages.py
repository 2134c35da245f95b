"""Compile an :class:`~repro.experiments.spec.ExperimentSpec` to a stage graph.

The paper's tables all share the same expensive pipeline::

    pretrain -> calibration data -> quantize -> generate -> evaluate
                 \\                                /
                  `-- full-precision generation --'----- dataset reference

Each arrow is a :class:`~repro.experiments.graph.Stage` keyed by a content
hash of its inputs, so shared work collapses: one pretrain and one
calibration-data stage per model feed every row, the FP32 generation is
computed once and reused both as the FP32 row and as the
"vs full-precision" reference, and any two specs (or the serving variant
pool) that agree on a stage's inputs share its artifact.

The individual ``add_*_stage`` builders are public so other entry points —
:mod:`repro.experiments.variants` builds serving variants from the same
pretrain/calibration/quantize chain — produce identical keys and therefore
reuse experiment artifacts.
"""

from __future__ import annotations

import copy
import re
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import QuantizationConfig, QuantizationReport, quantize_pipeline
from ..core.calibration import CalibrationConfig, CalibrationData, collect_calibration_data
from ..core.hashing import content_hash
from ..data import PromptDataset, rooms, shapes10
from ..diffusion import DiffusionPipeline, GenerationPlan
from ..metrics import EvaluationResult, evaluate_images
from ..models import build_model, get_model_spec
from ..zoo import PretrainConfig, load_pretrained
from .graph import Stage, StageGraph
from .spec import ExperimentRow, ExperimentSpec, TableResult


def _slug(text: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", text.lower()).strip("-")


def _prompts_key(prompts: Optional[Sequence[str]]) -> Optional[str]:
    """Hash of the actual prompt texts a stage consumes.

    Keying on the texts (not on how the prompt dataset was parameterized)
    lets differently-constructed prompt sources share artifacts whenever
    they resolve to the same prompts.
    """
    if prompts is None:
        return None
    return content_hash(list(prompts))


@dataclass
class ExperimentEnv:
    """Execution-environment knobs that must NOT affect stage keys."""

    zoo_cache_dir: Optional[Path] = None


def _dataset_reference(model_name: str, num_images: int, image_size: int,
                       seed: int) -> np.ndarray:
    """External reference set: the training-data stand-in for the model."""
    if model_name == "ddim-cifar10":
        images, _ = shapes10(num_images, size=image_size, seed=seed)
        return images
    if model_name == "ldm-bedroom":
        return rooms(num_images, size=image_size, seed=seed)
    return PromptDataset(num_images, image_size=image_size, seed=seed).reference_images()


# ----------------------------------------------------------------------
# stage builders (shared with repro.experiments.variants)
# ----------------------------------------------------------------------
def add_pretrain_stage(graph: StageGraph, model: str, pretrain: PretrainConfig,
                       zoo_cache_dir: Optional[Path] = None) -> str:
    """Pretrained-checkpoint stage; artifact is the model state dict."""
    stage_id = f"pretrain/{model}"

    def compute(deps):
        return load_pretrained(model, pretrain, cache_dir=zoo_cache_dir)

    def decode(payload):
        spec = get_model_spec(model)
        restored = build_model(model, rng=np.random.default_rng(spec.seed))
        restored.load_state_dict(dict(payload))
        restored.eval()
        return restored

    graph.add(Stage(
        stage_id=stage_id, kind="pretrain",
        inputs={"model": model, "pretrain": asdict(pretrain)},
        encoding="arrays", compute=compute,
        encode=lambda value: value.state_dict(), decode=decode))
    return stage_id


def add_calibration_stage(graph: StageGraph, model: str, pretrain_id: str,
                          calibration: CalibrationConfig, num_steps: int,
                          prompts: Optional[Sequence[str]] = None) -> str:
    """Calibration-data stage: per-layer activations of the FP pipeline."""
    stage_id = f"calibration/{model}"
    used_prompts = (list(prompts)[: calibration.num_samples]
                    if prompts is not None else None)

    def compute(deps):
        # Collection temporarily swaps recording wrappers into the U-Net, so
        # it must run on a private clone: with a parallel runner, another
        # stage forwarding through the shared checkpoint at the same time
        # would otherwise pollute the recorded activations.
        pipeline = DiffusionPipeline(copy.deepcopy(deps[pretrain_id]),
                                     num_steps=num_steps)
        return collect_calibration_data(pipeline, calibration, prompts=used_prompts)

    def encode(data: CalibrationData):
        return {f"{name}::{index:04d}": record
                for name, records in data.activations.items()
                for index, record in enumerate(records)}

    def decode(payload) -> CalibrationData:
        grouped: Dict[str, List[Tuple[int, np.ndarray]]] = {}
        for key, record in payload.items():
            name, _, index = key.rpartition("::")
            grouped.setdefault(name, []).append((int(index), record))
        data = CalibrationData()
        for name in sorted(grouped):
            data.activations[name] = [record for _, record
                                      in sorted(grouped[name],
                                                key=lambda item: item[0])]
        return data

    graph.add(Stage(
        stage_id=stage_id, kind="calibration",
        inputs={"calibration": asdict(calibration), "num_steps": num_steps,
                "prompts": _prompts_key(used_prompts)},
        deps=(pretrain_id,), encoding="arrays",
        compute=compute, encode=encode, decode=decode))
    return stage_id


def add_quantize_stage(graph: StageGraph, model: str, pretrain_id: str,
                       calibration_id: Optional[str],
                       config: QuantizationConfig, num_steps: int,
                       prompts: Optional[Sequence[str]] = None,
                       stage_id: Optional[str] = None) -> str:
    """Quantized-pipeline stage; artifact is the quantized model + report.

    ``num_steps`` only shapes the throwaway pipeline wrapper used while
    quantizing — the quantized weights depend on the checkpoint, the config
    and the (separately keyed) calibration data, so it is deliberately left
    out of this stage's inputs.
    """
    stage_id = stage_id or f"quantize/{model}/{_slug(config.label)}"

    def compute(deps):
        pipeline = DiffusionPipeline(deps[pretrain_id], num_steps=num_steps)
        calibration = deps[calibration_id] if calibration_id else None
        quantized, report = quantize_pipeline(
            pipeline, config, prompts=prompts, calibration=calibration)
        return quantized.model, report

    deps = (pretrain_id,) + ((calibration_id,) if calibration_id else ())
    graph.add(Stage(
        stage_id=stage_id, kind="quantize",
        inputs={"config": config.to_dict()},
        deps=deps, encoding="pickle", compute=compute,
        encode=lambda value: {"model": value[0], "report": value[1].to_dict()},
        decode=lambda payload: (payload["model"],
                                QuantizationReport.from_dict(payload["report"]))))
    return stage_id


def add_generate_stage(graph: StageGraph, stage_id: str, source_id: str,
                       source_is_quantized: bool, num_images: int,
                       num_steps: int, seed: int, batch_size: int,
                       prompts: Optional[Sequence[str]] = None,
                       plan: Optional[GenerationPlan] = None) -> str:
    """Image-set generation stage (seed-matched, chunked like the harness).

    ``plan`` selects the generation trajectory.  Keys stay backwards
    compatible: a plan's step budget folds into the existing ``num_steps``
    input, and the trajectory fingerprint joins the key only when it differs
    from the default DDIM trajectory — so default-plan stages keep their
    pre-plan artifact keys while any sampler/guidance change re-keys exactly
    the generate (and downstream evaluate) stages.
    """
    if plan is not None and plan.num_steps is not None:
        num_steps = plan.num_steps

    def compute(deps):
        source = deps[source_id]
        model = source[0] if source_is_quantized else source
        pipeline = DiffusionPipeline(model, num_steps=num_steps, plan=plan)
        if prompts is not None:
            return pipeline.generate_from_prompts(list(prompts), seed=seed,
                                                  batch_size=batch_size)
        return pipeline.generate(num_images, seed=seed, batch_size=batch_size)

    inputs = {"num_images": num_images, "num_steps": num_steps,
              "seed": seed, "batch_size": batch_size,
              "prompts": _prompts_key(prompts)}
    if plan is not None and not plan.is_default():
        inputs["plan"] = plan.trajectory_fingerprint()
    graph.add(Stage(
        stage_id=stage_id, kind="generate",
        inputs=inputs,
        deps=(source_id,), encoding="arrays", compute=compute,
        encode=lambda images: {"images": images},
        decode=lambda payload: payload["images"]))
    return stage_id


# ----------------------------------------------------------------------
# the experiment plan
# ----------------------------------------------------------------------
@dataclass
class RowPlan:
    """Where one table row's artifacts live in the graph."""

    label: str
    generate_id: str
    quantize_id: Optional[str] = None
    evaluate_ids: Dict[str, str] = field(default_factory=dict)


@dataclass
class ExperimentPlan:
    """A compiled spec: the stage graph plus the result-assembly mapping."""

    spec: ExperimentSpec
    graph: StageGraph
    row_plans: List[RowPlan]
    reference_ids: Dict[str, str]

    def assemble(self, values: Dict[str, object]) -> TableResult:
        """Build the classic :class:`TableResult` from executed stage values."""
        rows: List[ExperimentRow] = []
        for plan in self.row_plans:
            metrics = {reference: values[eval_id]
                       for reference, eval_id in plan.evaluate_ids.items()}
            report = (values[plan.quantize_id][1]
                      if plan.quantize_id is not None else None)
            generated = (values[plan.generate_id]
                         if self.spec.keep_images else None)
            rows.append(ExperimentRow(label=plan.label, metrics=metrics,
                                      report=report, generated=generated))
        return TableResult(model_name=self.spec.model,
                           reference_names=list(self.spec.references),
                           rows=rows, settings=self.spec.settings)


def compile_experiment(spec: ExperimentSpec,
                       env: Optional[ExperimentEnv] = None) -> ExperimentPlan:
    """Compile a declarative spec into a content-addressed stage graph."""
    env = env or ExperimentEnv()
    settings = spec.settings
    model_spec = get_model_spec(spec.model)
    text_to_image = model_spec.task == "text-to-image"
    for plan in [spec.plan] + [spec.row_plan(row) for row in spec.rows]:
        if plan is not None:
            plan.validate_for_model(model_spec.task, spec.model)

    prompt_dataset = None
    prompts = None
    if text_to_image:
        prompt_dataset = PromptDataset(settings.num_images,
                                       image_size=model_spec.image_size,
                                       seed=settings.seed + 7)
        prompts = prompt_dataset.prompts

    graph = StageGraph()
    pretrain_id = add_pretrain_stage(graph, spec.model, settings.pretrain,
                                     zoo_cache_dir=env.zoo_cache_dir)

    def full_precision_generate() -> str:
        # Generated under the spec-level plan, so "vs full-precision"
        # comparisons hold the trajectory fixed between the quantized rows
        # and their FP reference.
        return add_generate_stage(
            graph, f"generate/{spec.model}/full-precision", pretrain_id,
            source_is_quantized=False, num_images=settings.num_images,
            num_steps=settings.num_steps, seed=settings.seed,
            batch_size=settings.batch_size, prompts=prompts, plan=spec.plan)

    reference_ids: Dict[str, str] = {}
    for reference in spec.references:
        if reference == "dataset":
            stage_id = f"dataset-reference/{spec.model}"
            seed = settings.seed + 99
            num = settings.num_images
            size = model_spec.image_size

            def compute_reference(deps, _m=spec.model, _n=num, _s=size, _seed=seed):
                return _dataset_reference(_m, _n, _s, _seed)

            graph.add(Stage(
                stage_id=stage_id, kind="dataset-reference",
                inputs={"model": spec.model, "num_images": num,
                        "image_size": size, "seed": seed},
                encoding="arrays", compute=compute_reference,
                encode=lambda images: {"images": images},
                decode=lambda payload: payload["images"]))
            reference_ids[reference] = stage_id
        else:
            reference_ids[reference] = full_precision_generate()

    # The plan-less label identifies the row's quantization work: rows that
    # sweep plans over one config share a single quantize stage.
    scaled_rows = [(row.resolved_label(settings),
                    row.resolved_label(settings, include_plan=False),
                    settings.scale_config(row.resolve_config()),
                    spec.row_plan(row))
                   for row in spec.rows]
    needs_calibration = any(not config.is_full_precision()
                            and config.requires_calibration()
                            for _, _, config, _ in scaled_rows)
    calibration_id = None
    if needs_calibration:
        calibration_id = add_calibration_stage(
            graph, spec.model, pretrain_id, settings.calibration_config(),
            num_steps=settings.num_steps, prompts=prompts)

    use_clip = spec.with_clip and text_to_image
    prompt_specs = prompt_dataset.specs if use_clip else None

    row_plans: List[RowPlan] = []
    for label, row_base_label, config, generation_plan in scaled_rows:
        slug = _slug(label)
        if config.is_full_precision():
            quantize_id = None
            if generation_plan == spec.plan:
                generate_id = full_precision_generate()
            else:
                # A row-level plan that differs from the spec default gets
                # its own FP generation (the shared reference stays on the
                # spec plan).
                generate_id = add_generate_stage(
                    graph, f"generate/{spec.model}/{slug}", pretrain_id,
                    source_is_quantized=False, num_images=settings.num_images,
                    num_steps=settings.num_steps, seed=settings.seed,
                    batch_size=settings.batch_size, prompts=prompts,
                    plan=generation_plan)
        else:
            row_calibration = (calibration_id
                               if config.requires_calibration() else None)
            quantize_id = add_quantize_stage(
                graph, spec.model, pretrain_id, row_calibration, config,
                num_steps=settings.num_steps, prompts=prompts,
                stage_id=f"quantize/{spec.model}/{_slug(row_base_label)}")
            generate_id = add_generate_stage(
                graph, f"generate/{spec.model}/{slug}", quantize_id,
                source_is_quantized=True, num_images=settings.num_images,
                num_steps=settings.num_steps, seed=settings.seed,
                batch_size=settings.batch_size, prompts=prompts,
                plan=generation_plan)

        evaluate_ids: Dict[str, str] = {}
        for reference in spec.references:
            reference_id = reference_ids[reference]
            evaluate_id = (f"evaluate/{spec.model}/{slug}"
                           f"/vs-{_slug(reference)}")

            def compute_metrics(deps, _gen=generate_id, _ref=reference_id,
                                _specs=prompt_specs):
                return evaluate_images(deps[_gen], deps[_ref],
                                       prompt_specs=_specs)

            graph.add(Stage(
                stage_id=evaluate_id, kind="evaluate",
                inputs={"reference": reference, "clip": use_clip,
                        "prompts": _prompts_key(prompts) if use_clip else None},
                deps=(generate_id, reference_id), encoding="json",
                compute=compute_metrics,
                encode=lambda result: asdict(result),
                decode=lambda payload: EvaluationResult(**payload)))
            evaluate_ids[reference] = evaluate_id

        row_plans.append(RowPlan(label=label, generate_id=generate_id,
                                 quantize_id=quantize_id,
                                 evaluate_ids=evaluate_ids))

    return ExperimentPlan(spec=spec, graph=graph, row_plans=row_plans,
                          reference_ids=reference_ids)
