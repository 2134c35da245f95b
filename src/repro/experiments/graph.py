"""Stage graphs: content-addressed DAGs of experiment work.

A :class:`Stage` is one unit of cached work (pretrain a checkpoint, collect
calibration data, quantize a pipeline, generate an image set, evaluate
metrics).  Its identity for caching is the **fingerprint**: a content hash
of the stage kind, its JSON-able inputs and the fingerprints of its
dependencies, so a change anywhere upstream re-keys everything downstream
while untouched subtrees keep their artifacts.

The callables on a stage are deliberately split three ways:

* ``compute(deps)`` produces the in-memory value from dependency values,
* ``encode(value)`` turns the value into a storable payload
  (``arrays`` / ``json`` / ``pickle`` — see :mod:`repro.experiments.store`),
* ``decode(payload)`` rebuilds the value from a stored payload on cache hit.

:class:`StageGraph` holds stages in dependency (insertion) order and
computes fingerprints; execution and manifests live in
:mod:`repro.experiments.runner`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from ..core.hashing import content_hash

#: Salt mixed into every stage fingerprint.  Keys are computed from stage
#: *inputs*, not from the code that executes the stage — bump this whenever
#: a stage implementation changes its outputs for identical inputs, so
#: existing stores invalidate wholesale instead of serving stale artifacts.
#: Version 2: quantize artifacts pickle packed layers as their levels only
#: (no float weight, no pre-quantization ``original_weight``).
STORE_SCHEMA_VERSION = 2


def _identity(value: Any) -> Any:
    return value


@dataclass
class Stage:
    """One content-addressed node of an experiment graph."""

    stage_id: str
    kind: str
    inputs: Dict
    deps: Tuple[str, ...] = ()
    encoding: str = "arrays"
    compute: Callable[[Dict[str, Any]], Any] = None
    encode: Callable[[Any], Any] = _identity
    decode: Callable[[Any], Any] = _identity


class StageGraph:
    """An ordered DAG of stages; insertion order is a topological order."""

    def __init__(self):
        self._stages: Dict[str, Stage] = {}
        self._fingerprints: Dict[str, str] = {}

    # ------------------------------------------------------------------
    def add(self, stage: Stage) -> Stage:
        """Insert ``stage``; dependencies must already be present.

        Re-adding a ``stage_id`` with the *same* kind/inputs/deps returns
        the existing stage (the compiler reuses shared stages, e.g. the
        FP32 generation feeding both the FP32 table row and the "vs
        full-precision" reference).  Re-adding it with different content is
        an error — otherwise two distinct computations would silently alias
        one artifact (e.g. two row labels that slugify identically).
        """
        existing = self._stages.get(stage.stage_id)
        if existing is not None:
            if (existing.kind != stage.kind
                    or tuple(existing.deps) != tuple(stage.deps)
                    or content_hash(existing.inputs) != content_hash(stage.inputs)):
                raise ValueError(
                    f"stage id '{stage.stage_id}' already exists with "
                    f"different kind/inputs/deps; give the conflicting "
                    f"stages distinct ids (e.g. distinct row labels)")
            return existing
        for dep in stage.deps:
            if dep not in self._stages:
                raise ValueError(
                    f"stage '{stage.stage_id}' depends on unknown stage "
                    f"'{dep}'; add dependencies first")
        self._stages[stage.stage_id] = stage
        return stage

    def __contains__(self, stage_id: str) -> bool:
        return stage_id in self._stages

    def __getitem__(self, stage_id: str) -> Stage:
        return self._stages[stage_id]

    def __len__(self) -> int:
        return len(self._stages)

    @property
    def stages(self) -> List[Stage]:
        """Stages in insertion (topological) order."""
        return list(self._stages.values())

    def dependents(self) -> Dict[str, List[str]]:
        """Map of stage id -> ids of stages that depend on it (deduped)."""
        children: Dict[str, List[str]] = {sid: [] for sid in self._stages}
        for stage in self._stages.values():
            for dep in dict.fromkeys(stage.deps):
                children[dep].append(stage.stage_id)
        return children

    # ------------------------------------------------------------------
    def fingerprint(self, stage_id: str) -> str:
        """Content hash of a stage's kind, inputs and dependency hashes."""
        cached = self._fingerprints.get(stage_id)
        if cached is not None:
            return cached
        stage = self._stages[stage_id]
        digest = content_hash({
            "schema": STORE_SCHEMA_VERSION,
            "kind": stage.kind,
            "inputs": stage.inputs,
            "deps": [self.fingerprint(dep) for dep in stage.deps],
        })
        self._fingerprints[stage_id] = digest
        return digest

    def count_kind(self, kind: str) -> int:
        return sum(1 for stage in self._stages.values() if stage.kind == kind)
