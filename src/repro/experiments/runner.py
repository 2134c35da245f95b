"""Execute stage graphs against the run store; emit run manifests.

The :class:`Runner` walks a :class:`~repro.experiments.graph.StageGraph` in
dependency order, short-circuiting every stage whose fingerprint is already
in the :class:`~repro.experiments.store.RunStore` and computing (then
persisting) the rest.  With ``max_workers > 1`` independent stages run
concurrently on a thread pool; results are deterministic regardless of
schedule because every stage derives its randomness from explicit seeds in
its hashed inputs — nothing reads a shared RNG.

Every run emits a :class:`RunManifest`: one record per stage (kind,
content key, cache hit/miss, duration, artifact path) in topological
order, plus aggregate cache statistics.  Manifests are JSON-serializable
so CI can archive them and tests can assert structural properties ("one
pretrain stage per model", "second run is >= 90% cache hits").
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from .graph import Stage, StageGraph
from .spec import ExperimentSpec, TableResult
from .stages import ExperimentEnv, compile_experiment
from .store import RunStore

#: Lazily-created store shared by every ``store=None`` call in the process.
#: Lock-guarded: callers fan work out to thread pools, and two threads
#: racing the first call must not each build (and write through) their own
#: store.
_DEFAULT_STORES: dict = {}
_DEFAULT_STORE_LOCK = threading.Lock()


def default_run_store() -> RunStore:
    """The process-wide artifact store ``run_experiment`` defaults to."""
    with _DEFAULT_STORE_LOCK:
        store = _DEFAULT_STORES.get("default")
        if store is None:
            store = RunStore()
            _DEFAULT_STORES["default"] = store
    return store


@dataclass
class StageRecord:
    """What happened to one stage during a run.

    ``started_s``/``finished_s`` are offsets from the run's start on the
    runner's clock (wall time by default), so manifests archived by CI
    show where each stage sat inside the run — the same interval the
    runner's tracer books as the stage's span.
    """

    stage_id: str
    kind: str
    key: str
    cache_hit: bool
    duration_s: float
    artifact_path: Optional[str] = None
    deps: List[str] = field(default_factory=list)
    started_s: Optional[float] = None
    finished_s: Optional[float] = None

    def to_dict(self) -> Dict:
        return {
            "stage_id": self.stage_id, "kind": self.kind, "key": self.key,
            "cache_hit": self.cache_hit, "duration_s": self.duration_s,
            "artifact_path": self.artifact_path, "deps": list(self.deps),
            "started_s": self.started_s, "finished_s": self.finished_s,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "StageRecord":
        return cls(stage_id=data["stage_id"], kind=data["kind"],
                   key=data["key"], cache_hit=data["cache_hit"],
                   duration_s=data["duration_s"],
                   artifact_path=data.get("artifact_path"),
                   deps=list(data.get("deps", [])),
                   started_s=data.get("started_s"),
                   finished_s=data.get("finished_s"))


@dataclass
class RunManifest:
    """Per-stage execution log of one run, in topological stage order."""

    stages: List[StageRecord] = field(default_factory=list)
    spec_fingerprint: Optional[str] = None
    name: Optional[str] = None
    model: Optional[str] = None
    total_duration_s: float = 0.0
    max_workers: int = 1
    #: Run-store counter deltas for this run ({"hits", "misses", "writes"}),
    #: None when the runner had no store.
    store: Optional[Dict] = None

    # ------------------------------------------------------------------
    @property
    def cache_hits(self) -> int:
        return sum(1 for record in self.stages if record.cache_hit)

    @property
    def cache_misses(self) -> int:
        return len(self.stages) - self.cache_hits

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / len(self.stages) if self.stages else 0.0

    def kind_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for record in self.stages:
            counts[record.kind] = counts.get(record.kind, 0) + 1
        return counts

    def stage(self, stage_id: str) -> StageRecord:
        for record in self.stages:
            if record.stage_id == stage_id:
                return record
        raise KeyError(f"no stage '{stage_id}' in manifest")

    def structure(self) -> List[Tuple[str, str, str, bool]]:
        """Schedule-independent shape: (stage_id, kind, key, cache_hit).

        Two runs of the same graph against equally-warm stores produce
        identical structures whatever ``max_workers`` was — only durations
        and artifact roots may differ.
        """
        return [(record.stage_id, record.kind, record.key, record.cache_hit)
                for record in self.stages]

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "model": self.model,
            "spec_fingerprint": self.spec_fingerprint,
            "max_workers": self.max_workers,
            "total_duration_s": self.total_duration_s,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "hit_rate": self.hit_rate,
            "kind_counts": self.kind_counts(),
            "store": self.store,
            "stages": [record.to_dict() for record in self.stages],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "RunManifest":
        return cls(
            stages=[StageRecord.from_dict(r) for r in data.get("stages", [])],
            spec_fingerprint=data.get("spec_fingerprint"),
            name=data.get("name"), model=data.get("model"),
            total_duration_s=data.get("total_duration_s", 0.0),
            max_workers=data.get("max_workers", 1),
            store=data.get("store"))

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        return cls.from_dict(json.loads(text))

    def save(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json(indent=2) + "\n")
        return path


@dataclass
class ExperimentRun:
    """One executed spec: the assembled table plus its manifest."""

    spec: ExperimentSpec
    table: TableResult
    manifest: RunManifest


class Runner:
    """Executes stage graphs, caching each stage in the run store.

    ``store=None`` disables artifact caching (every stage recomputes).
    ``max_workers`` bounds how many independent stages run concurrently;
    1 (the default) executes sequentially in topological order.
    """

    def __init__(self, store: Optional[RunStore] = None, max_workers: int = 1,
                 use_cache: bool = True,
                 zoo_cache_dir: Optional[Path] = None,
                 clock=time.perf_counter, tracer=None):
        """``clock`` is any zero-argument seconds callable (consistent with
        :class:`~repro.serving.clock.VirtualClock`); every stage duration
        and manifest timestamp comes from it, so tests can drive a runner
        clock-free.  ``tracer`` (:class:`repro.obs.Tracer`) books one span
        per stage — named ``stage.<kind>``, carrying the stage's store key
        and cache-hit flag — on a lane per worker thread."""
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.store = store
        self.max_workers = max_workers
        self.use_cache = use_cache
        self.zoo_cache_dir = zoo_cache_dir
        self.clock = clock
        self.tracer = tracer if (tracer is not None
                                 and getattr(tracer, "enabled", True)) else None

    # ------------------------------------------------------------------
    def _run_stage(self, stage: Stage, key: str, dep_values: Dict[str, Any],
                   run_started: float = 0.0) -> Tuple[Any, StageRecord]:
        started = self.clock()
        cache_hit = False
        artifact_path: Optional[Path] = None
        value = None
        if self.store is not None and self.use_cache:
            payload = self.store.load(key)
            if payload is not None:
                value = stage.decode(payload)
                cache_hit = True
                artifact_path = self.store.find(key)
        if not cache_hit:
            value = stage.compute(dep_values)
            if self.store is not None:
                artifact_path = self.store.save(
                    key, stage.encode(value), stage.encoding,
                    meta={"stage_id": stage.stage_id, "kind": stage.kind,
                          "inputs": stage.inputs, "deps": list(stage.deps)})
        finished = self.clock()
        if self.tracer is not None:
            # Lane defaults to the executing thread's name, so parallel
            # runs show one track per pool worker.
            self.tracer.add_span(f"stage.{stage.kind}", started, finished,
                                 category="runner", process="runner",
                                 attrs={"stage_id": stage.stage_id,
                                        "kind": stage.kind, "key": key,
                                        "cache_hit": cache_hit})
        record = StageRecord(
            stage_id=stage.stage_id, kind=stage.kind, key=key,
            cache_hit=cache_hit,
            duration_s=finished - started,
            artifact_path=str(artifact_path) if artifact_path else None,
            deps=list(stage.deps),
            started_s=started - run_started,
            finished_s=finished - run_started)
        return value, record

    # ------------------------------------------------------------------
    def execute(self, graph: StageGraph,
                name: Optional[str] = None,
                spec_fingerprint: Optional[str] = None,
                model: Optional[str] = None
                ) -> Tuple[Dict[str, Any], RunManifest]:
        """Run every stage; return ``(values by stage id, manifest)``."""
        started = self.clock()
        store_before = self.store.stats() if self.store is not None else None
        # Fingerprints are memoized inside the graph; computing them all up
        # front keeps the worker threads read-only.
        keys = {stage.stage_id: graph.fingerprint(stage.stage_id)
                for stage in graph.stages}
        values: Dict[str, Any] = {}
        records: Dict[str, StageRecord] = {}

        if self.max_workers == 1:
            for stage in graph.stages:
                dep_values = {dep: values[dep] for dep in stage.deps}
                value, record = self._run_stage(stage, keys[stage.stage_id],
                                                dep_values,
                                                run_started=started)
                values[stage.stage_id] = value
                records[stage.stage_id] = record
        else:
            self._execute_parallel(graph, keys, values, records, started)

        store_delta = None
        if store_before is not None:
            after = self.store.stats()
            store_delta = {counter: after[counter] - store_before[counter]
                           for counter in ("hits", "misses", "writes")}
        manifest = RunManifest(
            stages=[records[stage.stage_id] for stage in graph.stages],
            spec_fingerprint=spec_fingerprint, name=name, model=model,
            total_duration_s=self.clock() - started,
            max_workers=self.max_workers,
            store=store_delta)
        return values, manifest

    def _execute_parallel(self, graph: StageGraph, keys: Dict[str, str],
                          values: Dict[str, Any],
                          records: Dict[str, StageRecord],
                          run_started: float = 0.0) -> None:
        """Schedule independent stages on a thread pool.

        Bookkeeping (``values``/``records``/``remaining``) is only mutated
        from this thread; workers receive their dependency values by value
        at submission time, so there is no shared mutable state to race on.
        """
        children = graph.dependents()
        remaining = {stage.stage_id: len(set(stage.deps))
                     for stage in graph.stages}
        ready = [stage.stage_id for stage in graph.stages
                 if remaining[stage.stage_id] == 0]
        with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
            futures = {}

            def submit(stage_id: str) -> None:
                stage = graph[stage_id]
                dep_values = {dep: values[dep] for dep in stage.deps}
                future = pool.submit(self._run_stage, stage, keys[stage_id],
                                     dep_values, run_started)
                futures[future] = stage_id

            for stage_id in ready:
                submit(stage_id)
            while futures:
                done, _ = wait(list(futures), return_when=FIRST_COMPLETED)
                for future in done:
                    stage_id = futures.pop(future)
                    value, record = future.result()
                    values[stage_id] = value
                    records[stage_id] = record
                    for child in children[stage_id]:
                        remaining[child] -= 1
                        if remaining[child] == 0:
                            submit(child)

    # ------------------------------------------------------------------
    def run(self, spec: ExperimentSpec) -> ExperimentRun:
        """Compile and execute a spec; return table + manifest."""
        plan = compile_experiment(
            spec, env=ExperimentEnv(zoo_cache_dir=self.zoo_cache_dir))
        values, manifest = self.execute(
            plan.graph, name=spec.name, spec_fingerprint=spec.fingerprint(),
            model=spec.model)
        table = plan.assemble(values)
        table.manifest = manifest
        return ExperimentRun(spec=spec, table=table, manifest=manifest)


def run_experiment(spec: ExperimentSpec, store: Optional[RunStore] = None,
                   max_workers: int = 1, use_cache: bool = True,
                   zoo_cache_dir: Optional[Path] = None,
                   tracer=None) -> ExperimentRun:
    """One-call entry point: run ``spec`` against ``store``.

    ``store=None`` uses the process-wide :func:`default_run_store`, so
    separate calls (and entry points) share pretrain/calibration/reference
    artifacts.  Pass ``store=False`` to run without any artifact store;
    ``tracer`` records one span per stage.
    """
    if store is None:
        store = default_run_store()
    elif store is False:
        store = None
    runner = Runner(store=store, max_workers=max_workers, use_cache=use_cache,
                    zoo_cache_dir=zoo_cache_dir, tracer=tracer)
    return runner.run(spec)
