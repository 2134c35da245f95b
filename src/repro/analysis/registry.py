"""Checker registry and the analysis driver.

A checker is a class with a ``name``, a ``description`` and a
``check(project) -> List[Finding]`` method, registered via
:func:`register_checker` (mirroring the scheme/sampler/workload registries
elsewhere in the repo).

Checkers come in two execution shapes:

* **project checkers** implement ``check`` and see the whole project —
  the interprocedural rules (determinism, race-discipline, stage-purity,
  hot-path-alloc) live here;
* **per-file checkers** implement ``check_module(module)`` instead; the
  base ``check`` runs it over every module.

What the rules mean for this repository (virtual-time modules, purity
boundaries, worker entries, GEMM modules) is policy, kept as constants in
:mod:`repro.analysis.config`.

:func:`run_analysis` is the driver: it runs the selected rules, times
each one and applies the pragma suppressions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Type

from .callgraph import get_context
from .findings import Finding
from .project import Module, Project

_CHECKERS: Dict[str, Type] = {}


class Checker:
    """Base class; subclasses set ``name``/``description`` and ``check``."""

    name: str = ""
    description: str = ""
    #: Whether ``check`` reads the shared call graph
    #: (:func:`~repro.analysis.callgraph.get_context`).
    uses_call_graph: bool = False

    def check(self, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        for module in project.modules:
            findings.extend(self.check_module(module))
        return findings

    def check_module(self, module: Module) -> List[Finding]:
        raise NotImplementedError


def register_checker(cls: Type) -> Type:
    """Class decorator registering a checker under its ``name``."""
    if not getattr(cls, "name", ""):
        raise ValueError(f"checker {cls.__name__} needs a non-empty name")
    if cls.name in _CHECKERS:
        raise ValueError(f"duplicate checker name '{cls.name}'")
    _CHECKERS[cls.name] = cls
    return cls


def available_checkers() -> List[Tuple[str, str]]:
    """(name, description) for every registered checker, sorted by name."""
    _ensure_builtin_checkers()
    return sorted((cls.name, cls.description)
                  for cls in _CHECKERS.values())


def get_checker(name: str) -> Checker:
    _ensure_builtin_checkers()
    try:
        return _CHECKERS[name]()
    except KeyError:
        known = ", ".join(sorted(_CHECKERS))
        raise KeyError(f"unknown checker '{name}'; known: {known}") from None


def _ensure_builtin_checkers() -> None:
    # Imported lazily so `import repro.analysis.registry` never cycles with
    # the checker modules (which import Checker/register_checker from here).
    from . import checkers  # noqa: F401


@dataclass
class AnalysisRun:
    """Everything one driver pass produced."""

    findings: List[Finding]
    suppressed: int
    #: rule name -> seconds (plus "total").
    timing: Dict[str, float] = field(default_factory=dict)


def run_analysis(project: Project,
                 rules: Optional[Sequence[str]] = None) -> AnalysisRun:
    """Run checkers over ``project``, timing each rule.

    ``rules=None`` runs every registered checker.  The call graph the
    graph rules share is built first, when one of them is selected, and
    timed as ``"context"``.  Pragma-suppressed findings are dropped
    (counted), parse errors from project loading are prepended as
    ``syntax`` findings (never suppressible).
    """
    _ensure_builtin_checkers()
    names = list(rules) if rules is not None else [name for name, _
                                                   in available_checkers()]
    started = time.perf_counter()
    timing: Dict[str, float] = {}
    checkers = [get_checker(name) for name in names]
    if any(checker.uses_call_graph for checker in checkers):
        get_context(project)
        timing["context"] = time.perf_counter() - started
    raw: List[Finding] = []
    for name, checker in zip(names, checkers):
        rule_started = time.perf_counter()
        raw.extend(checker.check(project))
        timing[name] = time.perf_counter() - rule_started
    timing["total"] = time.perf_counter() - started

    by_path = {module.rel_path: module for module in project.modules}
    findings: List[Finding] = list(project.errors)
    suppressed = 0
    for finding in raw:
        module = by_path.get(finding.path)
        if module is not None and module.allows(finding.rule, finding.line):
            suppressed += 1
            continue
        findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule, f.message))
    return AnalysisRun(findings=findings, suppressed=suppressed,
                       timing=timing)
