"""Rule ``stage-purity``: stage-reachable code must not smuggle in hidden inputs.

Every experiment stage is cached under a content hash of its declared
inputs.  A function reachable from a stage's ``compute`` that reads a file,
an environment variable or mutable module-level state has an input the hash
does not cover — two runs with identical keys can produce different
artifacts, which silently poisons every downstream cache hit.

The checker walks the shared call graph (:mod:`repro.analysis.callgraph`)
from every function defined in the stage-builder modules
(``experiments/stages.py`` and ``experiments/variants.py`` — the
``compute``/``encode``/``decode`` closures live there), following resolved
calls, constructor calls (into ``__init__``), ``self.method()`` calls and
method calls on locals built by a constructor (``pipeline =
DiffusionPipeline(...); pipeline.generate(...)``), plus every def nested in
a reached function (a helper may return the closure that does the I/O).

Dynamic dispatch it cannot resolve is skipped — the walk under-approximates
so that every finding is real.  Inside reachable functions it flags:

* ``open()`` and filesystem helpers (``Path.write_text``, ``np.save``,
  ``pickle.dump``-style calls),
* ``os.environ`` / ``os.getenv`` reads,
* ``subprocess``/``socket`` use,
* ``global`` declarations and mutation of module-level mutable containers
  (the classic hidden-input shape: a module dict that remembers the last
  run).

Modules listed as *purity boundaries* (the RunStore API, atomic checkpoint
I/O, the content-keyed zoo cache) terminate the walk: their side effects
are keyed by the same content hashes as the stages themselves.  Pure
memoization caches keyed by all inputs can be annotated
``# repro: allow[stage-purity]``.
"""

from __future__ import annotations

from typing import List, Set

from ..callgraph import (MODULE_SCOPE, CallGraph, FunctionSummary,
                         ModuleSummary, get_context)
from ..config import PURITY_BOUNDARIES, STAGE_PURE_ROOTS, matches
from ..dataflow import reachable_from
from ..findings import Finding
from ..project import Project
from ..registry import Checker, register_checker

#: Mutation kinds this rule reports, by message verb.
_CONTAINER_WRITES = {"subscript": "writes", "method": "mutates"}


def _nested_defs(graph: CallGraph, func_id: str) -> List[str]:
    """Ids of every def nested (at any depth) in ``func_id``."""
    summary, fn = graph.functions[func_id]
    prefix = f"{fn.qualname}."
    return [f"{summary.module_name}.{qualname}"
            for qualname in summary.functions if qualname.startswith(prefix)]


@register_checker
class StagePurityChecker(Checker):
    name = "stage-purity"
    description = ("functions reachable from experiment stages must not do "
                   "I/O, read the environment or mutate module globals "
                   "outside the RunStore/zoo boundaries")
    uses_call_graph = True

    def check(self, project: Project) -> List[Finding]:
        graph = get_context(project).graph
        reached: Set[str] = set()

        def stop(func_id: str) -> bool:
            return func_id in reached or matches(
                graph.module_of(func_id).pkg_path, PURITY_BOUNDARIES)

        frontier = [func_id for func_id, (summary, fn)
                    in graph.functions.items()
                    if fn.qualname != MODULE_SCOPE
                    and matches(summary.pkg_path, STAGE_PURE_ROOTS)]
        while frontier:
            new = reachable_from(graph, frontier, stop)
            reached |= new
            frontier = [nested for func_id in new
                        for nested in _nested_defs(graph, func_id)
                        if nested not in reached]

        findings: List[Finding] = []
        for func_id in sorted(reached):
            findings.extend(self._facts(*graph.functions[func_id]))
        return findings

    def _facts(self, summary: ModuleSummary,
               fn: FunctionSummary) -> List[Finding]:
        def finding(fact, message: str) -> Finding:
            return Finding(rule=self.name, path=summary.rel_path,
                           line=fact.line, col=fact.col, message=message,
                           symbol=fn.qualname)

        findings = [finding(ref, "'global' rebinding inside stage-reachable "
                                 "code is a hidden input/output")
                    for ref in fn.global_decls]
        for ref in fn.io:
            if ref.dotted == "open":
                message = ("open() in stage-reachable code; route "
                           "artifacts through the RunStore API")
            elif ref.dotted.startswith("."):
                message = (f"filesystem method '{ref.dotted}()' in "
                           f"stage-reachable code")
            else:
                message = f"impure call '{ref.dotted}' in stage-reachable code"
            findings.append(finding(ref, message))
        findings.extend(finding(ref, f"environment access '{ref.dotted}' is "
                                     f"an undeclared stage input")
                        for ref in fn.env)
        for mutation in fn.mutations:
            verb = _CONTAINER_WRITES.get(mutation.kind)
            if verb and summary.globals.get(mutation.target) == "mutable":
                findings.append(finding(
                    mutation, f"{verb} module-level container "
                              f"'{mutation.target}' from stage-reachable "
                              f"code"))
        return findings
