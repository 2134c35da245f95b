"""Rule ``schema-discipline``: JSON report formats have one home.

Every artifact the repo emits — traces, metrics snapshots, calibration
and cluster reports, bench reports, this analyzer's own report — carries
a ``family/vN`` schema tag that EXPERIMENTS.md documents and CI smoke
jobs assert against.  The drift mode: a writer spells the tag inline, a
reader spells it slightly differently, and the docs cover a third
spelling.  This rule pins every tag literal to the central registry
(:mod:`repro.schemas` — see ``config.SCHEMA_REGISTRY_MODULE``):

* inside the registry module, literals are the definitions — allowed;
* anywhere else under ``src/``, a ``family/vN`` string literal is a
  finding: import the registered constant instead, and validate outbound
  documents with ``repro.schemas.validate_document``.

The tag grammar is deliberately tight (``name[.name]*/v<digits>``), so
URL paths and version strings like ``"1.2/3"`` never match.  A tag that
genuinely is not a schema (say, a test fixture) takes a reasoned
``# repro: allow[schema-discipline]`` pragma.
"""

from __future__ import annotations

from typing import List

from ..callgraph import get_context
from ..config import SCHEMA_REGISTRY_MODULE
from ..findings import Finding
from ..project import Project
from ..registry import Checker, register_checker


@register_checker
class SchemaDisciplineChecker(Checker):
    name = "schema-discipline"
    description = ("'family/vN' schema tags must come from the central "
                   "registry module, not inline string literals")
    uses_call_graph = True

    def check(self, project: Project) -> List[Finding]:
        context = get_context(project)
        findings: List[Finding] = []
        for module_name in sorted(context.summaries):
            if module_name == SCHEMA_REGISTRY_MODULE:
                continue
            summary = context.summaries[module_name]
            for tag in summary.schema_tags:
                symbol = self._enclosing(summary, tag.line)
                findings.append(Finding(
                    rule=self.name, path=summary.rel_path,
                    line=tag.line, col=tag.col, symbol=symbol,
                    message=(f"schema tag '{tag.value}' spelled inline; "
                             f"import the registered constant from "
                             f"{SCHEMA_REGISTRY_MODULE} so the format "
                             f"cannot drift")))
        return findings

    @staticmethod
    def _enclosing(summary, line: int):
        best = None
        for qualname, fn in summary.functions.items():
            if fn.line <= line <= fn.end_line:
                if best is None or fn.line > summary.functions[best].line:
                    best = qualname
        return best
