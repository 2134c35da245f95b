"""Rule ``determinism``: no ambient time or entropy in virtual-time code.

The serving tier, the cluster simulator, the experiment stage builders and
the sampler loops are all asserted byte-identical across same-seed runs in
CI.  That guarantee holds exactly as long as none of that code reads a wall
clock or an unseeded RNG: a single ``time.time()`` turns a reproducible
10^6-request cluster report into a flaky one, and an unseeded
``default_rng()`` silently decouples an artifact from its content key.

The rule has two layers, both driven by the per-module fact summaries and
the project call graph (:mod:`repro.analysis.callgraph`):

**Local facts** — in the virtual-time modules (``config.py``):

* any *use* of a wall-clock callable (``time.time``, ``time.monotonic``,
  ``time.perf_counter`` and friends, ``datetime.now``/``utcnow``/``today``)
  — referencing one is as bad as calling it, since storing it in a
  variable or passing it as an argument reintroduces ambient time;
* any use of the process-global RNG APIs (``random.random``,
  ``np.random.rand``, ``np.random.seed``, ...), whose state is shared
  mutable ambience by construction;
* calling an RNG *factory* with no seed (``np.random.default_rng()``,
  ``random.Random()``).

**Interprocedural taint** — a call site in a virtual-time module whose
resolved callee *transitively* reaches a wall-clock or global-RNG read is
flagged at the call site, with the witnessed chain in the message
(``reaches wall-clock 'time.time' via stats.flush -> util.stamp``).  The
taint stops at the configured clock-boundary modules (their job is to own
the real clock behind injectable parameters) and at callees that are
themselves virtual-time (their reads are already local findings at the
precise line).

The one sanctioned position is a **function-signature default**
(``def __init__(self, clock=time.perf_counter)``): that is the
clock-injection idiom — ambient time may only enter through a parameter a
caller can override with a :class:`~repro.serving.clock.VirtualClock`.
"""

from __future__ import annotations

from typing import Dict, List

# Canonical fact sets live with the summary extractor; re-exported here
# because this checker is their natural documentation home.
from ..callgraph import (GLOBAL_RNG, MODULE_SCOPE, SEEDABLE_FACTORIES,
                         WALL_CLOCKS, ModuleSummary, get_context)
from ..config import CLOCK_BOUNDARIES, is_virtual_time, matches
from ..dataflow import TaintStep, propagate_taint, witness_chain
from ..findings import Finding
from ..project import Project
from ..registry import Checker, register_checker

__all__ = ["DeterminismChecker", "WALL_CLOCKS", "GLOBAL_RNG",
           "SEEDABLE_FACTORIES"]


@register_checker
class DeterminismChecker(Checker):
    name = "determinism"
    description = ("virtual-time modules must not read wall clocks or "
                   "unseeded/global RNG, directly or through callees "
                   "(signature defaults excepted)")
    uses_call_graph = True

    def check(self, project: Project) -> List[Finding]:
        context = get_context(project)
        graph = context.graph
        findings: List[Finding] = []

        # ---- local facts in virtual-time modules ----------------------
        for module_name in sorted(context.summaries):
            summary = context.summaries[module_name]
            if not is_virtual_time(summary.pkg_path):
                continue
            for qualname in sorted(summary.functions):
                fn = summary.functions[qualname]
                symbol = None if qualname == MODULE_SCOPE else qualname
                for ref in fn.clocks:
                    if ref.in_default:
                        continue
                    findings.append(self._finding(
                        summary, ref, symbol,
                        f"wall-clock '{ref.dotted}' used in a virtual-time "
                        f"module; inject a clock parameter instead"))
                for ref in fn.rngs:
                    if ref.in_default:
                        continue
                    findings.append(self._finding(
                        summary, ref, symbol,
                        f"process-global RNG '{ref.dotted}' used in a "
                        f"virtual-time module; pass a seeded Generator"))
                for ref in fn.factories:
                    findings.append(self._finding(
                        summary, ref, symbol,
                        f"unseeded '{ref.dotted}()' in a virtual-time "
                        f"module; derive the seed from the stage "
                        f"inputs/config"))

        # ---- interprocedural taint ------------------------------------
        def is_boundary(func_id: str) -> bool:
            summary = graph.module_of(func_id)
            return summary is None or matches(summary.pkg_path,
                                              CLOCK_BOUNDARIES)

        local: Dict[str, TaintStep] = {}
        for func_id in sorted(graph.functions):
            fn = graph.function(func_id)
            facts = ([(ref.line, f"wall-clock '{ref.dotted}'")
                      for ref in fn.clocks if not ref.in_default]
                     + [(ref.line, f"global RNG '{ref.dotted}'")
                        for ref in fn.rngs if not ref.in_default])
            if facts:
                line, fact = min(facts)
                local[func_id] = TaintStep(fact=fact, via="", line=line)

        tainted = propagate_taint(graph, local, stop=is_boundary)

        for func_id in sorted(graph.functions):
            summary = graph.module_of(func_id)
            if not is_virtual_time(summary.pkg_path):
                continue
            fn = graph.function(func_id)
            symbol = (None if fn.qualname == MODULE_SCOPE
                      else fn.qualname)
            for callee, site in graph.callees(func_id):
                callee_summary = graph.module_of(callee)
                if callee in tainted and not is_virtual_time(
                        callee_summary.pkg_path):
                    chain = witness_chain(tainted, callee)
                    findings.append(Finding(
                        rule=self.name, path=summary.rel_path,
                        line=site.line, col=site.col, symbol=symbol,
                        message=(f"call into "
                                 f"'{_short(callee)}' reaches "
                                 f"{' -> '.join(chain)} outside this "
                                 f"virtual-time module; inject a clock/"
                                 f"seeded Generator through the call "
                                 f"instead")))
        return findings

    # ------------------------------------------------------------------
    @staticmethod
    def _finding(summary: ModuleSummary, ref, symbol,
                 message: str) -> Finding:
        return Finding(rule="determinism", path=summary.rel_path,
                       line=ref.line, col=ref.col,
                       message=message, symbol=symbol)


def _short(func_id: str) -> str:
    return ".".join(func_id.split(".")[-2:])
