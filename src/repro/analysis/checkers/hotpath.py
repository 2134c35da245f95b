"""Rule ``hot-path-alloc``: no per-iteration allocation in marked hot code.

The bench suite's fast arms exist because PR 5 removed exactly these
regressions from the sampler loops and conv paths: a fresh ndarray per
denoising step, a Tensor graph built where ``inference_mode`` should have
kept the forward graph-free, a closure object constructed inside the loop
body.  This rule freezes those wins.  It is strictly opt-in: only
functions carrying a ``# repro: hot`` marker on (or directly above) their
``def`` line are checked, and hotness propagates to helpers a hot
function calls *from the same module* — ``sample`` marks itself, and
``_ddim_step_into`` inherits.

Inside a hot function, the rule flags

* calls to numpy array constructors inside a loop body;
* ``.copy()`` / ``.astype()``-style allocating method calls inside a loop;
* ``Tensor(...)`` graph construction anywhere in the function that is not
  lexically under ``with inference_mode():`` (or ``no_grad``);
* ``lambda`` / nested ``def`` closure allocation inside a loop body.

Allocations under an ``if x is not None:`` guard are exempt — the idiom
for optional tracing/debug features that cost nothing when off.  For
allocations that are semantically required per iteration (fresh noise in
a stochastic sampler), annotate the line with a reasoned
``# repro: allow[hot-path-alloc]`` pragma.
"""

from __future__ import annotations

from typing import List, Set

from ..callgraph import CallGraph, FunctionSummary, ModuleSummary, get_context
from ..dataflow import reachable_from
from ..findings import Finding
from ..project import Project
from ..registry import Checker, register_checker


def _hot_functions(graph: CallGraph, summary: ModuleSummary) -> Set[str]:
    """Marked-hot functions of one module plus their same-module callees."""
    marked = [f"{summary.module_name}.{qualname}"
              for qualname, fn in summary.functions.items() if fn.hot]
    return reachable_from(graph, marked, stop=lambda func_id: (
        graph.module_of(func_id) is not summary))


@register_checker
class HotPathAllocChecker(Checker):
    name = "hot-path-alloc"
    description = ("functions marked '# repro: hot' must not allocate "
                   "per loop iteration or build Tensor graphs outside "
                   "inference_mode")
    uses_call_graph = True

    def check(self, project: Project) -> List[Finding]:
        context = get_context(project)
        graph = context.graph
        findings: List[Finding] = []
        for module_name in sorted(context.summaries):
            summary = context.summaries[module_name]
            for func_id in sorted(_hot_functions(graph, summary)):
                findings.extend(self._check_function(
                    summary, graph.function(func_id)))
        return findings

    def _check_function(self, summary: ModuleSummary,
                        fn: FunctionSummary) -> List[Finding]:
        findings: List[Finding] = []

        def finding(alloc, message: str) -> Finding:
            return Finding(rule=self.name, path=summary.rel_path,
                           line=alloc.line, col=alloc.col,
                           symbol=fn.qualname, message=message)

        for alloc in fn.allocs:
            if alloc.guarded:
                continue
            if alloc.kind == "ndarray" and alloc.in_loop:
                findings.append(finding(alloc, (
                    f"hot loop allocates a fresh ndarray via "
                    f"'{alloc.name}' every iteration; preallocate the "
                    f"buffer outside the loop and fill in place")))
            elif alloc.kind == "method" and alloc.in_loop:
                findings.append(finding(alloc, (
                    f"hot loop calls allocating method '{alloc.name}' "
                    f"every iteration; hoist or reuse a preallocated "
                    f"buffer")))
            elif alloc.kind == "closure" and alloc.in_loop:
                findings.append(finding(alloc, (
                    f"hot loop constructs a closure ({alloc.name}) every "
                    f"iteration; define it once outside the loop")))

        # Tensor-graph construction: flagged anywhere in a hot function
        # when not lexically under inference_mode/no_grad.
        for site in fn.calls:
            if site.under_inference or site.guarded:
                continue
            target = site.target or ""
            if target.split(".")[-1] == "Tensor" or target.endswith(
                    ".tensor.Tensor"):
                findings.append(Finding(
                    rule=self.name, path=summary.rel_path,
                    line=site.line, col=site.col, symbol=fn.qualname,
                    message=("hot code constructs a Tensor outside "
                             "'with inference_mode():'; graph bookkeeping "
                             "on the hot path defeats the fast path")))
        return findings
