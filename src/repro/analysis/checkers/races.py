"""Rule ``race-discipline``: shared state touched from worker threads.

PR 5 made the experiment runner a thread pool and PR 6/7 grew serving and
telemetry code that runs under it.  The failure mode this rule exists for
is the quiet one: a module-global memo or registry written without a lock,
correct for years on the main thread, silently corrupted the day a stage
or an engine callback reaches it from a worker.

The thread-context lattice comes from the call graph: every function
handed to an executor ``submit`` (discovered from the AST) plus the
worker entry points (``config.WORKER_ENTRIES``) seed a forward
reachability pass — everything in the closure is *worker-reachable*.
Inside that set, any mutation of a module-global (rebinding via
``global``, item assignment or deletion, mutating container method,
attribute write on a module-global object) must be

* lexically under a ``with`` on a recognizable ``threading.Lock`` (a
  module-global lock or a ``self._lock``-style attribute assigned in the
  class), or
* state that is ``threading.local`` by construction, or
* carry a reasoned ``# repro: allow[race-discipline]`` pragma.

Unresolvable dynamic calls produce no graph edges, so the worker set is an
under-approximation: every finding sits on a witnessed chain from a real
spawn point, which is what keeps the gate free of false positives.
"""

from __future__ import annotations

from typing import List

from ..callgraph import MODULE_SCOPE, get_context
from ..config import WORKER_ENTRIES, matches
from ..dataflow import reachable_from
from ..findings import Finding
from ..project import Project
from ..registry import Checker, register_checker


@register_checker
class RaceDisciplineChecker(Checker):
    name = "race-discipline"
    description = ("module-global mutations reachable from worker threads "
                   "must hold a lock or be threading.local")
    uses_call_graph = True

    def check(self, project: Project) -> List[Finding]:
        context = get_context(project)
        graph = context.graph

        seeds = set()
        for func_id, spawned in graph.spawn_edges.items():
            del func_id
            for callee, _ in spawned:
                seeds.add(callee)
        for func_id in graph.functions:
            # Module scope runs at import time, on one thread — never a seed.
            if func_id.endswith(f".{MODULE_SCOPE}"):
                continue
            if matches(func_id, WORKER_ENTRIES):
                seeds.add(func_id)

        worker_reachable = reachable_from(graph, seeds)

        findings: List[Finding] = []
        for func_id in sorted(worker_reachable):
            summary = graph.module_of(func_id)
            fn = graph.function(func_id)
            if summary is None or fn is None:
                continue
            for mutation in fn.mutations:
                if mutation.locked:
                    continue
                kind = summary.globals.get(mutation.target, "other")
                if kind == "thread_local":
                    continue
                what = {
                    "rebind": "rebinds module global",
                    "subscript": "writes an item of module global",
                    "method": "mutates module global",
                    "attr": "writes an attribute of module global",
                }.get(mutation.kind, "mutates module global")
                findings.append(Finding(
                    rule=self.name, path=summary.rel_path,
                    line=mutation.line, col=mutation.col,
                    symbol=fn.qualname,
                    message=(f"worker-reachable code {what} "
                             f"'{mutation.target}' ({mutation.detail}) "
                             f"without holding a lock; guard it with a "
                             f"threading.Lock, make it threading.local, "
                             f"or annotate why it is safe")))
        return findings
