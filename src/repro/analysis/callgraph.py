"""Project-wide call graph built from per-module fact summaries.

Two layers, split on purpose:

* :class:`ModuleSummary` — everything the interprocedural rules need to
  know about one file, extracted in a single AST walk.
* :class:`CallGraph` — summaries stitched together: local call descriptors
  resolved to project-wide function ids (``repro.zoo.registry.load_pretrained``),
  following package ``__init__`` re-exports and ``self.method`` dispatch.

Resolution is deliberately conservative: a call through a value we cannot
type (``stage.fn(...)``, ``self.sampler.sample(...)``) produces *no* edge.
Under-approximating the graph means every interprocedural finding sits on
a witnessed chain of resolved calls — which is what lets the CI gate stay
hard with no false positives.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .imports import import_map, resolve_attribute
from .project import Module, Project

#: Qualname of the pseudo-function holding module-level facts.
MODULE_SCOPE = "<module>"

#: Callables whose mere presence breaks a determinism contract.  These are
#: the canonical sets — the determinism checker re-exports them.
WALL_CLOCKS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.localtime", "time.gmtime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: Process-global RNG entry points (shared hidden state).
GLOBAL_RNG = frozenset(
    {f"random.{name}" for name in (
        "random", "randint", "randrange", "uniform", "gauss",
        "normalvariate", "shuffle", "choice", "choices", "sample", "seed",
        "getrandbits", "betavariate", "expovariate", "triangular",
        "vonmisesvariate", "paretovariate", "weibullvariate")}
    | {f"numpy.random.{name}" for name in (
        "seed", "rand", "randn", "randint", "random", "random_sample",
        "ranf", "sample", "standard_normal", "normal", "uniform", "choice",
        "shuffle", "permutation", "get_state", "set_state")})

#: RNG factories that are fine seeded and flagged when called with no
#: arguments.
SEEDABLE_FACTORIES = frozenset({
    "numpy.random.default_rng", "random.Random", "numpy.random.RandomState",
})

#: numpy entry points that materialize a fresh ndarray per call.
NDARRAY_ALLOCATORS = {
    "numpy.zeros", "numpy.ones", "numpy.empty", "numpy.full",
    "numpy.zeros_like", "numpy.ones_like", "numpy.empty_like",
    "numpy.full_like", "numpy.array", "numpy.asarray", "numpy.copy",
    "numpy.arange", "numpy.linspace", "numpy.concatenate", "numpy.stack",
    "numpy.tile", "numpy.repeat", "numpy.meshgrid",
}

#: methods that return a fresh array from any receiver.
ALLOCATING_METHODS = {"copy", "astype", "flatten", "tolist", "repeat"}

#: container methods that mutate their receiver in place.
MUTATING_METHODS = {
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "add", "discard", "update", "setdefault", "move_to_end", "appendleft",
}

_SCHEMA_TAG_RE = re.compile(r"[A-Za-z_][\w.]*/v\d+\Z")


# ----------------------------------------------------------------------
# summary data model
# ----------------------------------------------------------------------
@dataclass
class CallSite:
    """One call expression, with enough context for every rule."""

    target: Optional[str]        # import-resolved dotted name, or None
    self_method: Optional[str]   # "m" when the call is ``self.m(...)``
    line: int
    col: int
    in_loop: bool = False
    under_inference: bool = False
    guarded: bool = False        # inside an ``if x is not None:`` body


@dataclass
class FactRef:
    """A wall-clock / global-RNG / factory reference at a location."""

    dotted: str
    line: int
    col: int
    in_default: bool = False     # appears in a signature default


@dataclass
class Mutation:
    """A write to module-global (or module-global-object) state."""

    kind: str        # "rebind" | "subscript" | "method" | "attr"
    target: str      # the module-global name being written
    detail: str      # method / attribute involved, for the message
    line: int
    col: int
    locked: bool = False   # lexically under ``with <known lock>:``


@dataclass
class Alloc:
    """An allocation site relevant to the hot-path rule."""

    kind: str        # "ndarray" | "method" | "tensor" | "closure"
    name: str        # dotted callee, ".method" or "lambda"/"def"/"comprehension"
    line: int
    col: int
    in_loop: bool = False
    under_inference: bool = False
    guarded: bool = False


@dataclass
class FunctionSummary:
    """Per-function facts; ``qualname`` is dotted within the module."""

    qualname: str
    line: int
    end_line: int
    hot: bool = False
    has_loop: bool = False
    calls: List[CallSite] = field(default_factory=list)
    spawns: List[CallSite] = field(default_factory=list)
    clocks: List[FactRef] = field(default_factory=list)
    rngs: List[FactRef] = field(default_factory=list)
    factories: List[FactRef] = field(default_factory=list)
    mutations: List[Mutation] = field(default_factory=list)
    allocs: List[Alloc] = field(default_factory=list)


@dataclass
class SchemaTag:
    """A ``family/vN`` string literal occurrence."""

    value: str
    line: int
    col: int


@dataclass
class ModuleSummary:
    """Everything the interprocedural rules know about one file."""

    module_name: str
    pkg_path: str
    rel_path: str
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    #: module-global name -> "lock" | "thread_local" | "mutable" | "other"
    globals: Dict[str, str] = field(default_factory=dict)
    #: local alias -> dotted name (the module's import map)
    imports: Dict[str, str] = field(default_factory=dict)
    schema_tags: List[SchemaTag] = field(default_factory=list)


# ----------------------------------------------------------------------
# summary extraction (one AST walk per file)
# ----------------------------------------------------------------------
def _classify_global(node: ast.AST, mapping: Dict[str, str]) -> str:
    """Classification of a module-level assignment's right-hand side."""
    if isinstance(node, ast.Call):
        dotted = resolve_attribute(node.func, mapping)
        if dotted in ("threading.Lock", "threading.RLock"):
            return "lock"
        if dotted == "threading.local":
            return "thread_local"
        if dotted in ("dict", "list", "set", "collections.OrderedDict",
                      "collections.defaultdict", "collections.deque",
                      "collections.Counter"):
            return "mutable"
        return "other"
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                         ast.ListComp, ast.SetComp)):
        return "mutable"
    return "other"


def _is_none_guard(test: ast.AST) -> bool:
    """``x is not None`` / ``x.y is not None`` — a feature-off guard."""
    return (isinstance(test, ast.Compare)
            and len(test.ops) == 1 and isinstance(test.ops[0], ast.IsNot)
            and len(test.comparators) == 1
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
            and isinstance(test.left, (ast.Name, ast.Attribute)))


class _FunctionWalker(ast.NodeVisitor):
    """Collect one function's facts, tracking loop/with/if context."""

    def __init__(self, summary: FunctionSummary, mapping: Dict[str, str],
                 module_globals: Dict[str, str], lock_attrs: Set[str],
                 inference_names: Set[str]):
        self.s = summary
        self.mapping = mapping
        self.module_globals = module_globals
        self.lock_attrs = lock_attrs
        self.inference_names = inference_names
        self.loop_depth = 0
        self.inference_depth = 0
        self.lock_depth = 0
        self.guard_depth = 0
        self.global_names: Set[str] = set()

    # -- context helpers -------------------------------------------------
    def _ref(self, dotted: str, node: ast.AST,
             in_default: bool = False) -> FactRef:
        return FactRef(dotted=dotted, line=node.lineno, col=node.col_offset,
                       in_default=in_default)

    def _record_name_facts(self, node: ast.AST, in_default: bool) -> None:
        dotted = resolve_attribute(node, self.mapping)
        if dotted is None:
            return
        if dotted in WALL_CLOCKS:
            self.s.clocks.append(self._ref(dotted, node, in_default))
        elif dotted in GLOBAL_RNG:
            self.s.rngs.append(self._ref(dotted, node, in_default))

    def _mutation(self, kind: str, target: str, detail: str,
                  node: ast.AST) -> None:
        self.s.mutations.append(Mutation(
            kind=kind, target=target, detail=detail,
            line=node.lineno, col=node.col_offset,
            locked=self.lock_depth > 0))

    def _alloc(self, kind: str, name: str, node: ast.AST) -> None:
        self.s.allocs.append(Alloc(
            kind=kind, name=name, line=node.lineno, col=node.col_offset,
            in_loop=self.loop_depth > 0,
            under_inference=self.inference_depth > 0,
            guarded=self.guard_depth > 0))

    def _global_name(self, node: ast.AST) -> Optional[str]:
        """Module-global name a Name node denotes (approximate)."""
        if isinstance(node, ast.Name) and node.id in self.module_globals:
            return node.id
        return None

    # -- structure -------------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # A nested def in a loop body is a per-iteration closure.
        if self.loop_depth > 0:
            self._alloc("closure", f"def {node.name}", node)
        # Do not descend: nested functions get their own summaries.

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        pass  # nested classes are out of scope

    def visit_Lambda(self, node: ast.Lambda) -> None:
        if self.loop_depth > 0:
            self._alloc("closure", "lambda", node)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self.visit(node.iter)
        for target in [node.target]:
            self.visit(target)
        self.loop_depth += 1
        for stmt in node.body:
            self.visit(stmt)
        self.loop_depth -= 1
        for stmt in node.orelse:
            self.visit(stmt)
        self.s.has_loop = True

    def visit_While(self, node: ast.While) -> None:
        self.visit(node.test)
        self.loop_depth += 1
        for stmt in node.body:
            self.visit(stmt)
        self.loop_depth -= 1
        for stmt in node.orelse:
            self.visit(stmt)
        self.s.has_loop = True

    def visit_With(self, node: ast.With) -> None:
        entered_inference = entered_lock = False
        for item in node.items:
            expr = item.context_expr
            if isinstance(expr, ast.Call):
                dotted = resolve_attribute(expr.func, self.mapping)
                if dotted and dotted.split(".")[-1] in self.inference_names:
                    entered_inference = True
            target = expr.func if isinstance(expr, ast.Call) else expr
            if isinstance(target, ast.Name):
                if self.module_globals.get(target.id) == "lock":
                    entered_lock = True
            elif (isinstance(target, ast.Attribute)
                  and isinstance(target.value, ast.Name)
                  and target.value.id == "self"
                  and target.attr in self.lock_attrs):
                entered_lock = True
            self.visit(expr)
        self.inference_depth += int(entered_inference)
        self.lock_depth += int(entered_lock)
        for stmt in node.body:
            self.visit(stmt)
        self.inference_depth -= int(entered_inference)
        self.lock_depth -= int(entered_lock)

    def visit_If(self, node: ast.If) -> None:
        self.visit(node.test)
        entered_guard = _is_none_guard(node.test)
        self.guard_depth += int(entered_guard)
        for stmt in node.body:
            self.visit(stmt)
        self.guard_depth -= int(entered_guard)
        for stmt in node.orelse:
            self.visit(stmt)

    # -- facts -----------------------------------------------------------
    def visit_Global(self, node: ast.Global) -> None:
        self.global_names.update(node.names)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._visit_store_target(target, node)
        self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._visit_store_target(node.target, node)
        self.visit(node.value)

    def _visit_store_target(self, target: ast.AST, stmt: ast.AST) -> None:
        if isinstance(target, ast.Name):
            if target.id in self.global_names:
                self._mutation("rebind", target.id, "global rebinding", stmt)
        elif isinstance(target, ast.Subscript):
            name = self._global_name(target.value)
            if name is not None:
                self._mutation("subscript", name, "item assignment", stmt)
            self.visit(target.value)
            self.visit(target.slice)
        elif isinstance(target, ast.Attribute):
            name = self._global_name(target.value)
            if name is not None:
                self._mutation("attr", name,
                               f"attribute '{target.attr}'", stmt)
            self.visit(target.value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._visit_store_target(element, stmt)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = resolve_attribute(node.func, self.mapping)
        self_method = None
        if (isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"):
            self_method = node.func.attr
        site = CallSite(target=dotted, self_method=self_method,
                        line=node.lineno, col=node.col_offset,
                        in_loop=self.loop_depth > 0,
                        under_inference=self.inference_depth > 0,
                        guarded=self.guard_depth > 0)
        self.s.calls.append(site)

        if dotted is not None:
            # clock/RNG *references* are recorded by the Name/Attribute
            # visit of node.func below — recording them here too would
            # double-count every direct call.
            if dotted in SEEDABLE_FACTORIES and not node.args \
                    and not node.keywords:
                self.s.factories.append(self._ref(dotted, node))
            if dotted in NDARRAY_ALLOCATORS:
                self._alloc("ndarray", dotted, node)

        if isinstance(node.func, ast.Attribute):
            method = node.func.attr
            if dotted is None and method in ALLOCATING_METHODS:
                self._alloc("method", f".{method}", node)
            if method in MUTATING_METHODS:
                name = self._global_name(node.func.value)
                if name is not None:
                    self._mutation("method", name, f".{method}()", node)
            if method == "submit" and node.args:
                spawned = node.args[0]
                spawn_target = resolve_attribute(spawned, self.mapping)
                spawn_self = None
                if (isinstance(spawned, ast.Attribute)
                        and isinstance(spawned.value, ast.Name)
                        and spawned.value.id == "self"):
                    spawn_self = spawned.attr
                self.s.spawns.append(CallSite(
                    target=spawn_target, self_method=spawn_self,
                    line=node.lineno, col=node.col_offset))

        self.visit(node.func)
        for arg in node.args:
            self.visit(arg)
        for keyword in node.keywords:
            self.visit(keyword.value)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._record_name_facts(node, in_default=False)
        # Facts fire once per full chain, but a non-Name base (a call, a
        # subscript) still needs visiting: ``datetime.now().isoformat()``.
        base: ast.AST = node
        while isinstance(base, ast.Attribute):
            base = base.value
        if not isinstance(base, ast.Name):
            self.visit(base)

    def visit_Name(self, node: ast.Name) -> None:
        self._record_name_facts(node, in_default=False)


def _class_lock_attrs(node: ast.ClassDef, mapping: Dict[str, str]) -> Set[str]:
    """``self.<attr>`` names assigned ``threading.Lock()`` in this class."""
    attrs: Set[str] = set()
    for item in ast.walk(node):
        if not isinstance(item, ast.Assign) or not isinstance(item.value,
                                                              ast.Call):
            continue
        dotted = resolve_attribute(item.value.func, mapping)
        if dotted not in ("threading.Lock", "threading.RLock"):
            continue
        for target in item.targets:
            if (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                attrs.add(target.attr)
    return attrs


def summarize_module(module: Module) -> ModuleSummary:
    """Extract the per-file fact summary (parses the AST if deferred)."""
    mapping = import_map(module)
    summary = ModuleSummary(module_name=module.module_name,
                            pkg_path=module.pkg_path,
                            rel_path=module.rel_path,
                            imports=dict(mapping))

    inference_names = {"inference_mode", "no_grad"}
    for name, dotted in mapping.items():
        if dotted.split(".")[-1] in ("inference_mode", "no_grad"):
            inference_names.add(name)

    # module-global classification
    for stmt in module.tree.body:
        targets: List[ast.AST] = []
        value: Optional[ast.AST] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        for target in targets:
            if isinstance(target, ast.Name):
                summary.globals[target.id] = _classify_global(value, mapping)

    # schema-tag literals anywhere in the file
    for node in ast.walk(module.tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and _SCHEMA_TAG_RE.match(node.value)):
            summary.schema_tags.append(SchemaTag(
                value=node.value, line=node.lineno, col=node.col_offset))

    # function summaries (methods and nested defs get dotted qualnames);
    # nested defs are found anywhere in a function body (stage closures
    # are routinely defined inside loops), not just at the top level.
    def walk_scope(body: List[ast.stmt], prefix: str,
                   lock_attrs: Set[str]) -> None:
        for stmt in body:
            if isinstance(stmt, ast.ClassDef):
                attrs = _class_lock_attrs(stmt, mapping)
                walk_scope(stmt.body, f"{prefix}{stmt.name}.", attrs)
            elif not isinstance(stmt, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                for child_body in (getattr(stmt, "body", None),
                                   getattr(stmt, "orelse", None),
                                   getattr(stmt, "finalbody", None)):
                    if child_body:
                        walk_scope(child_body, prefix, lock_attrs)
                for handler in getattr(stmt, "handlers", ()) or ():
                    walk_scope(handler.body, prefix, lock_attrs)
            else:
                qualname = f"{prefix}{stmt.name}"
                fn = FunctionSummary(
                    qualname=qualname, line=stmt.lineno,
                    end_line=getattr(stmt, "end_lineno", stmt.lineno) or
                    stmt.lineno,
                    hot=module.is_hot(stmt.lineno))
                walker = _FunctionWalker(fn, mapping, summary.globals,
                                         lock_attrs, inference_names)
                # signature defaults first, marked as such
                for default in (list(stmt.args.defaults)
                                + [d for d in stmt.args.kw_defaults if d]):
                    for node in ast.walk(default):
                        if isinstance(node, (ast.Name, ast.Attribute)):
                            dotted = resolve_attribute(node, mapping)
                            if dotted in WALL_CLOCKS:
                                fn.clocks.append(FactRef(
                                    dotted, node.lineno, node.col_offset,
                                    in_default=True))
                            elif dotted in GLOBAL_RNG:
                                fn.rngs.append(FactRef(
                                    dotted, node.lineno, node.col_offset,
                                    in_default=True))
                # first pass: collect `global` declarations so rebinds
                # anywhere in the body are classified correctly
                for inner in ast.walk(stmt):
                    if isinstance(inner, ast.Global):
                        walker.global_names.update(inner.names)
                for inner in stmt.body:
                    walker.visit(inner)
                summary.functions[qualname] = fn
                walk_scope(stmt.body, f"{qualname}.", lock_attrs)

    walk_scope(module.tree.body, "", set())

    # Module-level statements get a pseudo-function summary so top-level
    # clock/RNG facts are not lost.  ``end_line=0`` keeps it out of every
    # line-range ("enclosing symbol") lookup, and the rules that reason
    # about runtime behavior (races, hot paths) skip it by name: import
    # time is single-threaded by definition.
    top = FunctionSummary(qualname=MODULE_SCOPE, line=1, end_line=0)
    top_walker = _FunctionWalker(top, mapping, summary.globals, set(),
                                 inference_names)
    for stmt in module.tree.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            top_walker.visit(stmt)
    summary.functions[MODULE_SCOPE] = top
    return summary


# ----------------------------------------------------------------------
# graph construction
# ----------------------------------------------------------------------
class CallGraph:
    """Summaries stitched into a project-wide resolved call graph.

    Function ids are ``"<module_name>.<qualname>"`` strings.  ``edges``
    maps a caller id to ``[(callee_id, CallSite), ...]`` for every call we
    could resolve; ``spawn_edges`` does the same for executor ``submit``
    arguments (the worker seeds of the thread-context lattice).
    """

    def __init__(self, summaries: Dict[str, ModuleSummary]):
        self.summaries = summaries
        self.functions: Dict[str, Tuple[ModuleSummary, FunctionSummary]] = {}
        for summary in summaries.values():
            for qualname, fn in summary.functions.items():
                self.functions[f"{summary.module_name}.{qualname}"] = (
                    summary, fn)
        self._module_names = sorted(summaries, key=len, reverse=True)
        self.edges: Dict[str, List[Tuple[str, CallSite]]] = {}
        self.spawn_edges: Dict[str, List[Tuple[str, CallSite]]] = {}
        self._build()

    # -- resolution ------------------------------------------------------
    def resolve_dotted(self, dotted: str,
                       _depth: int = 0) -> Optional[str]:
        """Function id for an import-resolved dotted name, if in-project."""
        if _depth > 8:
            return None
        for module_name in self._module_names:
            if dotted == module_name or not dotted.startswith(
                    module_name + "."):
                continue
            summary = self.summaries[module_name]
            remainder = dotted[len(module_name) + 1:]
            if remainder in summary.functions:
                return f"{module_name}.{remainder}"
            head = remainder.split(".")[0]
            reexport = summary.imports.get(head)
            if reexport is not None:
                tail = remainder[len(head):]
                return self.resolve_dotted(reexport + tail, _depth + 1)
            # ``Class.method`` where only ``Class`` is re-exported is
            # covered by the branch above; an unresolved remainder means
            # a dynamic attribute we refuse to guess about.
            return None
        return None

    def resolve_site(self, caller_id: str,
                     site: CallSite) -> Optional[str]:
        """Resolve one call site from a given caller, or None."""
        summary, _ = self.functions[caller_id]
        if site.self_method is not None:
            qualname = self.functions[caller_id][1].qualname
            if "." in qualname:
                class_prefix = qualname.rsplit(".", 1)[0]
                candidate = (f"{summary.module_name}."
                             f"{class_prefix}.{site.self_method}")
                if candidate in self.functions:
                    return candidate
            return None
        if site.target is None:
            return None
        # A bare name defined in the same module wins over imports
        # (import_map already folded imported names to dotted paths).
        if "." not in site.target and site.target in summary.functions:
            return f"{summary.module_name}.{site.target}"
        # ``Class(...)`` constructor calls: route to ``Class.__init__``.
        resolved = self.resolve_dotted(site.target)
        if resolved is None:
            init = self.resolve_dotted(site.target + ".__init__")
            return init
        return resolved

    def _build(self) -> None:
        for func_id, (_, fn) in self.functions.items():
            resolved = []
            for site in fn.calls:
                callee = self.resolve_site(func_id, site)
                if callee is not None:
                    resolved.append((callee, site))
            if resolved:
                self.edges[func_id] = resolved
            spawned = []
            for site in fn.spawns:
                callee = self.resolve_site(func_id, site)
                if callee is not None:
                    spawned.append((callee, site))
            if spawned:
                self.spawn_edges[func_id] = spawned

    # -- convenience -----------------------------------------------------
    def callees(self, func_id: str) -> List[Tuple[str, CallSite]]:
        return self.edges.get(func_id, [])

    def function(self, func_id: str) -> Optional[FunctionSummary]:
        entry = self.functions.get(func_id)
        return entry[1] if entry else None

    def module_of(self, func_id: str) -> Optional[ModuleSummary]:
        entry = self.functions.get(func_id)
        return entry[0] if entry else None


# ----------------------------------------------------------------------
# per-run context shared by the interprocedural checkers
# ----------------------------------------------------------------------
class AnalysisContext:
    """Summaries + call graph for one run, built once and shared."""

    def __init__(self, summaries: Dict[str, ModuleSummary],
                 graph: CallGraph):
        self.summaries = summaries
        self.graph = graph

    @classmethod
    def build(cls, project: Project) -> "AnalysisContext":
        """Summarize every module and stitch the call graph."""
        summaries = {module.module_name: summarize_module(module)
                     for module in project.modules}
        return cls(summaries, CallGraph(summaries))


def get_context(project: Project) -> AnalysisContext:
    """Build (or reuse) the project's interprocedural context."""
    if project._context is None:
        project._context = AnalysisContext.build(project)
    return project._context
