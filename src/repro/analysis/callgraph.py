"""Project-wide call graph built from per-module fact summaries.

Two layers, split on purpose:

* :class:`ModuleSummary` — everything the graph-based rules
  (determinism, race-discipline, stage-purity, hot-path-alloc,
  schema-discipline) need to know about one file, extracted in a single
  AST walk: clock/RNG, I/O, environment and ``global`` facts, module-global
  mutations, allocations, and the functions and classes the file defines.
* :class:`CallGraph` — summaries stitched together: local call descriptors
  resolved to project-wide function ids (``repro.zoo.registry.load_pretrained``),
  following package ``__init__`` re-exports, ``self.method`` dispatch and
  method calls on a local built by a constructor (``p = Pipeline();
  p.generate()``, also from a def nested below the assignment).

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

#: Dotted callables that do file or process I/O.
IO_CALLS = frozenset({
    "numpy.save", "numpy.load", "numpy.savez", "numpy.savez_compressed",
    "numpy.savetxt", "numpy.loadtxt", "pickle.dump", "pickle.load",
    "pickle.dumps",  # dumps is pure, but loads/dumps of live objects in a
                     # stage usually signals an escape hatch; kept visible.
    "json.dump", "json.load", "shutil.copy", "shutil.copyfile",
    "shutil.copytree", "shutil.move", "shutil.rmtree", "tempfile.mkdtemp",
    "tempfile.mkstemp", "os.makedirs", "os.mkdir", "os.remove", "os.unlink",
    "os.rename", "os.replace", "os.rmdir", "os.removedirs",
})

#: Dotted prefixes whose calls are never pure.
IMPURE_PREFIXES = ("subprocess.", "socket.", "urllib.", "http.")

#: Path-like methods that touch the filesystem, on any receiver that is not
#: an imported module, and called through ``pathlib.Path`` itself
#: (``Path.mkdir(path)``).
FS_METHODS = frozenset({
    "write_text", "write_bytes", "read_text", "read_bytes", "mkdir",
    "rmdir", "unlink", "touch", "symlink_to", "hardlink_to",
})

#: Environment access (a read is as much a hidden input as a write).
ENV_ACCESS = ("os.environ", "os.getenv", "os.putenv", "os.unsetenv")

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
    #: "C" when the call is ``x.m(...)`` on a local built by ``x = C(...)``
    #: (here or in an enclosing function); ``target`` ends in ``.m``.
    instance_of: Optional[str] = None


@dataclass
class FactRef:
    """A clock, RNG, factory, I/O, environment or ``global`` fact."""

    dotted: str
    line: int
    col: int
    in_default: bool = False     # appears in a signature default


@dataclass
class Mutation:
    """A write to module-global (or module-global-object) state."""

    kind: str        # "rebind" | "subscript" | "method" | "attr"
    target: str      # the module-global name being written (or deleted)
    detail: str      # method / attribute involved, for the message
    line: int
    col: int
    locked: bool = False   # lexically under ``with <known lock>:``


@dataclass
class Alloc:
    """An allocation site relevant to the hot-path rule."""

    kind: str        # "ndarray" | "method" | "closure"
    name: str        # dotted callee, ".method", "lambda" or "def <name>"
    line: int
    col: int
    in_loop: bool = False
    guarded: bool = False


@dataclass
class FunctionSummary:
    """Per-function facts; ``qualname`` is dotted within the module."""

    qualname: str
    line: int
    end_line: int
    hot: bool = False
    calls: List[CallSite] = field(default_factory=list)
    spawns: List[CallSite] = field(default_factory=list)
    clocks: List[FactRef] = field(default_factory=list)
    rngs: List[FactRef] = field(default_factory=list)
    factories: List[FactRef] = field(default_factory=list)
    #: ``open``, an ``IO_CALLS``/``IMPURE_PREFIXES`` name, or ``.method``
    #: for an ``FS_METHODS`` call.
    io: List[FactRef] = field(default_factory=list)
    env: List[FactRef] = field(default_factory=list)
    global_decls: List[FactRef] = field(default_factory=list)
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
    #: qualnames of the classes defined here (nested ones too)
    classes: Set[str] = field(default_factory=set)
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
                 inference_names: Set[str], local_types: Dict[str, str]):
        self.s = summary
        self.mapping = mapping
        self.module_globals = module_globals
        self.lock_attrs = lock_attrs
        self.inference_names = inference_names
        #: local name -> dotted constructor it was assigned from
        self.local_types = local_types
        self.loop_depth = 0
        self.inference_depth = 0
        self.lock_depth = 0
        self.guard_depth = 0
        self.global_names: Set[str] = set()

    # -- context helpers -------------------------------------------------
    @staticmethod
    def _ref(dotted: str, node: ast.AST) -> FactRef:
        return FactRef(dotted=dotted, line=node.lineno, col=node.col_offset)

    def _record_name_facts(self, node: ast.AST) -> None:
        dotted = resolve_attribute(node, self.mapping)
        if dotted is None:
            return
        if dotted in WALL_CLOCKS:
            self.s.clocks.append(self._ref(dotted, node))
        elif dotted in GLOBAL_RNG:
            self.s.rngs.append(self._ref(dotted, node))
        for name in ENV_ACCESS:
            if dotted == name or dotted.startswith(name + "."):
                self.s.env.append(self._ref(name, node))

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
            guarded=self.guard_depth > 0))

    def _global_name(self, node: ast.AST) -> Optional[str]:
        """Module-global name a Name node denotes (approximate)."""
        if isinstance(node, ast.Name) and node.id in self.module_globals:
            return node.id
        return None

    def _imported_root(self, node: ast.AST) -> bool:
        """Whether an attribute chain starts at an imported name."""
        while isinstance(node, ast.Attribute):
            node = node.value
        return isinstance(node, ast.Name) and node.id in self.mapping

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

    def visit_While(self, node: ast.While) -> None:
        self.visit(node.test)
        self.loop_depth += 1
        for stmt in node.body:
            self.visit(stmt)
        self.loop_depth -= 1
        for stmt in node.orelse:
            self.visit(stmt)

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
        self.s.global_decls.append(self._ref(", ".join(node.names), node))

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._visit_store_target(target, node)
        self.visit(node.value)
        # ``x = C(...)``: later ``x.m()`` calls may resolve to ``C.m``.
        if (len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)):
            ctor = resolve_attribute(node.value.func, self.mapping)
            if ctor is not None:
                self.local_types[node.targets[0].id] = ctor

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                name = self._global_name(target.value)
                if name is not None:
                    self._mutation("subscript", name, "item deletion",
                                   target)
            self.visit(target)

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

    def _site(self, func: ast.AST, node: ast.AST) -> CallSite:
        """Descriptor of a call to the callable expression ``func``."""
        self_method = instance_of = None
        if isinstance(func, ast.Attribute) and isinstance(func.value,
                                                          ast.Name):
            if func.value.id == "self":
                self_method = func.attr
            else:
                instance_of = self.local_types.get(func.value.id)
        return CallSite(target=resolve_attribute(func, self.mapping),
                        self_method=self_method,
                        line=node.lineno, col=node.col_offset,
                        in_loop=self.loop_depth > 0,
                        under_inference=self.inference_depth > 0,
                        guarded=self.guard_depth > 0,
                        instance_of=instance_of)

    def visit_Call(self, node: ast.Call) -> None:
        site = self._site(node.func, node)
        self.s.calls.append(site)
        dotted = site.target

        if dotted is not None:
            # clock/RNG *references* are recorded by the Name/Attribute
            # visit of node.func below — recording them here too would
            # double-count every direct call.
            if dotted in SEEDABLE_FACTORIES and not node.args \
                    and not node.keywords:
                self.s.factories.append(self._ref(dotted, node))
            if dotted in NDARRAY_ALLOCATORS:
                self._alloc("ndarray", dotted, node)
            if (dotted == "open" or dotted in IO_CALLS
                    or dotted.startswith(IMPURE_PREFIXES)):
                self.s.io.append(self._ref(dotted, node))

        if isinstance(node.func, ast.Attribute):
            method = node.func.attr
            if dotted is None and method in ALLOCATING_METHODS:
                self._alloc("method", f".{method}", node)
            if method in FS_METHODS and (
                    not self._imported_root(node.func)
                    or dotted == f"pathlib.Path.{method}"):
                self.s.io.append(self._ref(f".{method}", node))
            if method in MUTATING_METHODS:
                name = self._global_name(node.func.value)
                if name is not None:
                    self._mutation("method", name, f".{method}()", node)
            if method == "submit" and node.args:
                self.s.spawns.append(self._site(node.args[0], node))

        self.visit(node.func)
        for arg in node.args:
            self.visit(arg)
        for keyword in node.keywords:
            self.visit(keyword.value)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._record_name_facts(node)
        # Facts fire once per full chain, but a non-Name base (a call, a
        # subscript) still needs visiting: ``datetime.now().isoformat()``.
        base: ast.AST = node
        while isinstance(base, ast.Attribute):
            base = base.value
        if not isinstance(base, ast.Name):
            self.visit(base)

    def visit_Name(self, node: ast.Name) -> None:
        self._record_name_facts(node)


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
    # are routinely defined inside loops), not just at the top level, and
    # see the enclosing function's constructed locals.
    def walk_scope(body: List[ast.stmt], prefix: str, lock_attrs: Set[str],
                   local_types: Dict[str, str]) -> None:
        for stmt in body:
            if isinstance(stmt, ast.ClassDef):
                summary.classes.add(f"{prefix}{stmt.name}")
                attrs = _class_lock_attrs(stmt, mapping)
                walk_scope(stmt.body, f"{prefix}{stmt.name}.", attrs,
                           local_types)
            elif not isinstance(stmt, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                for child_body in (getattr(stmt, "body", None),
                                   getattr(stmt, "orelse", None),
                                   getattr(stmt, "finalbody", None)):
                    if child_body:
                        walk_scope(child_body, prefix, lock_attrs,
                                   local_types)
                for handler in getattr(stmt, "handlers", ()) or ():
                    walk_scope(handler.body, prefix, lock_attrs, local_types)
            else:
                qualname = f"{prefix}{stmt.name}"
                fn = FunctionSummary(
                    qualname=qualname, line=stmt.lineno,
                    end_line=getattr(stmt, "end_lineno", stmt.lineno) or
                    stmt.lineno,
                    hot=module.is_hot(stmt.lineno))
                walker = _FunctionWalker(fn, mapping, summary.globals,
                                         lock_attrs, inference_names,
                                         dict(local_types))
                # signature defaults first, marked as such
                for default in (list(stmt.args.defaults)
                                + [d for d in stmt.args.kw_defaults if d]):
                    for node in ast.walk(default):
                        if isinstance(node, (ast.Name, ast.Attribute)):
                            dotted = resolve_attribute(node, mapping)
                            ref = FactRef(dotted, node.lineno,
                                          node.col_offset, in_default=True)
                            if dotted in WALL_CLOCKS:
                                fn.clocks.append(ref)
                            elif dotted in GLOBAL_RNG:
                                fn.rngs.append(ref)
                            elif dotted in ENV_ACCESS:
                                fn.env.append(ref)
                # first pass: collect `global` declarations so rebinds
                # anywhere in the body are classified correctly
                for inner in ast.walk(stmt):
                    if isinstance(inner, ast.Global):
                        walker.global_names.update(inner.names)
                for inner in stmt.body:
                    walker.visit(inner)
                summary.functions[qualname] = fn
                walk_scope(stmt.body, f"{qualname}.", lock_attrs,
                           walker.local_types)

    walk_scope(module.tree.body, "", set(), {})

    # Module-level statements get a pseudo-function summary so top-level
    # clock/RNG facts are not lost.  ``end_line=0`` keeps it out of every
    # line-range ("enclosing symbol") lookup, and the rules that reason
    # about runtime behavior (races, hot paths) skip it by name: import
    # time is single-threaded by definition.
    top = FunctionSummary(qualname=MODULE_SCOPE, line=1, end_line=0)
    top_walker = _FunctionWalker(top, mapping, summary.globals, set(),
                                 inference_names, {})
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

    Function and class ids are ``"<module_name>.<qualname>"`` strings.
    ``edges`` maps a caller id to ``[(callee_id, CallSite), ...]`` for every
    call we could resolve; ``spawn_edges`` does the same for executor
    ``submit`` arguments (the worker seeds of the thread-context lattice).
    """

    def __init__(self, summaries: Dict[str, ModuleSummary]):
        self.summaries = summaries
        self.functions: Dict[str, Tuple[ModuleSummary, FunctionSummary]] = {}
        self.classes: Set[str] = set()
        for summary in summaries.values():
            for qualname, fn in summary.functions.items():
                self.functions[f"{summary.module_name}.{qualname}"] = (
                    summary, fn)
            self.classes.update(f"{summary.module_name}.{qualname}"
                                for qualname in summary.classes)
        self._module_names = sorted(summaries, key=len, reverse=True)
        self.edges: Dict[str, List[Tuple[str, CallSite]]] = {}
        self.spawn_edges: Dict[str, List[Tuple[str, CallSite]]] = {}
        self._build()

    # -- resolution ------------------------------------------------------
    def resolve_dotted(self, dotted: str,
                       _depth: int = 0) -> Optional[str]:
        """Function or class id for an import-resolved dotted name."""
        if _depth > 8:
            return None
        for module_name in self._module_names:
            if dotted == module_name or not dotted.startswith(
                    module_name + "."):
                continue
            summary = self.summaries[module_name]
            remainder = dotted[len(module_name) + 1:]
            if remainder in summary.functions or remainder in summary.classes:
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

    def _symbol(self, summary: ModuleSummary, dotted: str) -> Optional[str]:
        """Function or class id ``dotted`` denotes inside ``summary``'s file.

        A name defined in the same module wins over imports (import_map
        already folded imported names to dotted paths).
        """
        if dotted in summary.functions or dotted in summary.classes:
            return f"{summary.module_name}.{dotted}"
        return self.resolve_dotted(dotted)

    def resolve_site(self, caller_id: str,
                     site: CallSite) -> Optional[str]:
        """Resolve one call site from a given caller, or None."""
        summary, fn = self.functions[caller_id]
        if site.self_method is not None:
            # ``self`` is an instance of the nearest enclosing class (a
            # closure inside a method shares the method's ``self``).
            owner = fn.qualname
            while "." in owner:
                owner = owner.rsplit(".", 1)[0]
                if owner in summary.classes:
                    break
            else:
                return None
            callee = f"{summary.module_name}.{owner}.{site.self_method}"
        elif site.instance_of is not None:
            cls = self._symbol(summary, site.instance_of)
            if cls not in self.classes:
                return None
            callee = f"{cls}.{site.target.rsplit('.', 1)[1]}"
        elif site.target is not None:
            callee = self._symbol(summary, site.target)
            if callee in self.classes:
                # ``Class(...)`` constructor calls: route to ``__init__``.
                callee = f"{callee}.__init__"
        else:
            return None
        return callee if callee in self.functions else None

    def _build(self) -> None:
        for func_id, (_, fn) in self.functions.items():
            for sites, edges in ((fn.calls, self.edges),
                                 (fn.spawns, self.spawn_edges)):
                resolved = [(self.resolve_site(func_id, site), site)
                            for site in sites]
                resolved = [edge for edge in resolved if edge[0] is not None]
                if resolved:
                    edges[func_id] = resolved

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
