"""Rule ``tracer-discipline``: tracing must be zero-cost when disabled.

The observability layer promises that a run with ``tracer=None`` pays
nothing — no span objects, no attr dicts, no f-string formatting.  That
promise is enforced socially at every call site, which is exactly the kind
of invariant that erodes one innocent-looking diff at a time.  This checker
makes it mechanical:

* **Defaults** — a ``tracer`` parameter may default only to ``None`` or
  ``NULL_TRACER``.  A default of ``Tracer()`` would silently make every
  caller pay for event booking (and share one mutable buffer between
  unrelated runs, the classic mutable-default bug).
* **Span balance** — ``tracer.span(...)`` returns a context manager that
  books the span on ``__exit__``; calling it outside a ``with`` leaks an
  unbalanced span that never lands in the trace.  Counted APIs
  (``begin_span``/``end_span`` spellings) must balance within a function.
* **Call-site cost** — passing a dict literal, dict comprehension or
  f-string to an emit method (``add_span``/``async_span``/``instant``/
  ``span``) builds the payload even when the receiver is a no-op.  Such
  call sites must sit under a narrowing guard: ``if tracer is not None:``,
  ``if tracer.enabled:``, a truthiness test, or an early
  ``if tracer is None: return`` at the top of the function.

Receivers are recognized syntactically: any name or attribute whose last
segment contains ``tracer`` (``tracer``, ``self.tracer``, ``step_tracer``).
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from ..findings import Finding
from ..project import Module
from ..registry import Checker, register_checker

#: Methods that book an event (and therefore cost something to call).
EMIT_METHODS = frozenset({"add_span", "async_span", "instant", "span"})

#: Paired span APIs that must balance inside one function body.
SPAN_OPENERS = frozenset({"begin_span", "start_span", "enter_span"})
SPAN_CLOSERS = frozenset({"end_span", "finish_span", "exit_span"})


def _receiver_key(node: ast.AST) -> Optional[str]:
    """Dotted source text of a name/attribute receiver, or None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _receiver_key(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


def _is_tracer_key(key: Optional[str]) -> bool:
    return key is not None and "tracer" in key.rsplit(".", 1)[-1].lower()


def _expensive_arg(call: ast.Call) -> Optional[str]:
    """Name the first eagerly-built payload argument, if any."""
    values = list(call.args) + [kw.value for kw in call.keywords]
    for value in values:
        if isinstance(value, (ast.Dict, ast.DictComp)):
            return "a dict literal"
        if isinstance(value, ast.JoinedStr):
            return "an f-string"
    return None


def _guard_keys(test: ast.AST) -> Set[str]:
    """Tracer receivers narrowed by an ``if`` test.

    Matches ``x is not None``, ``x.enabled``, plain truthiness and ``and``
    conjunctions thereof; ``x`` itself and every dotted prefix count as
    guarded (``if self.tracer is not None`` guards ``self.tracer``).
    """
    keys: Set[str] = set()
    for node in ast.walk(test):
        key = _receiver_key(node)
        if _is_tracer_key(key):
            keys.add(key)
        elif isinstance(node, ast.Attribute) and node.attr == "enabled":
            inner = _receiver_key(node.value)
            if _is_tracer_key(inner):
                keys.add(inner)
    return keys


@register_checker
class TracerDisciplineChecker(Checker):
    name = "tracer-discipline"
    description = ("tracer params default to None/NULL_TRACER, spans "
                   "balance, and attr payloads are built only under a "
                   "tracer guard")

    def check_module(self, module: Module) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                findings.extend(self._check_defaults(module, node))
                findings.extend(self._check_balance(module, node))
                findings.extend(self._check_call_sites(module, node))
        return findings

    # -- defaults ------------------------------------------------------
    def _check_defaults(self, module: Module,
                        func: ast.AST) -> List[Finding]:
        findings: List[Finding] = []
        args = func.args
        positional = args.posonlyargs + args.args
        pairs = list(zip(positional[len(positional) - len(args.defaults):],
                         args.defaults))
        pairs += [(arg, default) for arg, default
                  in zip(args.kwonlyargs, args.kw_defaults)
                  if default is not None]
        for arg, default in pairs:
            if "tracer" not in arg.arg.lower():
                continue
            if isinstance(default, ast.Constant) and default.value is None:
                continue
            name = _receiver_key(default)
            if name is not None and name.rsplit(".", 1)[-1] == "NULL_TRACER":
                continue
            findings.append(Finding(
                rule="tracer-discipline", path=module.rel_path,
                line=default.lineno, col=default.col_offset,
                message=(f"tracer parameter '{arg.arg}' defaults to "
                         f"something other than None/NULL_TRACER; shared "
                         f"live tracers leak events across runs"),
                symbol=func.name))
        return findings

    # -- span balance --------------------------------------------------
    def _check_balance(self, module: Module, func: ast.AST) -> List[Finding]:
        opens = closes = 0
        first_open: Optional[ast.Call] = None
        with_items: Set[int] = set()
        spans: List[ast.Call] = []
        for node in ast.walk(func):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                with_items.update(id(item.context_expr) for item in node.items)
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and _is_tracer_key(_receiver_key(node.func.value))):
                if node.func.attr in SPAN_OPENERS:
                    opens += 1
                    first_open = first_open or node
                elif node.func.attr in SPAN_CLOSERS:
                    closes += 1
                elif node.func.attr == "span":
                    spans.append(node)
        # Decided after the walk, once every ``with`` item is known.
        findings = [Finding(
            rule="tracer-discipline", path=module.rel_path,
            line=node.lineno, col=node.col_offset,
            message=("tracer.span(...) outside a 'with' block "
                     "leaks an unbalanced span"),
            symbol=func.name) for node in spans if id(node) not in with_items]
        if opens != closes:
            anchor = first_open or func
            findings.append(Finding(
                rule="tracer-discipline", path=module.rel_path,
                line=anchor.lineno, col=anchor.col_offset,
                message=(f"unbalanced span calls in '{func.name}': "
                         f"{opens} opened, {closes} closed"),
                symbol=func.name))
        return findings

    # -- call-site cost ------------------------------------------------
    def _check_call_sites(self, module: Module,
                          func: ast.AST) -> List[Finding]:
        findings: List[Finding] = []
        narrowed = self._early_return_narrowing(func)

        def visit(node: ast.AST, guarded: Set[str]) -> None:
            if isinstance(node, ast.If):
                body_guards = guarded | _guard_keys(node.test)
                for child in node.body:
                    visit(child, body_guards)
                for child in node.orelse:
                    visit(child, guarded)
                return
            if isinstance(node, ast.IfExp):
                visit(node.test, guarded)
                visit(node.body, guarded | _guard_keys(node.test))
                visit(node.orelse, guarded)
                return
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                # Nested functions are visited on their own by check_module.
                return
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in EMIT_METHODS):
                key = _receiver_key(node.func.value)
                if _is_tracer_key(key) and key not in guarded:
                    expensive = _expensive_arg(node)
                    if expensive is not None:
                        findings.append(Finding(
                            rule="tracer-discipline", path=module.rel_path,
                            line=node.lineno, col=node.col_offset,
                            message=(f"builds {expensive} at an unguarded "
                                     f"'{key}.{node.func.attr}(...)' call "
                                     f"site; guard with 'if {key} is not "
                                     f"None:'/'.enabled' so disabled runs "
                                     f"pay nothing"),
                            symbol=func.name))
            for child in ast.iter_child_nodes(node):
                visit(child, guarded)

        for statement in func.body:
            visit(statement, set(narrowed))
        return findings

    @staticmethod
    def _early_return_narrowing(func: ast.AST) -> Set[str]:
        """Receivers proven non-None by leading ``if x is None: return``."""
        narrowed: Set[str] = set()
        for statement in func.body:
            if (isinstance(statement, ast.Expr)
                    and isinstance(statement.value, ast.Constant)):
                continue  # docstring
            if not (isinstance(statement, ast.If)
                    and len(statement.body) == 1
                    and isinstance(statement.body[0],
                                   (ast.Return, ast.Raise, ast.Continue))
                    and not statement.orelse):
                break
            test = statement.test
            is_none = (isinstance(test, ast.Compare)
                       and len(test.ops) == 1
                       and isinstance(test.ops[0], ast.Is)
                       and isinstance(test.comparators[0], ast.Constant)
                       and test.comparators[0].value is None)
            not_truthy = (isinstance(test, ast.UnaryOp)
                          and isinstance(test.op, ast.Not))
            if is_none:
                key = _receiver_key(test.left)
            elif not_truthy:
                key = _receiver_key(test.operand)
            else:
                key = None
            if _is_tracer_key(key):
                narrowed.add(key)
        return narrowed
