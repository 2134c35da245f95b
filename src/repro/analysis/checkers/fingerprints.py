"""Rule ``fingerprint-coverage``: every field a fingerprint forgets is a
cache-poisoning bug waiting to happen.

The RunStore keys artifacts by ``fingerprint()`` content hashes.  When a
dataclass grows a new behavior-affecting field but its ``fingerprint()``
payload is a hand-maintained dict, the new field silently drops out of the
key — two configs that differ only in that field collide on one cache
entry, and every downstream table is built from the wrong artifact.

For each dataclass that defines a zero-argument ``fingerprint()`` method,
the checker computes the set of *covered* fields:

* ``dataclasses.asdict(self)`` / ``asdict(self)`` anywhere in the closure
  covers everything;
* otherwise, every ``self.X`` read inside ``fingerprint()`` and inside any
  ``self.helper()`` it calls (``to_dict`` is the usual shape) counts.

Fields never read are reported at their declaration line.  Fields that are
*deliberately* presentation-only (a display label, a keep-images toggle)
are annotated in source with ``# repro: allow[fingerprint-coverage]`` —
the annotation sits on the field, so the exemption is visible exactly
where the next reader will wonder about it.  Underscore-prefixed and
``ClassVar`` fields are ignored.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from ..findings import Finding
from ..project import Module
from ..registry import Checker, register_checker


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else \
            target.id if isinstance(target, ast.Name) else ""
        if name == "dataclass":
            return True
    return False


def _field_nodes(cls: ast.ClassDef) -> Dict[str, ast.AnnAssign]:
    """Dataclass fields (AnnAssign at class body level), minus ClassVars."""
    fields: Dict[str, ast.AnnAssign] = {}
    for node in cls.body:
        if not (isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)):
            continue
        name = node.target.id
        if name.startswith("_"):
            continue
        annotation = ast.dump(node.annotation)
        if "ClassVar" in annotation:
            continue
        fields[name] = node
    return fields


def _methods(cls: ast.ClassDef) -> Dict[str, ast.FunctionDef]:
    return {node.name: node for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _zero_arg_method(func: Optional[ast.FunctionDef]) -> bool:
    if func is None:
        return False
    args = func.args
    return (len(args.posonlyargs) + len(args.args) == 1
            and not args.kwonlyargs and args.vararg is None
            and args.kwarg is None)


def _covers_all(func: ast.AST) -> bool:
    """True if the body calls asdict(self)/dataclasses.asdict(self)."""
    for node in ast.walk(func):
        if not (isinstance(node, ast.Call) and node.args):
            continue
        target = node.func
        name = target.attr if isinstance(target, ast.Attribute) else \
            target.id if isinstance(target, ast.Name) else ""
        first = node.args[0]
        if (name == "asdict" and isinstance(first, ast.Name)
                and first.id == "self"):
            return True
    return False


@register_checker
class FingerprintCoverageChecker(Checker):
    name = "fingerprint-coverage"
    description = ("dataclasses with fingerprint() must feed every field "
                   "into the hash payload (or mark it presentation-only)")

    def check_module(self, module: Module) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                findings.extend(self._check_class(module, node))
        return findings

    # ------------------------------------------------------------------
    def _check_class(self, module: Module,
                     cls: ast.ClassDef) -> List[Finding]:
        methods = _methods(cls)
        fingerprint = methods.get("fingerprint")
        if not _zero_arg_method(fingerprint):
            return []
        fields = _field_nodes(cls)
        if not fields:
            return []

        covered: Set[str] = set()
        visited: Set[str] = set()
        worklist = ["fingerprint"]
        while worklist:
            name = worklist.pop()
            if name in visited:
                continue
            visited.add(name)
            func = methods.get(name)
            if func is None:
                continue
            if _covers_all(func):
                return []
            for node in ast.walk(func):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "self"):
                    if node.attr in fields:
                        covered.add(node.attr)
                    elif node.attr in methods:
                        worklist.append(node.attr)

        findings = []
        for name, node in sorted(fields.items()):
            if name in covered:
                continue
            findings.append(Finding(
                rule="fingerprint-coverage", path=module.rel_path,
                line=node.lineno, col=node.col_offset,
                message=(f"field '{name}' never reaches "
                         f"{cls.name}.fingerprint(); hash it or mark it "
                         f"presentation-only with a pragma"),
                symbol=f"{cls.name}.{name}"))
        return findings
