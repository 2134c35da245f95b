"""Static import resolution shared by the checkers.

Two capabilities, both deliberately conservative (an unresolvable name is
*not* a finding — under-approximating keeps every checker's false-positive
rate near zero, which is what lets the CI gate be hard):

* :func:`import_map` — per-module mapping from local alias to the dotted
  name it denotes (``np`` -> ``numpy``, ``perf_counter`` ->
  ``time.perf_counter``), with relative imports resolved against the
  module's own package.
* :func:`resolve_attribute` — fold an ``ast.Attribute``/``ast.Name`` chain
  into a dotted name through that map (``np.random.default_rng`` ->
  ``numpy.random.default_rng``).
"""

from __future__ import annotations

import ast
from typing import Dict, Optional

from .project import Module


def _module_package(module: Module) -> str:
    """The dotted package a module's relative imports resolve against."""
    parts = module.module_name.split(".")
    if module.path.name == "__init__.py":
        return module.module_name
    return ".".join(parts[:-1])


def _resolve_relative(module: Module, node: ast.ImportFrom) -> Optional[str]:
    if node.level == 0:
        return node.module
    package_parts = _module_package(module).split(".")
    if node.level - 1 >= len(package_parts):
        return None
    base = package_parts[:len(package_parts) - (node.level - 1)]
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base)


def import_map(module: Module) -> Dict[str, str]:
    """Map every imported local name to the dotted name it refers to."""
    mapping: Dict[str, str] = {}
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                mapping[local] = target
        elif isinstance(node, ast.ImportFrom):
            source = _resolve_relative(module, node)
            if source is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                mapping[local] = f"{source}.{alias.name}"
    return mapping


def resolve_attribute(node: ast.AST, mapping: Dict[str, str]) -> Optional[str]:
    """Dotted name for a Name/Attribute chain, or None when dynamic."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = mapping.get(node.id, node.id)
    parts.append(base)
    return ".".join(reversed(parts))

