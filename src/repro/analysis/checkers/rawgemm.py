"""Rule ``gemm-dispatch``: matrix products go through the compute backend.

PR 10 introduced the pluggable compute-backend layer
(:mod:`repro.tensor.backend`): every GEMM, batched GEMM and im2col
convolution in the tensor engine dispatches through
``active_backend()`` so that MAC accounting (``count_macs``), the
accelerated fused kernels and the bench environment fingerprint all see
the same set of matrix products.  The guarantee decays one convenience
call at a time: someone spells ``np.matmul(a, b)`` in a layer because it
is shorter than fetching the backend, and that product silently vanishes
from the MAC counts and can never be accelerated.

This rule freezes the routing.  In the dispatch modules
(``config.GEMM_DISPATCH_MODULES`` — the tensor engine, the nn layers and
the quantized modules), it flags

* calls to a GEMM-shaped numpy function through a numpy module alias
  (``np.matmul``, ``np.einsum``, ``np.dot``, ``np.tensordot``,
  ``np.inner``, ``np.vdot``) — including aliased submodule imports;
* the same names called bare after ``from numpy import matmul``;
* the ``@`` matrix-multiply operator, which on ndarrays is a raw BLAS
  call the dispatch layer never sees (Tensor code spells the dispatched
  form ``x.matmul(y)``).

The backend layer itself (``GEMM_BACKEND_MODULES``) is exempt: there the
raw numpy product *is* the implementation.  A deliberate bypass — say a
shape-only einsum on index arrays — takes a reasoned
``# repro: allow[gemm-dispatch]`` pragma.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from ..config import GEMM_BACKEND_MODULES, GEMM_DISPATCH_MODULES, matches
from ..findings import Finding
from ..project import Module
from ..registry import Checker, register_checker

#: numpy callables that compute (or reduce to) a matrix product.
GEMM_FUNCTIONS = frozenset(
    {"matmul", "einsum", "dot", "tensordot", "inner", "vdot"})


def _numpy_bindings(tree: ast.Module) -> tuple:
    """(module aliases bound to numpy, GEMM names imported from numpy)."""
    aliases: Set[str] = set()
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name == "numpy" or item.name.startswith("numpy."):
                    aliases.add(item.asname or item.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            if node.module and (node.module == "numpy"
                                or node.module.startswith("numpy.")):
                for item in node.names:
                    if item.name in GEMM_FUNCTIONS:
                        names.add(item.asname or item.name)
    return aliases, names


class _GemmVisitor(ast.NodeVisitor):
    """Collect raw-GEMM sites with their enclosing function qualname."""

    def __init__(self, aliases: Set[str], from_names: Set[str]):
        self.aliases = aliases
        self.from_names = from_names
        self.stack: List[str] = []
        #: (line, col, symbol, spelling) per finding site.
        self.sites: List[tuple] = []

    # -- scope tracking -------------------------------------------------
    def _visit_scope(self, node, name: str) -> None:
        self.stack.append(name)
        self.generic_visit(node)
        self.stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_scope(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_scope(node, node.name)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._visit_scope(node, node.name)

    def _symbol(self) -> Optional[str]:
        return ".".join(self.stack) if self.stack else None

    # -- GEMM sites -----------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (isinstance(func, ast.Attribute)
                and func.attr in GEMM_FUNCTIONS
                and isinstance(func.value, ast.Name)
                and func.value.id in self.aliases):
            self.sites.append((node.lineno, node.col_offset, self._symbol(),
                               f"{func.value.id}.{func.attr}"))
        elif isinstance(func, ast.Name) and func.id in self.from_names:
            self.sites.append((node.lineno, node.col_offset, self._symbol(),
                               func.id))
        self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, ast.MatMult):
            self.sites.append((node.lineno, node.col_offset, self._symbol(),
                               "@"))
        self.generic_visit(node)


@register_checker
class GemmDispatchChecker(Checker):
    name = "gemm-dispatch"
    description = ("tensor/nn/qmodule code must route matrix products "
                   "through the compute backend, not raw numpy "
                   "matmul/einsum or the '@' operator")

    def check_module(self, module: Module) -> List[Finding]:
        if (not matches(module.pkg_path, GEMM_DISPATCH_MODULES)
                or matches(module.pkg_path, GEMM_BACKEND_MODULES)):
            return []
        aliases, from_names = _numpy_bindings(module.tree)
        visitor = _GemmVisitor(aliases, from_names)
        visitor.visit(module.tree)
        findings: List[Finding] = []
        for line, col, symbol, spelling in visitor.sites:
            if spelling == "@":
                message = ("raw '@' matrix multiply bypasses the compute "
                           "backend; use Tensor.matmul or "
                           "active_backend().gemm/batched_gemm so MAC "
                           "accounting and accelerated kernels see it")
            else:
                message = (f"raw numpy GEMM '{spelling}' bypasses the "
                           f"compute backend; dispatch through "
                           f"active_backend() so MAC accounting and "
                           f"accelerated kernels see it")
            findings.append(Finding(
                rule=self.name, path=module.rel_path, line=line, col=col,
                symbol=symbol, message=message))
        return findings
