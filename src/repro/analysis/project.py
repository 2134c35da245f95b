"""Load a source tree into parsed modules, with suppression pragmas.

The unit every checker sees is a :class:`Module`: one parsed file plus the
metadata checkers keep re-deriving — the repo-relative path, the path
*relative to the repro package* (what config globs match against), the
dotted module name, and the ``# repro: allow[rule]`` pragma map.

Pragmas
-------
A finding is suppressed when the flagged line carries a trailing pragma::

    started = time.time()  # repro: allow[determinism] -- measured on purpose

or when the line directly above is a standalone pragma comment::

    # repro: allow[determinism]
    started = time.time()

``allow[*]`` suppresses every rule on that line; multiple rules separate
with commas (``allow[determinism, stage-purity]``).

A second marker, ``# repro: hot`` on (or directly above) a ``def`` line,
declares the function perf-critical and opts it into the
``hot-path-alloc`` rule (see :mod:`repro.analysis.checkers.hotpath`).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

from .findings import Finding

_PRAGMA_RE = re.compile(r"#\s*repro:\s*allow\[([^\]]*)\]")
_HOT_RE = re.compile(r"#\s*repro:\s*hot\b")


def parse_pragmas(source: str) -> Dict[int, Set[str]]:
    """Map 1-based line numbers to the set of rule names allowed there."""
    pragmas: Dict[int, Set[str]] = {}
    for number, line in enumerate(source.splitlines(), start=1):
        match = _PRAGMA_RE.search(line)
        if match:
            rules = {rule.strip() for rule in match.group(1).split(",")
                     if rule.strip()}
            pragmas[number] = rules
    return pragmas


def parse_hot_markers(source: str) -> Set[int]:
    """1-based line numbers carrying a ``# repro: hot`` marker."""
    return {number for number, line in enumerate(source.splitlines(), start=1)
            if _HOT_RE.search(line)}


class Module:
    """One parsed source file plus the lookups checkers need."""

    def __init__(self, path: Path, rel_path: str, pkg_path: str,
                 module_name: str, source: str, tree: ast.Module):
        self.path = path
        self.rel_path = rel_path
        self.pkg_path = pkg_path
        self.module_name = module_name
        self.source = source
        self.tree = tree
        self.pragmas = parse_pragmas(source)
        self.hot_lines = parse_hot_markers(source)

    @property
    def lines(self) -> List[str]:
        return self.source.splitlines()

    def allows(self, rule: str, line: int) -> bool:
        """Whether a pragma suppresses ``rule`` for a finding at ``line``."""
        for candidate in (line, line - 1):
            rules = self.pragmas.get(candidate)
            if rules is None:
                continue
            if candidate == line - 1:
                # A pragma on the previous line only counts when that line
                # is a standalone comment, not trailing someone else's code.
                text = self.lines[candidate - 1].lstrip()
                if not text.startswith("#"):
                    continue
            if "*" in rules or rule in rules:
                return True
        return False

    def is_hot(self, def_line: int) -> bool:
        """Whether a ``def`` at ``def_line`` carries a ``# repro: hot``."""
        return (def_line in self.hot_lines
                or def_line - 1 in self.hot_lines)


class Project:
    """Every parsed module of one analysis run."""

    def __init__(self, modules: Sequence[Module], roots: Sequence[Path]):
        self.modules = list(modules)
        self.roots = [Path(root) for root in roots]
        #: Files that failed to parse, reported as findings by the runner.
        self.errors: List[Finding] = []
        #: Lazily-built interprocedural context (see analysis.callgraph).
        self._context = None

    @classmethod
    def load(cls, paths: Sequence[Path],
             repo_root: Optional[Path] = None) -> "Project":
        """Parse every ``.py`` file under ``paths`` into a project.

        ``repo_root`` anchors the repo-relative paths findings report;
        it defaults to the common parent that contains a ``src`` dir, else
        the current directory.
        """
        paths = [Path(path).resolve() for path in paths]
        if repo_root is None:
            repo_root = _guess_repo_root(paths)
        files: List[Path] = []
        for path in paths:
            if path.is_dir():
                files.extend(sorted(path.rglob("*.py")))
            elif path.suffix == ".py":
                files.append(path)
        errors: List[Finding] = []
        modules: List[Module] = []
        seen: Set[Path] = set()
        for file_path in files:
            if file_path in seen or "__pycache__" in file_path.parts:
                continue
            seen.add(file_path)
            rel_path = _relative_posix(file_path, repo_root)
            source = file_path.read_text(encoding="utf-8")
            try:
                tree = ast.parse(source, filename=str(file_path))
            except SyntaxError as error:
                errors.append(Finding(
                    rule="syntax", path=rel_path,
                    line=error.lineno or 0, col=error.offset or 0,
                    message=f"file does not parse: {error.msg}"))
                continue
            modules.append(Module(
                path=file_path, rel_path=rel_path,
                pkg_path=_package_relative(rel_path),
                module_name=_dotted_name(rel_path),
                source=source, tree=tree))
        project = cls(modules, roots=paths)
        project.errors = errors
        return project


# ----------------------------------------------------------------------
# path helpers
# ----------------------------------------------------------------------
def _guess_repo_root(paths: Sequence[Path]) -> Path:
    for path in paths:
        for candidate in [path] + list(path.parents):
            if (candidate / "src" / "repro").is_dir():
                return candidate
    return Path.cwd()


def _relative_posix(path: Path, root: Path) -> str:
    try:
        return path.relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


def _package_relative(rel_path: str) -> str:
    """Path relative to the ``repro`` package dir; config globs match this.

    ``src/repro/serving/pool.py`` -> ``serving/pool.py``.  Files outside the
    package (tests, fixtures under a tmp dir) keep their repo-relative path,
    so fixture trees can still exercise package-targeted rules by mirroring
    the layout.
    """
    parts = rel_path.split("/")
    if "repro" in parts:
        index = parts.index("repro")
        remainder = parts[index + 1:]
        if remainder:
            return "/".join(remainder)
    return rel_path


def _dotted_name(rel_path: str) -> str:
    parts = rel_path.split("/")
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    else:
        parts[-1] = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    return ".".join(parts)
