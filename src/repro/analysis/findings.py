"""Findings: what a checker reports, and the JSON report around them.

A :class:`Finding` pins one rule violation to a file, line and symbol.
Every finding that no pragma suppresses fails the gate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from .. import schemas

#: Schema tag written into every JSON report (registered centrally).
REPORT_SCHEMA = schemas.ANALYSIS_REPORT


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str                    # repo-relative posix path
    line: int
    col: int
    message: str
    symbol: Optional[str] = None  # enclosing function/class qualname

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> Dict:
        return {
            "rule": self.rule, "path": self.path, "line": self.line,
            "col": self.col, "symbol": self.symbol, "message": self.message,
        }

    def format(self) -> str:
        where = f" [{self.symbol}]" if self.symbol else ""
        return f"{self.location()}: {self.rule}: {self.message}{where}"


@dataclass
class AnalysisReport:
    """The full result of one analysis run (see ``repro.schemas.ANALYSIS_REPORT``)."""

    roots: List[str]
    files_analyzed: int
    rules: List[Dict]                      # [{"name", "description"}]
    findings: List[Finding] = field(default_factory=list)
    suppressed_count: int = 0
    #: Per-rule wall time in seconds (plus "total").
    timing: Dict[str, float] = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def per_rule_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts

    def to_dict(self) -> Dict:
        return {
            "schema": REPORT_SCHEMA,
            "roots": list(self.roots),
            "files_analyzed": self.files_analyzed,
            "rules": list(self.rules),
            "findings": [finding.to_dict() for finding in self.findings],
            "timing": {key: round(value, 6)
                       for key, value in sorted(self.timing.items())},
            "summary": {
                "total": len(self.findings),
                "suppressed": self.suppressed_count,
                "per_rule": self.per_rule_counts(),
            },
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    def save(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json(indent=2) + "\n")
        return path
