"""Command-line driver: ``python -m repro.analysis [paths...]``.

Exit code is 0 when every finding is pragma-suppressed, 1 when any finding
remains (or a file fails to parse), 2 on usage errors.  The JSON report
(``repro.analysis/v3``) is the machine interface CI consumes; stdout is
for humans.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .findings import AnalysisReport
from .project import Project
from .registry import available_checkers, run_analysis


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=("Repo-aware static analysis: determinism, stage "
                     "purity, fingerprint coverage, tracer discipline, "
                     "race discipline, hot-path allocation, schema "
                     "discipline, GEMM dispatch."))
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to analyze (default: src)")
    parser.add_argument(
        "--rules", default=None,
        help="comma-separated subset of rules to run (default: all)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit")
    parser.add_argument(
        "--json", default=None, metavar="PATH", dest="json_path",
        help="write the repro.analysis/v3 JSON report here")
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress per-finding lines; print the summary only")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for name, description in available_checkers():
            print(f"{name:22s} {description}")
        return 0

    rules = ([rule.strip() for rule in args.rules.split(",") if rule.strip()]
             if args.rules else None)
    try:
        project = Project.load([Path(path) for path in args.paths])
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    run = run_analysis(project, rules)
    findings = run.findings

    rule_docs = [{"name": name, "description": description}
                 for name, description in available_checkers()
                 if rules is None or name in rules]
    report = AnalysisReport(
        roots=[str(path) for path in args.paths],
        files_analyzed=len(project.modules),
        rules=rule_docs,
        findings=findings,
        suppressed_count=run.suppressed,
        timing=run.timing)

    if args.json_path:
        report.save(args.json_path)

    if not args.quiet:
        for finding in findings:
            print(finding.format())
    print(f"{len(findings)} finding(s), {run.suppressed} suppressed "
          f"({report.files_analyzed} files)")
    if findings:
        print("findings fail the gate; fix them, or add a "
              "'# repro: allow[rule] -- reason' pragma", file=sys.stderr)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
