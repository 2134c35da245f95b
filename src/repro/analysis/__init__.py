"""Repo-aware static analysis: prove invariants before runtime.

The runtime test suite asserts that serving reports are byte-identical,
that stage caches hit, that disabled tracing is free.  This package proves
the *preconditions* for those properties statically, over the AST, so a
violation fails CI at the diff that introduces it instead of as a flaky
repro three PRs later.

Rules (see ``repro/analysis/checkers/``):

- ``determinism`` — no wall clocks / global RNG in virtual-time modules
- ``stage-purity`` — stage-reachable code does no I/O outside the RunStore
- ``fingerprint-coverage`` — ``fingerprint()`` hashes every field
- ``tracer-discipline`` — tracing is zero-cost when disabled
- ``race-discipline`` — worker-reachable writes to shared state hold a lock
- ``hot-path-alloc`` — no per-iteration allocation in ``# repro: hot`` code
- ``schema-discipline`` — ``family/vN`` tags come from ``repro.schemas``
- ``gemm-dispatch`` — matrix products go through the compute backend

Usage::

    PYTHONPATH=src python -m repro.analysis src --json report.json

Every finding fails the gate.  The one way to accept a finding is a
reasoned pragma in source: ``# repro: allow[rule] -- reason``.
"""

from .findings import REPORT_SCHEMA, AnalysisReport, Finding
from .project import Module, Project, parse_pragmas
from .registry import (Checker, available_checkers, get_checker,
                       register_checker, run_analysis)

__all__ = [
    "AnalysisReport", "Checker", "Finding", "Module", "Project",
    "REPORT_SCHEMA", "available_checkers", "get_checker", "parse_pragmas",
    "register_checker", "run_analysis",
]
