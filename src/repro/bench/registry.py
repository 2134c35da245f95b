"""Workload registry: named benchmark workloads grouped into suites.

A workload is a *setup function* returning the callable to time (plus
optional metadata).  Setup runs once per benchmark run, outside the timed
region, so model construction, quantization and calibration never pollute
the samples.  Workloads declare which suites they belong to (``ci`` is
what the CI perf gate runs; ``micro``/``macro`` slice it by granularity;
``full`` is everything) and optionally pair up as the two *arms* of a
before/after comparison: ``pair="kernel.conv2d", arm="pre"`` and
``arm="fast"`` produce a speedup entry in the report.  A pair may also
declare the smallest speedup it must show (``min_speedup``, on either
arm); the comparison fails a run whose same-run speedup falls below it,
whatever the baseline says.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

#: The timed callable, or (timed callable, metadata dict).
SetupFn = Callable[[], object]

PRE_ARM = "pre"
FAST_ARM = "fast"


@dataclass
class Workload:
    """One registered benchmark workload."""

    name: str
    setup: SetupFn
    suites: Tuple[str, ...] = ("full",)
    #: Base name of a before/after comparison this workload is one arm of.
    pair: Optional[str] = None
    #: "pre" (the unoptimized reference arm) or "fast" (the shipped path).
    arm: Optional[str] = None
    repeats: Optional[int] = None        # per-workload override
    warmup: Optional[int] = None
    metadata: Dict = field(default_factory=dict)
    #: Smallest pre/fast speedup of the pair this workload is an arm of.
    min_speedup: Optional[float] = None

    def build(self) -> Tuple[Callable[[], object], Dict]:
        """Run setup; returns ``(timed_callable, metadata)``."""
        built = self.setup()
        if isinstance(built, tuple):
            fn, extra = built
            metadata = {**self.metadata, **extra}
        else:
            fn, metadata = built, dict(self.metadata)
        return fn, metadata


WORKLOAD_REGISTRY: Dict[str, Workload] = {}


def register_workload(name: str, setup: SetupFn,
                      suites: Tuple[str, ...] = ("full",),
                      pair: Optional[str] = None, arm: Optional[str] = None,
                      repeats: Optional[int] = None,
                      warmup: Optional[int] = None,
                      metadata: Optional[Dict] = None,
                      min_speedup: Optional[float] = None,
                      override: bool = False) -> Workload:
    """Register a workload under ``name``; duplicate names raise."""
    if not name:
        raise ValueError("workload name must be non-empty")
    if name in WORKLOAD_REGISTRY and not override:
        raise ValueError(f"workload '{name}' is already registered; "
                         "pass override=True to replace it")
    if (pair is None) != (arm is None):
        raise ValueError("pair and arm must be given together")
    if arm is not None and arm not in (PRE_ARM, FAST_ARM):
        raise ValueError(f"arm must be '{PRE_ARM}' or '{FAST_ARM}', got {arm!r}")
    if min_speedup is not None and pair is None:
        raise ValueError("min_speedup needs a pair to measure a speedup")
    workload = Workload(name=name, setup=setup, suites=tuple(suites),
                        pair=pair, arm=arm, repeats=repeats, warmup=warmup,
                        metadata=dict(metadata or {}),
                        min_speedup=min_speedup)
    WORKLOAD_REGISTRY[name] = workload
    return workload


def unregister_workload(name: str) -> None:
    """Remove a workload (mainly for tests)."""
    WORKLOAD_REGISTRY.pop(name, None)


def workloads_for_suite(suite: str) -> List[Workload]:
    """All workloads belonging to ``suite``, in registration order."""
    return [w for w in WORKLOAD_REGISTRY.values() if suite in w.suites]


def available_suites() -> Tuple[str, ...]:
    suites = set()
    for workload in WORKLOAD_REGISTRY.values():
        suites.update(workload.suites)
    return tuple(sorted(suites))
