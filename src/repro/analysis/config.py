"""Repo-specific configuration of the analysis pass.

The checkers are generic AST machinery; everything this repository *means*
by determinism, purity and dispatch discipline lives here: which modules
are declared virtual-time, which modules are sanctioned storage
boundaries, which functions run on worker threads, which modules must
route their GEMMs through the compute backend.

All module lists are fnmatch globs over the path relative to the ``repro``
package (``serving/pool.py``, ``serving/cluster/*.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatch
from typing import Sequence, Tuple


def _matches(pkg_path: str, globs: Sequence[str]) -> bool:
    return any(fnmatch(pkg_path, pattern) for pattern in globs)


@dataclass
class AnalysisConfig:
    """Everything the checkers need to know about this repository."""

    # -- determinism ---------------------------------------------------
    #: Modules that must never read wall clocks or unseeded RNG in code:
    #: they are driven by VirtualClock / explicit seeds and their outputs
    #: are asserted byte-identical in CI.
    virtual_time_modules: Tuple[str, ...] = (
        "serving/*.py",
        "serving/cluster/*.py",
        "experiments/stages.py",
        "diffusion/samplers.py",
    )
    #: Clock-injection boundaries: modules whose *job* is to read wall
    #: clocks and hand them to the rest of the system behind injectable
    #: parameters.  Exempt from the determinism rule entirely.
    clock_boundaries: Tuple[str, ...] = (
        "profiling/latency.py",
        "bench/timer.py",
        "obs/tracer.py",
    )

    # -- stage purity --------------------------------------------------
    #: Modules whose functions are the roots of the stage-purity walk:
    #: every function statically reachable from here runs inside a
    #: content-addressed stage, so hidden inputs corrupt cache keys.
    stage_pure_roots: Tuple[str, ...] = (
        "experiments/stages.py",
        "experiments/variants.py",
    )
    #: Sanctioned storage boundaries: reachable code may enter these
    #: modules (RunStore API, atomic checkpoint I/O, the content-keyed
    #: zoo cache) without findings — their side effects are keyed by the
    #: same content hashes as the stages themselves.
    purity_boundaries: Tuple[str, ...] = (
        "experiments/store.py",
        "core/atomic.py",
        "zoo/*.py",
        # The compute-backend layer owns process-wide kernel state (the
        # registry, the compiled-kernel cache on disk); stage code reaches
        # it through every Tensor op, and its outputs are a pure function
        # of the dispatched operands.
        "tensor/backend.py",
        "tensor/_ckernels.py",
    )

    # -- thread-context lattice / race discipline ----------------------
    #: Function-id globs (``repro.pkg.module.Class.method``) seeded as
    #: worker-executed entry points, on top of everything handed to an
    #: executor ``submit`` (discovered automatically from the call graph).
    worker_entries: Tuple[str, ...] = (
        "repro.serving.engine.ServingEngine.pump",
        "repro.serving.cluster.sim.ClusterSimulation._on_*",
        "repro.experiments.stages.*",
        "repro.experiments.variants.*",
    )

    # -- hot-path allocation -------------------------------------------
    #: Module globs the ``# repro: hot`` marker is honored in; everything
    #: by default — the marker itself is the opt-in.
    hot_modules: Tuple[str, ...] = ("*.py",)

    # -- gemm dispatch -------------------------------------------------
    #: Modules whose matrix products must go through the compute-backend
    #: dispatch (``active_backend().gemm`` and friends) rather than raw
    #: numpy so MAC accounting and accelerated kernels see every GEMM.
    gemm_dispatch_modules: Tuple[str, ...] = (
        "tensor/*.py",
        "nn/*.py",
        "core/qmodules.py",
    )
    #: The backend layer itself: the one place raw numpy GEMMs are the
    #: implementation rather than a bypass.
    gemm_backend_modules: Tuple[str, ...] = (
        "tensor/backend.py",
        "tensor/_ckernels.py",
    )

    # -- schema discipline ---------------------------------------------
    #: The one module allowed to spell out ``family/vN`` schema tags.
    schema_registry_module: str = "repro.schemas"
    #: Tag literals exempt from the rule (none by default; prefer pragmas
    #: at the use site so exemptions carry a reason).
    schema_exempt_tags: Tuple[str, ...] = ()

    # -- fingerprint coverage ------------------------------------------
    #: Modules scanned for dataclasses exposing ``fingerprint()``.
    fingerprint_modules: Tuple[str, ...] = ("*.py",)

    # -- tracer discipline ---------------------------------------------
    #: Modules scanned for tracing call sites.
    tracer_modules: Tuple[str, ...] = ("*.py",)

    # ------------------------------------------------------------------
    def is_virtual_time(self, pkg_path: str) -> bool:
        return (_matches(pkg_path, self.virtual_time_modules)
                and not _matches(pkg_path, self.clock_boundaries))

    def is_purity_boundary(self, pkg_path: str) -> bool:
        return _matches(pkg_path, self.purity_boundaries)

    def is_stage_pure_root(self, pkg_path: str) -> bool:
        return _matches(pkg_path, self.stage_pure_roots)


DEFAULT_CONFIG = AnalysisConfig()


#: Names that may appear in rule configuration (documented in README).
__all__ = ["AnalysisConfig", "DEFAULT_CONFIG"]
