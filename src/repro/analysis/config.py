"""Repo-specific policy of the analysis pass, as constants.

The checkers are generic AST machinery; everything this repository *means*
by determinism, purity and dispatch discipline lives here: which modules
are declared virtual-time, which modules are sanctioned storage
boundaries, which functions run on worker threads, which modules must
route their GEMMs through the compute backend.

All module lists are fnmatch globs over the path relative to the ``repro``
package (``serving/pool.py``, ``serving/cluster/*.py``).
"""

from __future__ import annotations

from fnmatch import fnmatch
from typing import Sequence

# -- determinism -------------------------------------------------------
#: Modules that must never read wall clocks or unseeded RNG in code: they
#: are driven by VirtualClock / explicit seeds and their outputs are
#: asserted byte-identical in CI.
VIRTUAL_TIME_MODULES = (
    "serving/*.py",
    "serving/cluster/*.py",
    "experiments/stages.py",
    "diffusion/samplers.py",
)
#: Clock-injection boundaries: modules whose *job* is to read wall clocks
#: and hand them to the rest of the system behind injectable parameters.
#: Exempt from the determinism rule entirely.
CLOCK_BOUNDARIES = (
    "profiling/latency.py",
    "bench/timer.py",
    "obs/tracer.py",
)

# -- stage purity ------------------------------------------------------
#: Modules whose functions are the roots of the stage-purity walk: every
#: function statically reachable from here runs inside a content-addressed
#: stage, so hidden inputs corrupt cache keys.
STAGE_PURE_ROOTS = (
    "experiments/stages.py",
    "experiments/variants.py",
)
#: Sanctioned storage boundaries: reachable code may enter these modules
#: (RunStore API, atomic checkpoint I/O, the content-keyed zoo cache)
#: without findings — their side effects are keyed by the same content
#: hashes as the stages themselves.
PURITY_BOUNDARIES = (
    "experiments/store.py",
    "core/atomic.py",
    "zoo/*.py",
    # The compute-backend layer owns process-wide kernel state (the
    # registry, the compiled-kernel cache on disk); stage code reaches it
    # through every Tensor op, and its outputs are a pure function of the
    # dispatched operands.
    "tensor/backend.py",
    "tensor/_ckernels.py",
)

# -- thread-context lattice / race discipline --------------------------
#: Function-id globs (``repro.pkg.module.Class.method``) seeded as
#: worker-executed entry points, on top of everything handed to an
#: executor ``submit`` (discovered automatically from the call graph).
WORKER_ENTRIES = (
    "repro.serving.engine.ServingEngine.pump",
    "repro.serving.cluster.sim.ClusterSimulation._on_*",
    "repro.experiments.stages.*",
    "repro.experiments.variants.*",
)

# -- gemm dispatch -----------------------------------------------------
#: Modules whose matrix products must go through the compute-backend
#: dispatch (``active_backend().gemm`` and friends) rather than raw numpy
#: so MAC accounting and accelerated kernels see every GEMM.
GEMM_DISPATCH_MODULES = (
    "tensor/*.py",
    "nn/*.py",
    "core/qmodules.py",
)
#: The backend layer itself: the one place raw numpy GEMMs are the
#: implementation rather than a bypass.
GEMM_BACKEND_MODULES = (
    "tensor/backend.py",
    "tensor/_ckernels.py",
)

# -- schema discipline -------------------------------------------------
#: The one module allowed to spell out ``family/vN`` schema tags.
SCHEMA_REGISTRY_MODULE = "repro.schemas"


def matches(name: str, globs: Sequence[str]) -> bool:
    """Whether a package path (or function id) matches any glob."""
    return any(fnmatch(name, pattern) for pattern in globs)


def is_virtual_time(pkg_path: str) -> bool:
    return (matches(pkg_path, VIRTUAL_TIME_MODULES)
            and not matches(pkg_path, CLOCK_BOUNDARIES))
