"""The environment block printed with every result.

A timing is only comparable to one taken at the same BLAS thread count and
kernel tier, so every result carries what decides those.
"""

from __future__ import annotations

import ctypes
import os
import platform
from typing import Dict, Union

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_OPENBLAS_GETTERS = ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads")


def usable_cpus() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def openblas_threads() -> Union[int, str]:
    """Thread count of the OpenBLAS already loaded by numpy, or "unknown".

    Reads it from the library itself through ctypes, so a thread setting
    that the environment variables do not show still gets reported.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return "unknown"
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _OPENBLAS_GETTERS:
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return "unknown"


def environment(workload_backend: str) -> Dict:
    """Everything that decides whether two results may be compared."""
    import numpy

    from repro.tensor import backend_info

    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "openblas_threads": openblas_threads(),
        "backend_info": backend_info(),
        "workload_backend": workload_backend,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def format_environment(env: Dict) -> str:
    threads = " ".join(f"{name}={value}"
                       for name, value in env["thread_env"].items())
    info = env["backend_info"]
    return (f"env: cpu_count={env['cpu_count']} usable_cpus={env['usable_cpus']} "
            f"{threads} openblas_threads={env['openblas_threads']} "
            f"backend={env['workload_backend']} "
            f"(default={info.get('default')} kernels={info.get('kernels')}) "
            f"python={env['python']} numpy={env['numpy']}")
