"""The machine facts a benchmark figure needs next to it: CPUs, library
versions, the BLAS and how many threads it runs."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy
import scipy


def _openblas_threads(package) -> int | None:
    """Threads of the OpenBLAS bundled with a numpy or scipy wheel, if any."""
    libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
    for lib_path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def record() -> dict:
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_numpy": _openblas_threads(numpy),
        "blas_threads_scipy": _openblas_threads(scipy),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
