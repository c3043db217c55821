"""Description of the machine a benchmark run measured."""

from __future__ import annotations

import ctypes
import os
import platform

import numpy as np

#: BLAS threading variables the benchmark pins before numpy is imported
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS")


def _proc_field(path: str, key: str) -> str | None:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _blas() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError, ValueError):
        return {"name": None, "version": None}


def _blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def describe() -> dict:
    mem_kb = _proc_field("/proc/meminfo", "MemTotal")
    blas = _blas()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name") or platform.processor(),
        "ram_mb": round(int(mem_kb.split()[0]) / 1024) if mem_kb else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": blas["name"],
        "blas_version": blas["version"],
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }
