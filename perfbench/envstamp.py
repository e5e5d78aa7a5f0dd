"""What the numbers were measured on: commit, interpreter, numpy, BLAS."""

from __future__ import annotations

import ctypes
import glob
import importlib.util
import os
import platform

import numpy as np

_PARALLEL = {0: "sequential", 1: "threaded (pthreads)", 2: "threaded (OpenMP)"}


def commit(root: str) -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    in an exported tree."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _openblas() -> dict:
    """Thread count and threading model as numpy's scipy-openblas reports
    them at run time."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so*")):
        lib = ctypes.CDLL(path)
        get_threads = lib.scipy_openblas_get_num_threads64_
        get_parallel = lib.scipy_openblas_get_parallel64_
        get_threads.restype = get_parallel.restype = ctypes.c_int
        return {"threads": get_threads(),
                "threading": _PARALLEL.get(get_parallel(), "unknown")}
    return {"threads": None, "threading": "unknown"}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(root: str, blas_threads: int, nproc: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": blas_threads,
        "blas_runtime": _openblas(),
        "nproc": nproc,
        "cpu": _cpu_model(),
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
    }
