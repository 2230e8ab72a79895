"""Thread pinning and the environment record stored with every result.

Imported before numpy: :func:`thread_env` must be applied to ``os.environ``
before the BLAS library loads, or it has no effect in this process.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def thread_env() -> dict:
    """BLAS/OpenMP thread counts pinned to 1 for the benchmark and its
    children: on a few shared cores a second BLAS thread spins and waits
    for the slower core, which makes timings follow the host's load."""
    return dict.fromkeys(THREAD_VARS, "1")


def _openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be read."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest(src) -> str:
    """sha256 over the library sources: identifies the code when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def record(root, src, seed) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": nproc(),
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(src),
        "seed": seed,
    }
