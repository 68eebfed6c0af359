"""Host and numerics envelope recorded with every benchmark result.

Everything here is read, never set: the benchmark must observe the BLAS
thread count the program would run with, so a change that pins it shows
up in the numbers.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
from pathlib import Path

import numpy as np


def _blas_info() -> dict:
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "threads": _blas_threads(),
    }


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, asked through ctypes."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "libscipy_openblas*.so*"))):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _git_sha(root: Path) -> str | None:
    """HEAD of ``root`` when it is itself a git work tree, else None.

    Without a ``.git`` here git is not asked at all: it would search the
    parent directories, outside the checkout.
    """
    if not (root / ".git").exists():
        return None
    try:
        head = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if head.returncode != 0:
        return None
    return head.stdout.strip() or None


def source_digest(root: Path) -> str:
    """sha256 over every ``src/**/*.py`` path and its bytes."""
    hasher = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        hasher.update(str(path.relative_to(root)).encode())
        hasher.update(b"\0")
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def host_envelope(root: Path) -> dict:
    from repro.nn import precision

    return {
        "nproc": os.cpu_count(),
        "sched_cpus": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "blas": _blas_info(),
        "blas_env": {
            key: os.environ[key]
            for key in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"
            )
            if key in os.environ
        },
        "numpy": np.__version__,
        "python": platform.python_version(),
        "dtype": np.dtype(precision.dtype()).name,
        "git_sha": _git_sha(root),
        "source_sha256": source_digest(root),
        "machine": platform.machine(),
    }
