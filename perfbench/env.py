"""BLAS thread pinning and the environment fingerprint on every record.

:func:`pin_blas_threads` must run before numpy is first imported: the
OpenBLAS pool size is read from the environment at load time.  The
fingerprint then reads back the thread count the library actually
uses, so a record never claims a setting that did not take effect.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional

#: BLAS threads the benchmark runs with.  One thread keeps sim-scale
#: GEMMs (hidden size 256) from contending with the scheduler loop for
#: the two CPUs of the reference box, and makes runs steadier.
BLAS_THREADS = 1

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> int:
    """Pin every BLAS thread variable; returns the pinned count."""
    if "numpy" in sys.modules:
        raise RuntimeError("BLAS threads must be pinned before numpy is imported")
    threads = max(1, min(BLAS_THREADS, os.cpu_count() or 1))
    for var in _THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def _openblas() -> Optional[ctypes.CDLL]:
    """The OpenBLAS library numpy loaded, found through the process maps."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {
                line.split()[-1]
                for line in maps
                if "openblas" in line.lower() and "/" in line
            }
    except OSError:
        return None
    for path in sorted(paths):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def _blas_call(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            fn.argtypes = []
            return fn()
    return None


def blas_info() -> Dict[str, object]:
    """Build string and thread count in effect, read from the library."""
    import numpy  # noqa: F401  (loads the BLAS library)

    lib = _openblas()
    if lib is None:
        return {"build": None, "threads": None}
    prefixes = ("scipy_openblas_", "openblas_")
    suffixes = ("64_", "")
    config = _blas_call(
        lib, [p + "get_config" + s for p in prefixes for s in suffixes], ctypes.c_char_p
    )
    threads = _blas_call(
        lib, [p + "get_num_threads" + s for p in prefixes for s in suffixes], ctypes.c_int
    )
    return {
        "build": config.decode() if config else None,
        "threads": threads,
    }


def git_sha(root: Path) -> Optional[str]:
    """HEAD of the checkout, or None outside a git repository."""
    # The ceiling keeps git from looking for a repository above the
    # checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def source_digest(root: Path) -> str:
    """sha256 over every file under ``src/``: identifies the code even
    in a checkout without git metadata."""
    h = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def fingerprint(root: Path, workload: str, seed: int, pinned: int) -> Dict[str, object]:
    import numpy

    blas = blas_info()
    return {
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_build": blas["build"],
        "blas_threads_pinned": pinned,
        "blas_threads_in_effect": blas["threads"],
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
    }
