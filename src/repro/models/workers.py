"""One process-wide thread pool for independent numpy work.

:func:`fan_out` maps a function over independent items on a pool with
one thread per usable CPU and returns the results in item order.  Each
item runs exactly the calls it would run on its own, so a result does
not depend on the pool.  numpy releases the GIL inside BLAS and its
ufunc loops, so large per-item work overlaps on the CPUs.

It runs the items inline, on the calling thread, when there is at most
one item or one usable CPU, and when called from one of the pool's own
threads (a nested fan-out would otherwise wait on workers that are all
busy waiting on it).  A forked child starts without the parent's pool
and builds its own on first use.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, List, Optional, TypeVar

__all__ = ["blas_threads", "fan_out", "pool_size"]

T = TypeVar("T")
R = TypeVar("R")

_lock = threading.Lock()
_local = threading.local()
_pool: Optional[ThreadPoolExecutor] = None


def pool_size() -> int:
    """CPUs this process may run on: the pool's thread count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def blas_threads() -> int:
    """Threads the BLAS library runs one GEMM on, as its environment
    sets them: the first of ``OPENBLAS_NUM_THREADS``,
    ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` that holds a positive
    integer, else one per usable CPU (OpenBLAS's default).

    Work made of GEMMs gains from the pool only when this is 1: a
    multi-threaded BLAS already spreads each GEMM over the CPUs, and
    parts run side by side contend with it.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return pool_size()


def _mark_worker() -> None:
    _local.worker = True


def _get_pool() -> ThreadPoolExecutor:
    global _pool
    with _lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                pool_size(), thread_name_prefix="repro-fan-out", initializer=_mark_worker
            )
        return _pool


def _forget_pool() -> None:
    """In a forked child: the parent's threads do not exist here."""
    global _pool, _lock, _local
    _pool, _lock, _local = None, threading.Lock(), threading.local()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def fan_out(fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
    """``[fn(item) for item in items]``, the items run on the pool.

    The first exception an item raises propagates to the caller once
    the items before it have finished; items not yet started are
    cancelled.
    """
    items = list(items)
    if len(items) < 2 or getattr(_local, "worker", False) or pool_size() < 2:
        return [fn(item) for item in items]
    return list(_get_pool().map(fn, items))
