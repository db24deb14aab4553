"""Kernel dispatch: pick the backend for each GEMM, observably.

The whole policy is :func:`choose_backend`:

1. a pinned backend — the ``backend=`` argument (e.g. from
   ``FunctionalGemm(..., backend="numpy")``) or the
   ``$REPRO_KERNEL_BACKEND`` environment override — runs when its
   ``supports()`` accepts the task;
2. otherwise ``fused`` runs when it accepts the task;
3. otherwise ``numpy``, which executes any PE config.

Unknown pin names fail loudly.  A known pin that declines the task
*falls back* with a one-line :mod:`repro.obs` warning (once per pin)
rather than failing, because every backend is bit-identical — only
speed is at stake.
"""

from __future__ import annotations

import os
from typing import Optional

from repro import obs
from repro.kernels.base import GemmExecution, GemmTask, KernelBackend, get_backend

__all__ = ["KernelDispatcher", "choose_backend", "get_dispatcher", "reset_dispatcher"]

_log = obs.get_logger(__name__)


def choose_backend(task: GemmTask, pinned: Optional[str] = None) -> KernelBackend:
    """The dispatch rule: a pin that supports ``task``, else ``fused``
    when it supports ``task``, else ``numpy``."""
    if pinned:
        b = get_backend(pinned)  # unknown names fail loudly
        if b.supports(task) is None:
            return b
    fused = get_backend("fused")
    return fused if fused.supports(task) is None else get_backend("numpy")


class KernelDispatcher:
    """Routes GEMM tasks to backends; warns once per declined pin."""

    def __init__(self):
        self._warned = set()

    def resolve(self, task: GemmTask, backend: Optional[str] = None) -> KernelBackend:
        """The backend this task will run on."""
        pinned = backend or os.environ.get("REPRO_KERNEL_BACKEND")
        chosen = choose_backend(task, pinned)
        if pinned and chosen.name != pinned:
            if pinned not in self._warned:
                self._warned.add(pinned)
                _log.warning(
                    "kernel backend %r cannot run this task (%s); "
                    "falling back to %r",
                    pinned, get_backend(pinned).supports(task), chosen.name,
                )
            obs.counter("kernels.dispatch.fallbacks", requested=pinned).inc()
        return chosen

    def run(self, task: GemmTask, backend: Optional[str] = None) -> GemmExecution:
        b = self.resolve(task, backend=backend)
        obs.counter("kernels.dispatch", backend=b.name).inc()
        if obs.trace_enabled():
            m, k, d, *_ = task.geometry()
            with obs.span(
                "kernel.dispatch", backend=b.name,
                dtype=task.packed.dtype_name, m=m, k=k, d=d,
            ):
                return b.run(task)
        return b.run(task)


# ----------------------------------------------------------------------
# Process-wide dispatcher.
# ----------------------------------------------------------------------

_DISPATCHER: Optional[KernelDispatcher] = None


def get_dispatcher() -> KernelDispatcher:
    """The process-wide dispatcher (env read lazily per call)."""
    global _DISPATCHER
    if _DISPATCHER is None:
        _DISPATCHER = KernelDispatcher()
    return _DISPATCHER


def reset_dispatcher() -> KernelDispatcher:
    """Fresh process-wide dispatcher with re-armed fallback warnings."""
    global _DISPATCHER
    _DISPATCHER = KernelDispatcher()
    return _DISPATCHER
