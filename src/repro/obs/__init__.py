"""repro.obs — unified tracing, metrics, and structured logging.

The process-wide observability layer every subsystem emits into:

* **Tracing** (:mod:`repro.obs.trace`) — ``with obs.span("quantize",
  layer="fc1"):`` nested timed regions, exported to JSONL or Chrome
  ``trace_event`` JSON (Perfetto-loadable).  Disabled by default; the
  disabled path is one attribute load and one branch.
* **Metrics** (:mod:`repro.obs.metrics`) — counters, gauges and
  histograms in a registry, with JSON snapshots and a Prometheus-style
  text exposition.  ``obs.counter("pipeline.cache.hits").inc()``
  resolves the *current* global registry at call time, which is what
  lets :func:`capture` redirect a worker process's emissions.
* **Logging** (:mod:`repro.obs.log`) — ``setup_logging()`` honoring
  ``$REPRO_LOG`` / ``--log-level``.

:func:`capture` is the worker-side half of multi-process merging: it
swaps in a fresh registry (and optionally enables tracing), runs the
batch, and hands back ``(spans, metrics-dump)`` for the parent to
:func:`absorb_capture`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Optional

from repro.obs.log import get_logger, setup_logging
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    diff_snapshots,
    nearest_rank,
)
from repro.obs import trace
from repro.obs.trace import (
    NOOP_SPAN,
    Tracer,
    chrome_trace,
    get_tracer,
    load_spans,
    set_tracing,
    span,
    summarize_spans,
    write_trace,
)

__all__ = [
    "Capture",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NOOP_SPAN",
    "Tracer",
    "absorb_capture",
    "capture",
    "chrome_trace",
    "counter",
    "diff_snapshots",
    "gauge",
    "get_logger",
    "get_registry",
    "get_tracer",
    "histogram",
    "load_spans",
    "nearest_rank",
    "reset",
    "set_tracing",
    "setup_logging",
    "snapshot",
    "span",
    "summarize_spans",
    "trace_enabled",
    "tracing_enabled",
    "write_outputs",
    "write_trace",
]

# ----------------------------------------------------------------------
# Process-global registry (swappable; resolve at call time).
# ----------------------------------------------------------------------

_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _REGISTRY


def counter(name: str, **labels) -> Counter:
    return _REGISTRY.counter(name, **labels)


def gauge(name: str, **labels) -> Gauge:
    return _REGISTRY.gauge(name, **labels)


def histogram(name: str, cap: Optional[int] = None, **labels) -> Histogram:
    return _REGISTRY.histogram(name, cap=cap, **labels)


def snapshot() -> dict:
    return _REGISTRY.snapshot()


def tracing_enabled() -> bool:
    return trace.TRACER.enabled


#: Alias kept short for hot-path guards.
trace_enabled = tracing_enabled


def reset() -> None:
    """Fresh global registry + cleared, disabled tracer (tests/CLIs)."""
    global _REGISTRY
    _REGISTRY = MetricsRegistry()
    trace.TRACER.enabled = False
    trace.TRACER.clear()


def write_outputs(metrics: Optional[str] = None, trace_out: Optional[str] = None) -> None:
    """Write a CLI's ``--metrics`` snapshot (JSON) and ``--trace``
    spans, on a normal exit and a Ctrl-C alike."""
    if metrics is not None:
        from repro.resilience.atomic import atomic_write_json

        atomic_write_json(metrics, snapshot(), indent=2)
        print(f"wrote metrics snapshot {metrics}")
    if trace_out is not None:
        spans = trace.TRACER.drain()
        write_trace(trace_out, spans)
        print(f"wrote trace {trace_out} ({len(spans)} spans)")


# ----------------------------------------------------------------------
# Worker-process capture.
# ----------------------------------------------------------------------


class Capture:
    """What one :func:`capture` block collected (filled on exit)."""

    def __init__(self):
        self.spans: List[dict] = []
        self.metrics: List[dict] = []


@contextmanager
def capture(tracing: bool = True):
    """Collect spans + metrics emitted inside the block, in isolation.

    Swaps a fresh registry into the module global and (optionally)
    enables the tracer for the duration; pre-existing buffered spans
    and the previous registry are restored afterwards.  The yielded
    :class:`Capture` carries the block's spans and a mergeable metrics
    dump once the block exits.
    """
    global _REGISTRY
    prev_registry = _REGISTRY
    prev_enabled = trace.TRACER.enabled
    stash = trace.TRACER.drain()
    captured = _REGISTRY = MetricsRegistry()
    trace.TRACER.enabled = tracing
    cap = Capture()
    try:
        yield cap
    finally:
        cap.spans = trace.TRACER.drain()
        cap.metrics = captured.dump()
        _REGISTRY = prev_registry
        trace.TRACER.enabled = prev_enabled
        trace.TRACER.absorb(stash)


def absorb_capture(spans: List[dict], metrics: List[dict]) -> None:
    """Parent-side merge of a worker's :class:`Capture` payload."""
    trace.TRACER.absorb(spans)
    _REGISTRY.merge(metrics)
