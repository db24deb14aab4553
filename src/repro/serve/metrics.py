"""Serving metrics: throughput, TTFT, latency percentiles.

Rebuilt on :mod:`repro.obs.metrics`: every number lives in a
:class:`~repro.obs.metrics.MetricsRegistry` (counters for request and
token totals, gauges for scheduler queue depth, histograms for
TTFT/latency), so a serving run exports the same snapshot/Prometheus
shapes as the pipeline and DSE layers.  The legacy surface is
preserved exactly — ``metrics.submitted += 1``,
``metrics.ttft.percentile(95)``, ``metrics.to_dict()`` — while
:class:`LatencyStats` gains the obs histogram's cached sorted view
(re-sorting only after new samples) and optional reservoir ``cap``
for unbounded streams.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional

from repro.obs.metrics import Histogram, MetricsRegistry

__all__ = ["LatencyStats", "ServeMetrics"]


class LatencyStats(Histogram):
    """Streaming latency samples with percentile summaries.

    A thin veneer over :class:`repro.obs.metrics.Histogram` keeping
    the historical serve API: seconds-suffixed summary keys and a
    ``samples``-list constructor.  ``cap`` bounds the retained sample
    reservoir; ``count``/``mean``/``max`` still cover every recorded
    sample.
    """

    def __init__(
        self,
        samples: Optional[Iterable[float]] = None,
        cap: Optional[int] = None,
        name: str = "serve.latency_s",
        labels: tuple = (),
    ):
        super().__init__(name=name, labels=labels, cap=cap)
        for v in samples or ():
            self.record(v)

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean_s": self.mean,
            "p50_s": self.percentile(50),
            "p95_s": self.percentile(95),
            "p99_s": self.percentile(99),
            "max_s": self.max,
        }


def _int_counter(name):
    """Property view exposing a named registry counter as a plain int."""

    def get(self) -> int:
        return int(self._counters[name].value)

    def set(self, value: int) -> None:
        self._counters[name].value = float(value)

    return property(get, set)


class ServeMetrics:
    """Aggregate counters for one serving run.

    Each instance owns (or is handed) a registry; passing a shared
    registry — e.g. ``repro.obs.get_registry()`` — publishes the
    run's series alongside the pipeline/DSE metrics.  Counter fields
    stay plain-int attributes (``metrics.submitted += 1`` works), and
    ``ttft``/``latency`` are :class:`LatencyStats` histograms
    registered under ``serve.ttft_s`` / ``serve.latency_s``.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._counters = {
            name: self.registry.counter(f"serve.{series}")
            for name, series in (
                ("submitted", "requests.submitted"),
                ("completed", "requests.completed"),
                ("expired", "requests.expired"),
                ("rejected", "requests.rejected"),
                ("prefill_tokens", "tokens.prefill"),
                ("prefill_reused", "tokens.prefill_reused"),
                ("decode_tokens", "tokens.decode"),
                ("steps", "scheduler.steps"),
            )
        }
        self.ttft = LatencyStats(name="serve.ttft_s")
        self.latency = LatencyStats(name="serve.latency_s")
        self.registry.register(self.ttft)
        self.registry.register(self.latency)
        #: Scheduler queue depth (updated by the batcher each step).
        self.queue_waiting = self.registry.gauge("serve.queue.waiting")
        self.queue_running = self.registry.gauge("serve.queue.running")
        self.started_at: Optional[float] = None
        self.stopped_at: Optional[float] = None

    submitted = _int_counter("submitted")
    completed = _int_counter("completed")
    #: Requests cancelled because their deadline passed.
    expired = _int_counter("expired")
    #: Requests shed at admission (queue full or server draining).
    rejected = _int_counter("rejected")
    prefill_tokens = _int_counter("prefill_tokens")
    #: Prompt tokens whose KV was reused from the prefix cache.
    prefill_reused = _int_counter("prefill_reused")
    decode_tokens = _int_counter("decode_tokens")
    steps = _int_counter("steps")

    # ------------------------------------------------------------------
    def start(self, now: Optional[float] = None) -> None:
        if self.started_at is None:
            self.started_at = time.monotonic() if now is None else now

    def stop(self, now: Optional[float] = None) -> None:
        self.stopped_at = time.monotonic() if now is None else now

    @property
    def elapsed_s(self) -> float:
        if self.started_at is None:
            return 0.0
        end = self.stopped_at if self.stopped_at is not None else time.monotonic()
        return max(end - self.started_at, 0.0)

    @property
    def total_tokens(self) -> int:
        return self.prefill_tokens + self.decode_tokens

    @property
    def decode_tokens_per_s(self) -> float:
        e = self.elapsed_s
        return self.decode_tokens / e if e > 0 else 0.0

    @property
    def total_tokens_per_s(self) -> float:
        e = self.elapsed_s
        return self.total_tokens / e if e > 0 else 0.0

    def snapshot(self) -> Dict:
        """A live view of the run so far, safe to take mid-run: it
        mutates nothing, so the final :meth:`to_dict` is unchanged.
        Adds the live queue gauges, in-flight count, and prefix-reuse
        total on top of the :meth:`to_dict` shape.
        """
        d = self.to_dict()
        d["tokens"]["prefill_reused"] = self.prefill_reused
        d["queues"] = {
            "waiting": int(self.queue_waiting.value),
            "running": int(self.queue_running.value),
        }
        d["in_flight"] = self.submitted - self.completed - self.expired
        return d

    def to_dict(self) -> Dict:
        return {
            "requests": {
                "submitted": self.submitted,
                "completed": self.completed,
                "expired": self.expired,
                "rejected": self.rejected,
            },
            "tokens": {
                "prefill": self.prefill_tokens,
                "decode": self.decode_tokens,
                "total": self.total_tokens,
            },
            "steps": self.steps,
            "elapsed_s": self.elapsed_s,
            "decode_tokens_per_s": self.decode_tokens_per_s,
            "total_tokens_per_s": self.total_tokens_per_s,
            "ttft": self.ttft.summary(),
            "latency": self.latency.summary(),
        }
