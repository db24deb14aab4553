"""Perf gates of the observability layer: the disabled path must be free.

* **micro** — nanoseconds per *disabled* span call (the one-branch
  guarantee) and per always-on counter increment / histogram record,
  each under a generous absolute bound;
* **overhead** — a cold smoke DSE sweep is timed untraced, then run
  traced in a fresh cache to count how many instrumentation events
  the same workload emits.  The disabled-instrumentation overhead
  estimate — events x per-disabled-call cost / untraced wall time —
  must stay **under 5 %** (measured it is orders of magnitude under).

The enabled-tracing overhead is recorded by perfbench
(``trace.overhead.*``).
"""

import time

import pytest

from repro import obs
from repro.dse.space import get_preset
from repro.dse.sweep import run_sweep
from repro.pipeline import Engine
from repro.pipeline.context import clear_context
from repro.pipeline.store import CacheStore

_MICRO_N = 200_000


def _ns_per_call(fn, n):
    t0 = time.perf_counter_ns()
    for _ in range(n):
        fn()
    return (time.perf_counter_ns() - t0) / n


@pytest.fixture(scope="module")
def per_call_ns():
    """Per-call cost, in ns, of each instrumentation primitive."""
    obs.reset()
    assert not obs.tracing_enabled()
    c = obs.counter("bench.counter")
    h = obs.histogram("bench.hist", cap=1024)
    costs = {
        "disabled_span": _ns_per_call(lambda: obs.span("bench.noop"), _MICRO_N),
        "counter_inc": _ns_per_call(c.inc, _MICRO_N),
        "histogram_record": _ns_per_call(lambda: h.record(0.5), _MICRO_N),
    }
    assert obs.get_tracer().spans() == []  # disabled spans record nothing
    obs.reset()
    return costs


def test_disabled_span_cost(per_call_ns):
    # Generous absolute bound: a disabled span must stay well under a
    # microsecond even on a loaded CI machine.
    assert per_call_ns["disabled_span"] < 5_000


def test_always_on_metric_cost(per_call_ns):
    assert per_call_ns["counter_inc"] < 5_000
    assert per_call_ns["histogram_record"] < 20_000


def test_disabled_overhead_under_5_percent(tmp_path, per_call_ns):
    space = get_preset("smoke", quick=True)
    per_event_ns = max(per_call_ns["disabled_span"], per_call_ns["counter_inc"])

    # Untraced cold sweep: the workload as users run it.
    obs.reset()
    clear_context()
    with Engine(store=CacheStore(tmp_path / "untraced")) as engine:
        t0 = time.perf_counter_ns()
        untraced = run_sweep(space, engine=engine)
        untraced_ns = time.perf_counter_ns() - t0
    snap = obs.snapshot()
    counter_events = sum(v for v in snap["counters"].values())
    histogram_events = sum(h["count"] for h in snap["histograms"].values())

    # Traced cold sweep in a fresh cache: count the span events the
    # same workload emits when tracing is on.
    obs.reset()
    obs.set_tracing(True)
    clear_context()
    with Engine(store=CacheStore(tmp_path / "traced")) as engine:
        traced = run_sweep(space, engine=engine)
    n_spans = len(obs.get_tracer().drain())
    obs.reset()

    assert traced.records == untraced.records  # tracing never changes results
    n_events = n_spans + counter_events + histogram_events
    est_overhead = (n_events * per_event_ns) / untraced_ns
    assert est_overhead < 0.05, (
        f"disabled instrumentation overhead estimate {est_overhead:.2%} "
        f"exceeds the 5% budget ({n_events} events x {per_event_ns:.0f} ns "
        f"on a {untraced_ns / 1e9:.2f}s workload)"
    )
