"""Benchmarks of the resilience layer: the clean path must be ~free.

Fault-injection hooks, cache integrity envelopes and run journals all
sit on the hot path of every run, so these gates bound what they cost
when nothing is failing:

* **micro** — nanoseconds per disabled :func:`faults.enabled` /
  :func:`faults.fire` call, per integrity-envelope digest, and per
  journal append;
* **overhead** — a cold cell grid is timed end-to-end, the number of
  resilience events it triggers (fault-site guards, envelope digests,
  journal appends) is counted, and the estimated clean-path overhead —
  events x per-event cost / wall time — must stay **under 2 %** (the
  ISSUE 7 acceptance bar; measured it is orders of magnitude under).
"""

import json
import os
import time

import pytest

from repro.pipeline import CellGrid, Engine
from repro.pipeline.context import clear_context
from repro.pipeline.store import CacheStore, _payload_digest
from repro.quant.config import QuantConfig
from repro.resilience import RunJournal, faults

_MICRO_N = 100_000

#: A representative cell-result payload for digest costing.
_PAYLOAD = json.dumps(
    {"ppl": 14.6252, "fp16_ppl": 14.62, "divergence": 0.0003, "n_items": 128},
    sort_keys=True,
    separators=(",", ":"),
)


def _ns_per_call(fn, n):
    t0 = time.perf_counter_ns()
    for _ in range(n):
        fn()
    return (time.perf_counter_ns() - t0) / n


@pytest.fixture(scope="module")
def per_call_ns(tmp_path_factory):
    """Per-call cost, in ns, of each clean-path resilience primitive."""
    faults.clear_fault_plan()
    os.environ.pop("REPRO_FAULTS", None)
    assert not faults.enabled()

    per_enabled_ns = _ns_per_call(faults.enabled, _MICRO_N)
    per_fire_ns = _ns_per_call(lambda: faults.fire("bench.site"), _MICRO_N)
    per_digest_ns = _ns_per_call(lambda: _payload_digest(_PAYLOAD), _MICRO_N)

    n_appends = 10_000
    path = tmp_path_factory.mktemp("journal") / "journal.jsonl"
    with RunJournal(path) as j:
        per_append_ns = _ns_per_call(
            lambda: j.append({"event": "cells", "keys": ["k" * 16]}), n_appends
        )

    return {
        "enabled": per_enabled_ns,
        "fire": per_fire_ns,
        "digest": per_digest_ns,
        "append": per_append_ns,
    }


def test_disabled_fault_hook_cost(per_call_ns):
    # A disabled hook is one global load and a None check; it must stay
    # far under a microsecond even on a loaded CI machine.
    assert per_call_ns["enabled"] < 5_000
    assert per_call_ns["fire"] < 5_000


def test_envelope_and_journal_cost(per_call_ns):
    assert per_call_ns["digest"] < 50_000
    # One flushed line per completed work unit; milliseconds would
    # show up on real sweeps, microseconds do not.
    assert per_call_ns["append"] < 1_000_000


def test_clean_path_overhead_under_2_percent(tmp_path, per_call_ns):
    grid = CellGrid(
        rows=tuple(
            (dt, QuantConfig(dtype=dt)) for dt in ("int4_asym", "bitmod_fp4")
        ),
        models=("opt-1.3b", "phi-2b"),
        datasets=("wikitext",),
        quick=True,
    )
    n_cells = len(grid.specs())

    clear_context()
    journal = RunJournal(tmp_path / "journal.jsonl")
    with Engine(store=CacheStore(tmp_path / "cache"), journal=journal) as engine:
        t0 = time.perf_counter_ns()
        engine.run_grid(grid)
        wall_ns = time.perf_counter_ns() - t0
    journal.close()

    # Resilience events this workload triggered on its clean path:
    # one fault guard per computed cell (pipeline.cell), one guard +
    # digest per cache put (cache.put + envelope), one digest per cache
    # read-back, and the journal appends actually written.
    n_puts = n_cells
    n_journal = len(RunJournal(tmp_path / "journal.jsonl").records())
    est_ns = (
        (n_cells + n_puts) * per_call_ns["fire"]
        + 2 * n_puts * per_call_ns["digest"]
        + n_journal * per_call_ns["append"]
    )
    est_overhead = est_ns / wall_ns

    assert est_overhead < 0.02, (
        f"clean-path resilience overhead estimate {est_overhead:.2%} exceeds "
        f"the 2% budget on a {wall_ns / 1e9:.2f}s workload"
    )

