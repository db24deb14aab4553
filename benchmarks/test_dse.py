"""Perf gate of the design-space exploration engine: warm ≥ 10× cold.

Runs the flagship ``paper-pareto`` preset (360 design points, >= 200
required) against an empty cache and then against the populated one:

* **cold** — every accuracy cell computed through the pipeline engine
  and every design point simulated and persisted,
* **warm** — pure content-addressed JSON replay of the point records
  (the accuracy cells are never even consulted).

The warm rerun must beat the cold sweep by >= 10x.  Sweep cost per
point is recorded by perfbench
(``python3 perfbench/run.py --workload offline-repro``).
"""

import time

from repro.dse.space import get_preset
from repro.dse.sweep import run_sweep
from repro.pipeline import Engine
from repro.pipeline.store import CacheStore

_MIN_POINTS = 200


def test_sweep_cold_vs_warm(tmp_path):
    space = get_preset("paper-pareto", quick=True)

    from repro.pipeline.context import clear_context

    clear_context()
    cold_engine = Engine(store=CacheStore(tmp_path), jobs=4)
    t0 = time.perf_counter()
    with cold_engine:
        cold = run_sweep(space, engine=cold_engine)
    cold_s = time.perf_counter() - t0
    assert len(cold.records) >= _MIN_POINTS
    assert cold.computed == len(cold.records)

    # Warm: fresh engine and process context, populated disk store.
    clear_context()
    warm_engine = Engine(store=CacheStore(tmp_path), jobs=4)
    t0 = time.perf_counter()
    with warm_engine:
        warm = run_sweep(space, engine=warm_engine)
    warm_s = time.perf_counter() - t0

    assert warm.records == cold.records
    assert warm.computed == 0
    assert cold_s / warm_s >= 10.0, (
        f"warm DSE replay must be >= 10x faster than the cold sweep "
        f"(cold {cold_s:.2f}s, warm {warm_s:.2f}s)"
    )
