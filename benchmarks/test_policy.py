"""Benchmarks of the mixed-precision planning engine: cold vs warm.

Runs the ``memory-budget`` preset — a budget-solver sweep over the
synth zoo (8 budget plans + the 4-step uniform ladder on opt-1.3b) —
against an empty cache and then against the populated one:

* **cold** — every sensitivity probe (one ``layer_mse`` cell per
  layer x ladder candidate), every plan-accuracy cell and every
  design-point record computed and persisted,
* **warm** — pure content-addressed replay: plans re-solve from
  cached probes and the point records stream back as JSON.

The warm rerun must beat the cold sweep, and the resulting
memory-vs-perplexity frontier must be monotone.
"""

import time

from repro.dse.space import get_preset
from repro.dse.sweep import run_sweep
from repro.pipeline import Engine
from repro.pipeline.store import CacheStore


def test_budget_sweep_cold_vs_warm(tmp_path):
    space = get_preset("memory-budget", quick=True)

    from repro.pipeline.context import clear_context

    clear_context()
    cold_engine = Engine(store=CacheStore(tmp_path), jobs=2)
    t0 = time.perf_counter()
    with cold_engine:
        cold = run_sweep(space, engine=cold_engine)
    cold_s = time.perf_counter() - t0
    assert cold.computed == len(cold.records)
    n_policy = sum(1 for r in cold.records if r["policy"] is not None)
    assert n_policy == len(space.policies)

    # Warm: fresh engine and process context, populated disk store.
    clear_context()
    warm_engine = Engine(store=CacheStore(tmp_path), jobs=2)
    t0 = time.perf_counter()
    with warm_engine:
        warm = run_sweep(space, engine=warm_engine)
    warm_s = time.perf_counter() - t0

    assert warm.records == cold.records
    assert warm.computed == 0
    assert warm_s < cold_s, (
        f"warm budget-sweep replay must beat the cold run "
        f"(cold {cold_s:.2f}s, warm {warm_s:.2f}s)"
    )

    # The acceptance bar: budget plans trace a monotone memory-vs-PPL
    # frontier.
    front = sorted(
        cold.frontier(objectives=("weight_mb", "ppl"), senses=("min", "min")),
        key=lambda r: r["weight_mb"],
    )
    assert len(front) >= 2
    ppls = [r["ppl"] for r in front]
    assert all(a > b for a, b in zip(ppls, ppls[1:])), "frontier not monotone"


def test_profile_replay_across_budgets(tmp_path):
    """N budgets share one sensitivity profile: solving a second
    budget against a warm store computes no new probe cells."""
    from repro.models.zoo import get_model_config
    from repro.policy import make_plan, plan_floor_bytes
    from repro.quant.config import QuantConfig

    ladder = [
        QuantConfig(dtype="bitmod_fp3"),
        QuantConfig(dtype="bitmod_fp4"),
        QuantConfig(dtype="int8_sym"),
    ]
    floor_mb = plan_floor_bytes(ladder, get_model_config("opt-1.3b")) / 1e6

    engine = Engine(store=CacheStore(tmp_path))
    make_plan("opt-1.3b", "budget", ladder, budget_mb=floor_mb * 1.2, engine=engine)
    probes = engine.computed
    assert probes > 0

    make_plan("opt-1.3b", "budget", ladder, budget_mb=floor_mb * 1.6, engine=engine)
    assert engine.computed == probes, "second budget recomputed probe cells"
