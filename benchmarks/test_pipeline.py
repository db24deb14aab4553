"""Perf gates of the experiment pipeline: warm cache replay beats cold.

Runs the engine on a small but real (model × datatype) grid:

* **cold** — empty cache, every cell computed (models built, logits,
  quantization, KL divergence),
* **warm** — same grid against the populated cache: pure content-
  addressed JSON reads, which must finish faster than the cold run,
* **packed cache** — serve-layer artifact packing is served from the
  cache on the second call.

Cold-run wall time and packing cost are recorded by perfbench
(``python3 perfbench/run.py --workload offline-repro``).
"""

import time

from repro.models.transformer import CausalLM
from repro.models.zoo import get_model_config
from repro.pipeline import CellGrid, Engine
from repro.pipeline.store import CacheStore
from repro.quant.config import QuantConfig
from repro.serve.artifact import pack_model

_GRID = CellGrid(
    rows=tuple(
        (dt, QuantConfig(dtype=dt))
        for dt in ("int4_asym", "bitmod_fp4", "bitmod_fp3", "mx_fp4")
    ),
    models=("opt-1.3b", "llama-2-7b"),
    datasets=("wikitext",),
)


def test_cell_grid_cold_vs_warm(tmp_path):
    n_cells = len(_GRID.specs())

    # Cold: the per-process context is also cold (fresh models).
    from repro.pipeline.context import clear_context

    clear_context()
    cold_engine = Engine(store=CacheStore(tmp_path))
    t0 = time.perf_counter()
    cold = cold_engine.run_grid(_GRID)
    cold_s = time.perf_counter() - t0
    assert cold_engine.computed == n_cells

    # Warm: fresh engine, fresh process context, populated disk cache.
    clear_context()
    warm_engine = Engine(store=CacheStore(tmp_path))
    t0 = time.perf_counter()
    warm = warm_engine.run_grid(_GRID)
    warm_s = time.perf_counter() - t0

    assert warm == cold
    assert warm_engine.computed == 0
    assert warm_engine.store.stats()["hit_rate"] == 1.0
    assert warm_s < cold_s, "warm cache replay should beat cold compute"


def test_packed_weight_cache(tmp_path):
    model = CausalLM(get_model_config("opt-1.3b"), seed=0)
    cfg = QuantConfig(dtype="bitmod_fp4")
    store = CacheStore(tmp_path)

    packed, _ = pack_model(model, cfg, store=store)
    packed2, _ = pack_model(model, cfg, store=store)

    assert store.hits == len(packed)
    assert {n: p.element_data for n, p in packed.items()} == {
        n: p.element_data for n, p in packed2.items()
    }
