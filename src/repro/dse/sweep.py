"""Sweep execution: cached, deduplicated design-point evaluation.

Every :class:`~repro.dse.space.DesignPoint` reduces to a content
address (:func:`point_key`, the same ``stable_digest`` machinery the
pipeline cells use), so sweeps are deduplicated, resumable, and a
warm rerun is pure JSON replay from the
:class:`~repro.pipeline.store.CacheStore` under the ``dse/`` kind.

A point's evaluation has two halves:

* **accuracy** — one :class:`~repro.pipeline.cells.CellSpec` per
  (model, datatype, granularity, quick) through the shared
  :class:`~repro.pipeline.engine.Engine`; many architecture variants
  share one cell, and the engine fans misses over ``--jobs N``
  workers and its own on-disk cache;
* **hardware** — the analytical simulator
  (:func:`repro.hw.simulator.simulate`) on the point's concrete
  :class:`~repro.hw.arch.ArchConfig`, normalized against the FP16
  baseline accelerator on the same workload.

:func:`run_points` is the low-level entry (a plain list of points —
the ported Fig. 7/8 experiments are thin views over it);
:func:`run_sweep` expands a whole :class:`~repro.dse.space.DesignSpace`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.dse.space import DesignPoint, DesignSpace
from repro.hw.baselines import AcceleratorSpec, make_accelerator
from repro.hw.simulator import SimResult, simulate, simulate_plan
from repro.models.zoo import get_model_config
from repro.pipeline.cells import CellSpec, cell_key
from repro.pipeline.keys import stable_digest
from repro.pipeline.store import CacheStore
from repro.policy import (
    POLICY_SCHEMA_VERSION,
    QuantPlan,
    config_memory_bits,
    make_plan,
    plan_gemm_bits,
    plan_weight_bytes,
)
from repro.quant.config import QuantConfig

__all__ = [
    "DSE_KIND",
    "DesignPoint",
    "SweepResult",
    "accelerator_for",
    "functional_check",
    "point_key",
    "resolve_plan",
    "run_points",
    "run_sweep",
]

_log = obs.get_logger(__name__)

#: Store namespace for design-point records.
DSE_KIND = "dse"

#: Bump when the record layout or evaluation semantics change.
#: v2: mixed-precision policy points + weight_mb/mean_bits fields.
#: v3: multi-chip (shards x topology) points + interconnect fields.
DSE_SCHEMA_VERSION = 3


def point_key(point: DesignPoint) -> str:
    """Content address of one design point (every field participates).

    Besides the point itself, the digest covers the full
    :class:`~repro.models.config.ModelConfig` (not just the model
    name), the FP16 baseline accelerator every record is normalized
    against, and the content address of the accuracy cell the point
    joins (``CELL_SCHEMA_VERSION``, evaluator batch/seq/sensitivity,
    dataset) — editing any of them must invalidate cached records,
    exactly as the pipeline cells key on ``ModelConfig.cache_key()``.

    Policy points cannot key on their exact accuracy cell (the plan —
    and hence the cell — is solved at evaluation time from cached
    sensitivity probes), so they key on the policy itself plus
    ``POLICY_SCHEMA_VERSION`` (bumped whenever profiling or solver
    semantics change) plus the key of the workload's FP16 anchor cell,
    which carries every cell-layer invalidator (``CELL_SCHEMA_VERSION``,
    evaluator batch/seq/sensitivity, dataset) the plan cell will share.
    """
    spec = _cell_spec(point)
    if spec is None and point.policy is not None:
        # The anchor cell of the same (model, dataset, quick) regime.
        spec = CellSpec(model=point.model, dataset="wikitext", quick=point.quick)
    return stable_digest(
        {
            "v": DSE_SCHEMA_VERSION,
            "point": point,
            "model_config": get_model_config(point.model).cache_key(),
            "baseline": make_accelerator("fp16"),
            "cell": None if spec is None else cell_key(spec),
            "policy_v": None if point.policy is None else POLICY_SCHEMA_VERSION,
        }
    )


def accelerator_for(point: DesignPoint) -> AcceleratorSpec:
    """The :class:`AcceleratorSpec` a point's simulation runs on."""
    return AcceleratorSpec(
        name=point.arch.name,
        arch=point.arch,
        supported_bits=(point.weight_bits,),
        macs_per_cycle=point.macs_per_cycle,
        kv_bits=point.kv_bits,
    )


@lru_cache(maxsize=None)
def _fp16_baseline(model: str, task: str) -> SimResult:
    """FP16 iso-area baseline run every point normalizes against."""
    return simulate(get_model_config(model), make_accelerator("fp16"), task, 16)


def _cell_spec(
    point: DesignPoint, plan: Optional[QuantPlan] = None
) -> Optional[CellSpec]:
    """The accuracy cell a point needs (None for sim-only points).

    Policy points need their resolved ``plan``; before resolution (at
    keying time) they report no cell.
    """
    if point.policy is not None:
        if plan is None:
            return None
        return CellSpec(model=point.model, dataset="wikitext", plan=plan, quick=point.quick)
    if point.dtype is None:
        return None
    return CellSpec(
        model=point.model,
        dataset="wikitext",
        quant=QuantConfig(
            dtype=point.dtype.dtype,
            granularity=point.dtype.granularity,
            group_size=point.group_size,
        ),
        quick=point.quick,
    )


def resolve_plan(point: DesignPoint, engine=None) -> QuantPlan:
    """Solve the :class:`~repro.policy.plan.QuantPlan` of a policy point.

    Sensitivity probes run as pipeline cells through ``engine`` (and
    its store), so re-solving across budgets, sweeps and processes is
    replay, not recompute.
    """
    pc = point.policy
    if pc is None:
        raise ValueError(f"design point {point} carries no policy")
    candidates = [
        QuantConfig(
            dtype=dt.dtype, granularity=dt.granularity, group_size=point.group_size
        )
        for dt in pc.ladder
    ]
    return make_plan(
        point.model,
        pc.solver,
        candidates,
        budget_mb=pc.budget_mb,
        threshold=pc.threshold,
        metric=pc.metric,
        quick=point.quick,
        engine=engine,
        name=pc.label,
    )


def _weight_mb(point: DesignPoint, plan: Optional[QuantPlan]) -> Optional[float]:
    """Full-size block-weight storage (metadata included) in MB."""
    cfg = get_model_config(point.model)
    if plan is not None:
        return plan_weight_bytes(plan, cfg) / 1e6
    if point.dtype is None:
        return None
    qc = QuantConfig(
        dtype=point.dtype.dtype,
        granularity=point.dtype.granularity,
        group_size=point.group_size,
    )
    total = 0.0
    for gemm in cfg.block_gemms(1):
        total += gemm.weight_elements * config_memory_bits(qc, gemm.k) / 8.0
    return total / 1e6


def _evaluate(
    point: DesignPoint, cell: Optional[dict], plan: Optional[QuantPlan] = None
) -> dict:
    """Compute one point's record (hardware sim + accuracy join).

    Multi-chip points (``shards > 1``) run the same simulator on a
    ``shards x 1`` mesh, which adds per-topology interconnect time and
    traffic to the per-chip model; accuracy cells are shared with the
    single-chip points — sharded execution is bit-identical, so the
    perplexity is too.
    """
    cfg = get_model_config(point.model)
    kw = dict(shards=point.shards, topology=point.topology, group_size=point.group_size)
    if plan is not None:
        r = simulate_plan(
            cfg, accelerator_for(point), point.task, plan_gemm_bits(plan, cfg), **kw
        )
    else:
        r = simulate(cfg, accelerator_for(point), point.task, point.weight_bits, **kw)
    base = _fp16_baseline(point.model, point.task)
    freq = point.arch.frequency_ghz
    time_ms = r.cycles / (freq * 1e9) * 1e3
    edp = r.energy.total_uj * time_ms
    base_edp = base.energy.total_uj * base.time_ms
    arch = point.arch
    record = {
        "space": point.space,
        "model": point.model,
        "task": point.task,
        # Policy points report the element-weighted mean of the plan's
        # per-layer precisions (what the simulator ran at).
        "bits": point.weight_bits if plan is None else r.weight_bits,
        "dtype": (
            "plan"
            if plan is not None
            else None if point.dtype is None else point.dtype.dtype
        ),
        "granularity": None if point.dtype is None else point.dtype.granularity,
        "policy": None if point.policy is None else point.policy.label,
        "plan": None if plan is None else plan.to_dict(),
        "weight_mb": _weight_mb(point, plan),
        "arch": {
            "name": arch.name,
            "pe_rows": arch.pe_rows,
            "pe_cols": arch.pe_cols,
            "n_pes": arch.n_pes,
            "pe_lanes": arch.pe_lanes,
            "pes_per_tile": arch.pes_per_tile,
            "frequency_ghz": arch.frequency_ghz,
            "dram_gbps": arch.dram_gbps,
            "weight_buffer_kb": arch.weight_buffer_kb,
            "input_buffer_kb": arch.input_buffer_kb,
        },
        # Multi-chip points pay silicon per device: tp x pp chips.
        "area_mm2": arch.compute_area_um2() / 1e6 * point.shards,
        "shards": point.shards,
        "topology": point.topology if point.shards > 1 else None,
        "interconnect_bytes": r.interconnect_bytes,
        "interconnect_time_ms": r.interconnect_cycles / (freq * 1e9) * 1e3,
        "cycles": r.cycles,
        "time_ms": time_ms,
        "dram_uj": r.energy.dram_uj,
        "buffer_uj": r.energy.buffer_uj,
        "core_uj": r.energy.core_uj,
        "total_uj": r.energy.total_uj,
        "edp": edp,
        "speedup": base.time_ms / time_ms,
        "energy_norm": r.energy.total_uj / base.energy.total_uj,
        "edp_norm": edp / base_edp,
        "ppl": None,
        "fp16_ppl": None,
        "dppl": None,
    }
    if cell is not None:
        record["ppl"] = cell["ppl"]
        record["fp16_ppl"] = cell["fp16_ppl"]
        record["dppl"] = cell["ppl"] - cell["fp16_ppl"]
    return record


def functional_check(
    points: Sequence[DesignPoint],
    m: int = 4,
    d: int = 128,
    k: int = 8,
    seed: int = 0,
    backend: Optional[str] = None,
) -> List[dict]:
    """Spot-check swept datatypes on the bit-accurate kernel layer.

    The sweep itself is analytic (cycles and energy from the timing
    model) — this runs one small real GEMM per unique ``(dtype,
    granularity, group_size)`` among ``points`` through the kernel
    dispatcher, reporting which backend executed it and the max
    absolute deviation from the ideal dequantized matmul.  Datatypes
    the PE rejects (asymmetric integers) are reported as skipped with
    the rejection reason rather than failing the sweep.
    """
    import numpy as np

    from repro.hw.functional import FunctionalGemm
    from repro.kernels.dispatch import get_dispatcher
    from repro.quant.packing import pack_tensor, unpack_tensor

    combos: Dict[Tuple[str, str, int], DesignPoint] = {}
    for p in points:
        if p.dtype is None:
            continue  # policy/sim-only points carry no single datatype
        combos.setdefault(
            (p.dtype.dtype, p.dtype.granularity, p.group_size), p
        )

    rng = np.random.default_rng(seed)
    out: List[dict] = []
    with obs.span("dse.functional_check", n_combos=len(combos)):
        for (dtype, granularity, group_size), _p in sorted(combos.items()):
            qc = QuantConfig(
                dtype=dtype, granularity=granularity, group_size=group_size
            )
            row = {
                "dtype": dtype,
                "granularity": granularity,
                "group_size": group_size,
                "backend": None,
                "max_abs_err": None,
                "skipped": None,
            }
            w = rng.standard_normal((k, d))
            x = rng.standard_normal((m, d)).astype(np.float16)
            gemm = FunctionalGemm(qc, backend=backend)
            try:
                packed = pack_tensor(w, qc)
                chosen = get_dispatcher().resolve(
                    gemm._task(gemm._validated_shapes(x, w.shape), packed),
                    backend=backend,
                )
                res = gemm.run_packed(x, packed)
            except (TypeError, ValueError) as exc:
                row["skipped"] = str(exc)
                out.append(row)
                continue
            ref = x.astype(np.float64) @ unpack_tensor(packed, qc).T
            row["backend"] = chosen.name
            row["max_abs_err"] = float(np.max(np.abs(res.output - ref)))
            out.append(row)
    return out


def run_points(
    points: Sequence[DesignPoint],
    engine=None,
    store: Optional[CacheStore] = None,
    journal=None,
) -> Tuple[List[dict], int]:
    """Evaluate ``points``; returns ``(records, n_computed)``.

    Records align with the input order; duplicate points (same content
    address) are evaluated once.  ``store`` defaults to the engine's
    cache store, so the CLI's ``--cache-dir``/``--no-cache`` apply to
    design-point records and accuracy cells alike.  Accuracy cells run
    through ``engine.run`` and therefore fan out over its ``--jobs N``
    worker pool.

    ``journal`` (a :class:`~repro.resilience.journal.RunJournal`)
    receives one ``dse_point`` event per record as it lands in the
    store, so an interrupted sweep documents exactly how far it got;
    the records themselves resume as store hits on the next run.
    """
    if engine is None:
        from repro.pipeline import get_engine

        engine = get_engine()
    if store is None:
        store = engine.store

    with obs.span("dse.run_points", n_points=len(points)):
        keys = [point_key(p) for p in points]
        unique: Dict[str, DesignPoint] = {}
        for k, p in zip(keys, points):
            unique.setdefault(k, p)

        records: Dict[str, dict] = {}
        missing: List[Tuple[str, DesignPoint]] = []
        for k, p in unique.items():
            cached = store.get_json(DSE_KIND, k)
            if cached is not None:
                records[k] = cached
            else:
                missing.append((k, p))
        obs.counter("dse.points.cached").inc(len(unique) - len(missing))
        obs.counter("dse.points.computed").inc(len(missing))

        if missing:
            traced = obs.tracing_enabled()
            # Policy points first solve their plans — the sensitivity
            # probes are engine cells, deduplicated against the store, so
            # N budgets over one (model, ladder, metric) profile once.
            with obs.span("dse.resolve_plans"):
                plans: Dict[str, QuantPlan] = {
                    k: resolve_plan(p, engine=engine)
                    for k, p in missing
                    if p.policy is not None
                }
            # One engine pass for every accuracy cell the misses need;
            # the engine deduplicates and parallelizes.
            specs = [_cell_spec(p, plans.get(k)) for k, p in missing]
            needed = [s for s in specs if s is not None]
            cells = iter(engine.run(needed)) if needed else iter(())
            for (k, p), spec in zip(missing, specs):
                cell = next(cells) if spec is not None else None
                with (
                    obs.span(
                        "dse.point",
                        space=p.space,
                        model=p.model,
                        arch=p.arch.name,
                    )
                    if traced
                    else obs.NOOP_SPAN
                ):
                    record = _evaluate(p, cell, plans.get(k))
                store.put_json(DSE_KIND, k, record)
                records[k] = record
                if journal is not None:
                    journal.append(
                        {"event": "dse_point", "key": k, "space": p.space}
                    )

        return [records[k] for k in keys], len(missing)


@dataclass
class SweepResult:
    """Everything a finished sweep produced."""

    space: DesignSpace
    points: List[DesignPoint]
    records: List[dict]
    #: Rejected axis combinations with their constraint reasons.
    skipped: List[Tuple[dict, str]] = field(default_factory=list)
    #: Points evaluated this run (the rest replayed from cache).
    computed: int = 0
    wall_seconds: float = 0.0

    @property
    def cached(self) -> int:
        return len(self.records) - self.computed

    def frontier(
        self,
        objectives: Sequence[str] = ("ppl", "edp"),
        senses: Sequence[str] = ("min", "min"),
    ) -> List[dict]:
        """Non-dominated records under the named objectives.

        Computed independently per (model, task) pair — EDP values of
        different workloads are not comparable (see
        :func:`repro.dse.report.frontier_records`).
        """
        from repro.dse.report import frontier_records

        return frontier_records(self, objectives, senses)

    def stats(self) -> dict:
        return {
            "space": self.space.name,
            "points": len(self.records),
            "skipped": len(self.skipped),
            "computed": self.computed,
            "cached": self.cached,
            "wall_seconds": self.wall_seconds,
        }


def run_sweep(
    space: DesignSpace,
    engine=None,
    store: Optional[CacheStore] = None,
    journal=None,
) -> SweepResult:
    """Expand ``space`` and evaluate every valid design point."""
    t0 = time.perf_counter()
    with obs.span("dse.sweep", space=space.name):
        points, skipped = space.points()
        for _params, reason in skipped:
            obs.counter("dse.skipped", reason=reason).inc()
        records, computed = run_points(
            points, engine=engine, store=store, journal=journal
        )
    _log.info(
        "sweep %s: %d points (%d computed, %d skipped) in %.1fs",
        space.name,
        len(records),
        computed,
        len(skipped),
        time.perf_counter() - t0,
    )
    return SweepResult(
        space=space,
        points=points,
        records=records,
        skipped=skipped,
        computed=computed,
        wall_seconds=time.perf_counter() - t0,
    )
