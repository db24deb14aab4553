"""Design spaces: parameter axes, constraints, iso-area normalization.

A :class:`DesignSpace` is the declarative description of an
accelerator sweep: axes over :class:`~repro.hw.arch.ArchConfig`
fields (lanes, tile size, bandwidth, buffers, frequency), a set of
datatype/precision choices, and the workloads (models x tasks) to
evaluate each configuration on.  Expansion is the cartesian product
of all axes, filtered by validity constraints:

* positive frequency / bandwidth / buffer capacities,
* the PE grid must be an integer number of ``pes_per_tile`` tiles,
* a double-buffered weight/input tile must fit its SRAM buffer,
* the datatype precision must be one the bit-serial PE can execute.

Under ``iso_area=True`` (the paper's iso-compute-area constraint) the
PE grid is *derived*, not swept: the per-PE area is scaled from the
published BitMoD tile (``paper_tile_costs()``) by the lane count, the
encoder area by the tile size, and as many tiles as fit the FP16
baseline's area budget are instantiated (the same fitting rule as
:func:`repro.hw.baselines.make_accelerator`).

Spaces serialize to/from plain JSON (``--space FILE.json``); curated
spaces live in :data:`PRESETS`.  See ``docs/dse.md`` for the schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.hw.arch import ArchConfig
from repro.hw.baselines import iso_area_grid
from repro.hw.energy import TileCost, bitmod_pe_tile_cost, fp16_pe_tile_cost
from repro.hw.multichip import TOPOLOGIES, mesh_error

__all__ = [
    "DatatypeChoice",
    "DesignPoint",
    "DesignSpace",
    "PolicyChoice",
    "PRESETS",
    "get_preset",
    "load_space",
    "paper_tile_costs",
    "SWEEPABLE_FIELDS",
    "SUPPORTED_BITS",
    "PLAN_SOLVERS",
]

#: ArchConfig fields a space may put an axis on.  ``pe_rows``/
#: ``pe_cols`` are only sweepable with ``iso_area=False`` — under the
#: iso-area constraint the grid is derived from the area budget.
SWEEPABLE_FIELDS = frozenset(
    {
        "pe_rows",
        "pe_cols",
        "pe_lanes",
        "pes_per_tile",
        "frequency_ghz",
        "dram_gbps",
        "weight_buffer_kb",
        "input_buffer_kb",
    }
)

_ISO_DERIVED = frozenset({"pe_rows", "pe_cols"})

#: Weight precisions the bit-serial PE can execute (paper Table III).
SUPPORTED_BITS = frozenset({3, 4, 5, 6, 8})

_FP16_BYTES = 2


def paper_tile_costs() -> Tuple[TileCost, TileCost]:
    """The published Table X tile costs anchoring the DSE area model.

    Returns ``(fp16, bitmod)``: the FP16 baseline tile defines the
    iso-area budget; the BitMoD tile's per-PE and per-encoder figures
    are what lane/tile scaling multiplies.  ``table10_tile_area`` is a
    direct view over these two records.
    """
    return fp16_pe_tile_cost(), bitmod_pe_tile_cost()


@dataclass(frozen=True)
class DatatypeChoice:
    """One datatype/precision point of a sweep.

    ``bits`` drives the hardware model (terms per weight, DRAM
    traffic); ``dtype``/``granularity`` name the quantization the
    accuracy cell evaluates (a :mod:`repro.dtypes` registry name).
    """

    bits: int
    dtype: str
    granularity: str = "group"


#: Plan solvers a :class:`PolicyChoice` may name (see
#: :func:`repro.policy.solvers.make_plan`).
PLAN_SOLVERS = ("budget", "threshold")


@dataclass(frozen=True)
class PolicyChoice:
    """One mixed-precision policy point of a sweep.

    Instead of running one uniform datatype, the point solves a
    per-layer :class:`~repro.policy.plan.QuantPlan` over the
    ``ladder`` of candidate datatypes — ``"budget"`` allocates under a
    full-size weight-memory budget (``budget_mb``), ``"threshold"``
    caps each layer's measured damage (``threshold``).  ``metric``
    names the sensitivity probe (``"layer_mse"`` or ``"dppl"``).
    The ladder is filled from the space's ``datatypes`` at expansion
    time when left empty.
    """

    solver: str
    budget_mb: Optional[float] = None
    threshold: Optional[float] = None
    metric: str = "layer_mse"
    ladder: Tuple[DatatypeChoice, ...] = ()

    def __post_init__(self):
        if self.solver not in PLAN_SOLVERS:
            raise ValueError(
                f"unknown plan solver {self.solver!r} "
                f"(known: {', '.join(PLAN_SOLVERS)})"
            )
        if self.solver == "budget" and self.budget_mb is None:
            raise ValueError("budget policies need budget_mb")
        if self.solver == "threshold" and self.threshold is None:
            raise ValueError("threshold policies need threshold")
        if self.metric not in ("layer_mse", "dppl"):
            raise ValueError(
                f"unknown sensitivity metric {self.metric!r} "
                "(known: layer_mse, dppl)"
            )

    @property
    def label(self) -> str:
        if self.solver == "budget":
            return f"budget:{self.budget_mb:g}MB"
        return f"threshold:{self.threshold:g}"


@dataclass(frozen=True)
class DesignPoint:
    """One fully-resolved design point: architecture x datatype x workload.

    ``arch`` is the concrete (already iso-area-normalized)
    :class:`~repro.hw.arch.ArchConfig`; ``dtype`` is ``None`` for
    simulation-only points (no accuracy axis — e.g. the fixed paper
    accelerators behind Fig. 7/8).  The point is a plain dataclass of
    dataclasses, so :func:`repro.pipeline.keys.stable_digest` gives it
    a content address directly.
    """

    space: str
    arch: ArchConfig
    model: str
    task: str
    weight_bits: int
    dtype: Optional[DatatypeChoice] = None
    kv_bits: int = 8
    macs_per_cycle: float = 1.0
    group_size: int = 128
    quick: bool = False
    #: Mixed-precision policy point: the plan is solved at evaluation
    #: time (``dtype`` is ``None``, ``weight_bits`` is 0 — the real
    #: per-layer precisions come out of the solver).
    policy: Optional[PolicyChoice] = None
    #: Tensor-parallel degree: > 1 evaluates the point on a multi-chip
    #: mesh (:func:`repro.hw.simulator.simulate` with ``shards=``),
    #: charging interconnect collectives per ``topology``.
    shards: int = 1
    topology: str = "ring"


@dataclass(frozen=True)
class DesignSpace:
    """A declarative accelerator design space (see module docstring).

    ``arch_axes`` is an ordered tuple of ``(field, values)`` pairs
    over :data:`SWEEPABLE_FIELDS`; ``datatypes``/``models``/``tasks``
    are the non-architectural axes.  ``quick`` keys the accuracy
    cells into the quick-mode cache namespace, shared with the
    experiments' ``--quick`` cells (the evaluation itself is
    identical — the flag partitions cache entries).
    """

    name: str
    arch_axes: Tuple[Tuple[str, Tuple[float, ...]], ...] = ()
    datatypes: Tuple[DatatypeChoice, ...] = ()
    models: Tuple[str, ...] = ()
    tasks: Tuple[str, ...] = ("generative",)
    iso_area: bool = True
    quick: bool = False
    group_size: int = 128
    #: Mixed-precision policy axis: each entry adds one plan-solved
    #: point per (arch combo x model x task), alongside the uniform
    #: ``datatypes`` points.  Policies with an empty ladder inherit
    #: the space's ``datatypes`` as their candidate ladder.
    policies: Tuple[PolicyChoice, ...] = ()
    #: Multi-chip axis: tensor-parallel shard counts to evaluate each
    #: point at, and the interconnect topologies to price them with.
    #: Single-chip points (``shards == 1``) ignore the topology axis.
    shards: Tuple[int, ...] = (1,)
    topologies: Tuple[str, ...] = ("ring",)

    def __post_init__(self):
        for fname, values in self.arch_axes:
            if fname not in SWEEPABLE_FIELDS:
                raise ValueError(
                    f"design space {self.name!r}: {fname!r} is not a "
                    f"sweepable ArchConfig field (sweepable: "
                    f"{', '.join(sorted(SWEEPABLE_FIELDS))})"
                )
            if self.iso_area and fname in _ISO_DERIVED:
                raise ValueError(
                    f"design space {self.name!r}: {fname!r} is derived by "
                    "the iso-area fit and cannot be swept while "
                    "iso_area=True"
                )
            if not values:
                raise ValueError(
                    f"design space {self.name!r}: axis {fname!r} has no values"
                )
        if not self.datatypes:
            raise ValueError(f"design space {self.name!r}: no datatypes")
        if not self.models:
            raise ValueError(f"design space {self.name!r}: no models")
        for t in self.tasks:
            if t not in ("discriminative", "generative"):
                raise ValueError(
                    f"design space {self.name!r}: unknown task {t!r}"
                )
        if not self.shards or any(int(s) < 1 for s in self.shards):
            raise ValueError(
                f"design space {self.name!r}: shard counts must be >= 1, "
                f"got {self.shards}"
            )
        if not self.topologies:
            raise ValueError(f"design space {self.name!r}: no topologies")
        for topo in self.topologies:
            if topo not in TOPOLOGIES:
                raise ValueError(
                    f"design space {self.name!r}: unknown topology "
                    f"{topo!r} (known: {', '.join(TOPOLOGIES)})"
                )

    # ------------------------------------------------------------------
    def arch_combos(self) -> List[Dict[str, float]]:
        """Cartesian product of the architecture axes, as field dicts."""
        combos: List[Dict[str, float]] = [{}]
        for fname, values in self.arch_axes:
            combos = [
                {**c, fname: v} for c in combos for v in values
            ]
        return combos

    def mesh_combos(self) -> List[Tuple[int, str]]:
        """The ``(shards, topology)`` pairs of the multi-chip axis.

        Single-chip entries collapse the topology axis (there is no
        interconnect to price), so ``shards=(1, 4)`` with two
        topologies yields three combos, not four.
        """
        combos: List[Tuple[int, str]] = []
        for s in self.shards:
            s = int(s)
            if s == 1:
                combos.append((1, self.topologies[0]))
            else:
                combos.extend((s, topo) for topo in self.topologies)
        return combos

    def n_candidates(self) -> int:
        """Size of the raw product (before validity filtering)."""
        n = (len(self.datatypes) + len(self.policies)) * len(self.models) * len(
            self.tasks
        )
        n *= len(self.mesh_combos())
        for _f, values in self.arch_axes:
            n *= len(values)
        return n

    # ------------------------------------------------------------------
    def resolve_arch(self, params: Dict[str, float]) -> ArchConfig:
        """Build the concrete :class:`ArchConfig` for one axis combo.

        With ``iso_area=True`` the PE grid is fitted to the FP16
        baseline's area budget: per-PE area scales with
        ``pe_lanes / 4`` relative to the published BitMoD PE (the
        datapath lanes dominate a bit-serial PE), the encoder with
        ``pes_per_tile / 64`` (one term generator per tile), and
        :func:`~repro.hw.baselines.iso_area_grid` fits the tiles, as
        it does for the paper accelerators.
        """
        bm = bitmod_pe_tile_cost()
        lanes = int(params.get("pe_lanes", 4))
        ppt = int(params.get("pes_per_tile", 64))
        if lanes <= 0 or ppt <= 0:
            raise ValueError(
                f"design space {self.name!r}: pe_lanes and pes_per_tile "
                f"must be positive, got {lanes} / {ppt}"
            )
        lane_scale = lanes / 4.0
        tile_scale = ppt / 64.0
        pe_area = bm.pe_array_area / bm.n_pes * lane_scale
        pe_power = bm.pe_array_power / bm.n_pes * lane_scale
        enc_area = bm.encoder_area * tile_scale
        enc_power = bm.encoder_power * tile_scale

        fields = dict(
            name=f"{self.name}:{'/'.join(f'{k}={params[k]}' for k in sorted(params))}",
            pe_lanes=lanes,
            bit_serial=True,
            frequency_ghz=float(params.get("frequency_ghz", 1.0)),
            weight_buffer_kb=int(params.get("weight_buffer_kb", 512)),
            input_buffer_kb=int(params.get("input_buffer_kb", 512)),
            dram_gbps=float(params.get("dram_gbps", 25.6)),
            pe_area_um2=pe_area,
            pe_power_mw=pe_power,
            encoder_area_um2=enc_area,
            encoder_power_mw=enc_power,
            pes_per_tile=ppt,
        )
        if self.iso_area:
            fields["pe_rows"], fields["pe_cols"] = iso_area_grid(pe_area, enc_area, ppt)
        else:
            fields["pe_rows"] = int(params.get("pe_rows", 32))
            fields["pe_cols"] = int(params.get("pe_cols", 32))
        return ArchConfig(**fields)

    def check_point(self, arch: ArchConfig, dt: DatatypeChoice) -> Optional[str]:
        """Validity of one (arch, datatype) pairing; a reason or None.

        Beyond the :class:`ArchConfig` invariants (positive capacities,
        tile divisibility — enforced at construction), this checks that
        a double-buffered streaming tile fits on chip and that the PE
        supports the precision.
        """
        if dt.bits not in SUPPORTED_BITS:
            return (
                f"{dt.bits}-bit weights are outside the bit-serial PE's "
                f"supported precisions {sorted(SUPPORTED_BITS)}"
            )
        # Double-buffered weight tile: pe_cols output columns x one
        # scale group of weights at the swept precision.
        w_tile = 2 * arch.pe_cols * self.group_size * dt.bits / 8.0
        if w_tile > arch.weight_buffer_kb * 1024:
            return (
                f"weight buffer ({arch.weight_buffer_kb} KB) cannot "
                f"double-buffer a {arch.pe_cols}x{self.group_size} weight "
                f"tile at {dt.bits} bits ({w_tile / 1024:.1f} KB)"
            )
        a_tile = 2 * arch.pe_rows * self.group_size * _FP16_BYTES
        if a_tile > arch.input_buffer_kb * 1024:
            return (
                f"input buffer ({arch.input_buffer_kb} KB) cannot "
                f"double-buffer a {arch.pe_rows}x{self.group_size} FP16 "
                f"activation tile ({a_tile / 1024:.1f} KB)"
            )
        return None

    def _policy_reason(
        self, arch: ArchConfig, pc: PolicyChoice, model: str
    ) -> Optional[str]:
        """Validity of one (arch, policy, model) triple; reason or None.

        Every ladder datatype must itself be executable on the arch
        (the plan may assign any of them), and a budget policy must sit
        at or above the floor of its cheapest candidate assignment.
        """
        for dt in pc.ladder:
            reason = self.check_point(arch, dt)
            if reason is not None:
                return f"ladder datatype {dt.dtype}: {reason}"
        if pc.solver == "budget":
            from repro.models.zoo import get_model_config
            from repro.policy import plan_floor_bytes
            from repro.quant.config import QuantConfig

            candidates = [
                QuantConfig(
                    dtype=dt.dtype,
                    granularity=dt.granularity,
                    group_size=self.group_size,
                )
                for dt in pc.ladder
            ]
            floor = plan_floor_bytes(candidates, get_model_config(model))
            if pc.budget_mb * 1e6 < floor:
                return (
                    f"budget {pc.budget_mb:g} MB is below the "
                    f"{floor / 1e6:.0f} MB floor of the cheapest ladder "
                    f"assignment on {model}"
                )
        return None

    # ------------------------------------------------------------------
    def points(self) -> Tuple[List[DesignPoint], List[Tuple[Dict, str]]]:
        """Expand to ``(valid_points, skipped)``.

        ``skipped`` pairs each rejected axis combination with its
        human-readable constraint-violation reason.  A mesh the model
        does not split over is skipped with the reason
        :func:`repro.hw.multichip.mesh_error` gives (the one
        :func:`repro.hw.simulator.simulate` would raise).
        """
        from repro.models.zoo import get_model_config

        points: List[DesignPoint] = []
        skipped: List[Tuple[Dict, str]] = []
        policies = tuple(
            pc if pc.ladder else replace(pc, ladder=self.datatypes)
            for pc in self.policies
        )
        for params in self.arch_combos():
            try:
                arch = self.resolve_arch(params)
            except ValueError as e:
                for dt in self.datatypes:
                    skipped.append(({**params, "bits": dt.bits}, str(e)))
                for pc in policies:
                    skipped.append(({**params, "policy": pc.label}, str(e)))
                continue
            meshes = self.mesh_combos()
            for dt in self.datatypes:
                reason = self.check_point(arch, dt)
                if reason is not None:
                    skipped.append(({**params, "bits": dt.bits}, reason))
                    continue
                for model in self.models:
                    for n_shards, topo in meshes:
                        reason = mesh_error(get_model_config(model), n_shards, 1)
                        if reason is not None:
                            skipped.append(
                                (
                                    {**params, "bits": dt.bits, "shards": n_shards},
                                    reason,
                                )
                            )
                            continue
                        for task in self.tasks:
                            points.append(
                                DesignPoint(
                                    space=self.name,
                                    arch=arch,
                                    model=model,
                                    task=task,
                                    weight_bits=dt.bits,
                                    dtype=dt,
                                    group_size=self.group_size,
                                    quick=self.quick,
                                    shards=n_shards,
                                    topology=topo,
                                )
                            )
            for pc in policies:
                for model in self.models:
                    reason = self._policy_reason(arch, pc, model)
                    if reason is not None:
                        skipped.append(
                            ({**params, "policy": pc.label, "model": model}, reason)
                        )
                        continue
                    for n_shards, topo in meshes:
                        reason = mesh_error(get_model_config(model), n_shards, 1)
                        if reason is not None:
                            skipped.append(
                                (
                                    {
                                        **params,
                                        "policy": pc.label,
                                        "model": model,
                                        "shards": n_shards,
                                    },
                                    reason,
                                )
                            )
                            continue
                        for task in self.tasks:
                            points.append(
                                DesignPoint(
                                    space=self.name,
                                    arch=arch,
                                    model=model,
                                    task=task,
                                    weight_bits=0,
                                    dtype=None,
                                    group_size=self.group_size,
                                    quick=self.quick,
                                    policy=pc,
                                    shards=n_shards,
                                    topology=topo,
                                )
                            )
        return points, skipped

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-able form (the ``--space FILE.json`` schema)."""
        out = {
            "name": self.name,
            "arch_axes": {f: list(v) for f, v in self.arch_axes},
            "datatypes": [
                {"bits": d.bits, "dtype": d.dtype, "granularity": d.granularity}
                for d in self.datatypes
            ],
            "models": list(self.models),
            "tasks": list(self.tasks),
            "iso_area": self.iso_area,
            "quick": self.quick,
            "group_size": self.group_size,
            "shards": [int(s) for s in self.shards],
            "topologies": list(self.topologies),
        }
        if self.policies:
            out["policies"] = [
                {
                    "solver": p.solver,
                    "budget_mb": p.budget_mb,
                    "threshold": p.threshold,
                    "metric": p.metric,
                    "ladder": [
                        {"bits": d.bits, "dtype": d.dtype, "granularity": d.granularity}
                        for d in p.ladder
                    ],
                }
                for p in self.policies
            ]
        return out

    @classmethod
    def from_dict(cls, d: Dict) -> "DesignSpace":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        known = {
            "name",
            "arch_axes",
            "datatypes",
            "models",
            "tasks",
            "iso_area",
            "quick",
            "group_size",
            "policies",
            "shards",
            "topologies",
        }
        unknown = set(d) - known
        if unknown:
            raise ValueError(
                f"unknown design-space keys: {', '.join(sorted(unknown))} "
                f"(known: {', '.join(sorted(known))})"
            )
        return cls(
            name=d["name"],
            arch_axes=tuple(
                (f, tuple(v)) for f, v in dict(d.get("arch_axes", {})).items()
            ),
            datatypes=tuple(
                DatatypeChoice(**dt) for dt in d.get("datatypes", ())
            ),
            models=tuple(d.get("models", ())),
            tasks=tuple(d.get("tasks", ("generative",))),
            iso_area=bool(d.get("iso_area", True)),
            quick=bool(d.get("quick", False)),
            group_size=int(d.get("group_size", 128)),
            policies=tuple(
                PolicyChoice(
                    solver=p["solver"],
                    budget_mb=p.get("budget_mb"),
                    threshold=p.get("threshold"),
                    metric=p.get("metric", "layer_mse"),
                    ladder=tuple(
                        DatatypeChoice(**dt) for dt in p.get("ladder", ())
                    ),
                )
                for p in d.get("policies", ())
            ),
            shards=tuple(int(s) for s in d.get("shards", (1,))),
            topologies=tuple(d.get("topologies", ("ring",))),
        )

    def with_(self, **kwargs) -> "DesignSpace":
        """Functional update helper (mirrors ``QuantConfig.with_``)."""
        return replace(self, **kwargs)


def load_space(path: Union[str, Path]) -> DesignSpace:
    """Load a space from a ``--space FILE.json`` file."""
    return DesignSpace.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


# ----------------------------------------------------------------------
# Curated presets.
# ----------------------------------------------------------------------

#: BitMoD's Fig. 9 precision ladder: the datatype the accelerator
#: executes at each supported weight precision.
_BITMOD_LADDER = (
    DatatypeChoice(3, "bitmod_fp3"),
    DatatypeChoice(4, "bitmod_fp4"),
    DatatypeChoice(5, "int5_asym"),
    DatatypeChoice(6, "int6_sym"),
    DatatypeChoice(8, "int8_sym"),
)

PRESETS: Dict[str, DesignSpace] = {
    # The flagship sweep: lanes x tile size x bandwidth x weight buffer
    # x the 5-precision BitMoD ladder x two models = 360 design points
    # around the paper's fixed configuration.
    "paper-pareto": DesignSpace(
        name="paper-pareto",
        arch_axes=(
            ("pe_lanes", (2, 4, 8)),
            ("pes_per_tile", (32, 64, 128)),
            ("dram_gbps", (25.6, 51.2)),
            ("weight_buffer_kb", (256, 512)),
        ),
        datatypes=_BITMOD_LADDER,
        models=("phi-2b", "llama-2-7b"),
        tasks=("generative",),
    ),
    # Small and fast: the CI / smoke-test space (16 points, 2 cells).
    "smoke": DesignSpace(
        name="smoke",
        arch_axes=(
            ("pe_lanes", (4, 8)),
            ("dram_gbps", (25.6, 51.2)),
            ("weight_buffer_kb", (256, 512)),
        ),
        datatypes=(
            DatatypeChoice(4, "bitmod_fp4"),
            DatatypeChoice(6, "int6_sym"),
        ),
        models=("opt-1.3b",),
        tasks=("generative",),
    ),
    # Mixed-precision deployments under a weight-memory cap: the
    # budget solver sweeps budgets from just above the 3-bit floor to
    # the 8-bit ceiling, against the uniform ladder as baselines.
    # Frontier of interest: --objectives weight_mb:min,ppl:min.
    "memory-budget": DesignSpace(
        name="memory-budget",
        arch_axes=(),
        datatypes=(
            DatatypeChoice(3, "bitmod_fp3"),
            DatatypeChoice(4, "bitmod_fp4"),
            DatatypeChoice(6, "int6_sym"),
            DatatypeChoice(8, "int8_sym"),
        ),
        models=("opt-1.3b",),
        tasks=("generative",),
        policies=tuple(
            PolicyChoice(solver="budget", budget_mb=mb)
            for mb in (500.0, 550.0, 625.0, 700.0, 800.0, 900.0, 1000.0, 1100.0)
        ),
    ),
    # Scaling out: how many chips (and which interconnect) does each
    # precision justify?  Frontier of interest:
    # --objectives time_ms:min,total_uj:min keyed by (shards, topology).
    "sharding": DesignSpace(
        name="sharding",
        arch_axes=(),
        datatypes=(
            DatatypeChoice(4, "bitmod_fp4"),
            DatatypeChoice(8, "int8_sym"),
        ),
        models=("llama-2-7b",),
        tasks=("generative",),
        shards=(1, 2, 4, 8),
        topologies=("ring", "fully_connected"),
    ),
    # How far does memory bandwidth alone carry each precision?
    "bandwidth": DesignSpace(
        name="bandwidth",
        arch_axes=(("dram_gbps", (12.8, 25.6, 51.2, 102.4)),),
        datatypes=(
            DatatypeChoice(3, "bitmod_fp3"),
            DatatypeChoice(4, "bitmod_fp4"),
            DatatypeChoice(6, "int6_sym"),
            DatatypeChoice(8, "int8_sym"),
        ),
        models=("llama-2-7b",),
        tasks=("discriminative", "generative"),
    ),
}


def get_preset(name: str, quick: Optional[bool] = None) -> DesignSpace:
    """Fetch a preset by name, optionally overriding its quick flag."""
    try:
        space = PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise KeyError(f"unknown DSE preset {name!r}; known: {known}") from None
    if quick is not None and quick != space.quick:
        space = space.with_(quick=quick)
    return space
