"""Device meshes and named sharding specs.

A :class:`DeviceMesh` is the declarative shape of a multi-device
deployment: ``tp`` tensor-parallel shards x ``pp`` pipeline stages
(contiguous layer ranges, split by
:func:`repro.hw.multichip.stage_layer_counts`), an interconnect
``topology`` (priced by :mod:`repro.hw.multichip`), and the collective
``reduce`` mode:

* ``"gather"`` (default) — row-parallel weights slice by *output*
  rows, so every projection contracts over its full K dimension
  exactly as the single-device pass does and the logits are **byte
  identical** to it.
* ``"sum"`` — the classic Megatron schedule: row-parallel weights are
  K-sliced and partial sums are added in fixed shard order.
  Deterministic and token-stream identical, but float addition is not
  associative, so logits may differ from the single-device pass by a
  few ULP.

Both modes are charged the same interconnect volume per layer; the
mesh is part of the artifact digest, so shard sets packed under one
mode cannot be silently loaded under the other.

:class:`ShardSpec` names how one weight tensor splits across the
``tp`` axis — the ``PartitionSpec`` idea from the jax_llama exemplar,
reduced to the three cases a decoder block needs (replicate, split
output channels, split input columns).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Tuple

from repro.hw.multichip import TOPOLOGIES, stage_layer_counts
from repro.models.config import ModelConfig
from repro.shard.errors import ShardError

__all__ = ["DeviceMesh", "REDUCE_MODES", "ShardSpec", "partition_specs"]

#: Collective schedules a mesh may run (see module docstring).
REDUCE_MODES = ("gather", "sum")


@dataclass(frozen=True)
class DeviceMesh:
    """A ``tp x pp`` grid of identical devices."""

    tp: int = 1
    pp: int = 1
    topology: str = "ring"
    reduce: str = "gather"

    def __post_init__(self):
        if self.tp < 1 or self.pp < 1:
            raise ShardError(
                f"mesh must be at least 1x1, got tp={self.tp} pp={self.pp}",
                tp=self.tp,
                pp=self.pp,
            )
        if self.topology not in TOPOLOGIES:
            raise ShardError(
                f"unknown topology {self.topology!r} "
                f"(known: {', '.join(TOPOLOGIES)})",
                topology=self.topology,
            )
        if self.reduce not in REDUCE_MODES:
            raise ShardError(
                f"unknown reduce mode {self.reduce!r} "
                f"(known: {', '.join(REDUCE_MODES)})",
                reduce=self.reduce,
            )

    @property
    def n_devices(self) -> int:
        return self.tp * self.pp

    # ------------------------------------------------------------------
    def validate_model(self, cfg: ModelConfig) -> None:
        """Raise :class:`ShardError` unless ``cfg`` splits evenly.

        Head-partitioned attention needs ``sim_heads`` *and*
        ``sim_kv_heads`` divisible by ``tp`` (GQA groups must not
        straddle shards); column-parallel MLP and vocab projections
        need the same of ``sim_intermediate``/``sim_vocab``; pipeline
        needs at least one layer per stage.
        """
        problems = []
        if cfg.sim_heads % self.tp:
            problems.append(f"{cfg.sim_heads} heads % tp={self.tp}")
        if cfg.sim_kv_heads % self.tp:
            problems.append(f"{cfg.sim_kv_heads} KV heads % tp={self.tp}")
        if cfg.sim_intermediate % self.tp:
            problems.append(f"intermediate {cfg.sim_intermediate} % tp={self.tp}")
        if cfg.sim_vocab % self.tp:
            problems.append(f"vocab {cfg.sim_vocab} % tp={self.tp}")
        if self.pp > cfg.sim_layers:
            problems.append(f"{cfg.sim_layers} layers < pp={self.pp}")
        if problems:
            raise ShardError(
                f"{cfg.name} cannot shard over a {self.tp}x{self.pp} mesh: "
                + "; ".join(problems),
                model=cfg.name,
                tp=self.tp,
                pp=self.pp,
                problems=problems,
            )

    def layer_ranges(self, n_layers: int) -> List[Tuple[int, int]]:
        """Contiguous ``(start, stop)`` layer range per pipeline stage
        (sizes differ by at most one, earlier stages get the extras)."""
        if self.pp > n_layers:
            raise ShardError(
                f"cannot pipeline {n_layers} layers over {self.pp} stages",
                pp=self.pp,
                n_layers=n_layers,
            )
        bounds = list(accumulate(stage_layer_counts(n_layers, self.pp), initial=0))
        return list(zip(bounds, bounds[1:]))

    def stage_of(self, layer: int, n_layers: int) -> int:
        for s, (a, b) in enumerate(self.layer_ranges(n_layers)):
            if a <= layer < b:
                return s
        raise ShardError(f"layer {layer} outside [0, {n_layers})", layer=layer)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        return {
            "tp": self.tp,
            "pp": self.pp,
            "topology": self.topology,
            "reduce": self.reduce,
        }

    @classmethod
    def from_dict(cls, d: Dict) -> "DeviceMesh":
        known = {"tp", "pp", "topology", "reduce"}
        unknown = set(d) - known
        if unknown:
            raise ShardError(
                f"unknown mesh keys: {', '.join(sorted(unknown))} "
                f"(known: {', '.join(sorted(known))})"
            )
        return cls(
            tp=int(d.get("tp", 1)),
            pp=int(d.get("pp", 1)),
            topology=d.get("topology", "ring"),
            reduce=d.get("reduce", "gather"),
        )


@dataclass(frozen=True)
class ShardSpec:
    """How one tensor splits over the ``tp`` axis.

    ``kind`` is one of:

    * ``"replicate"`` — every shard holds the full tensor (norm gains,
      embedding);
    * ``"split_out"`` — output channels (rows of the ``(out, in)``
      weight) slice into ``tp`` contiguous blocks: column-parallel
      projections, and row-parallel ones under ``reduce="gather"``;
    * ``"split_in"`` — input columns (the contraction dim) slice:
      row-parallel projections under ``reduce="sum"``.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in ("replicate", "split_out", "split_in"):
            raise ShardError(f"unknown shard spec kind {self.kind!r}")

    def slice_bounds(self, dim_size: int, rank: int, tp: int) -> Tuple[int, int]:
        """The ``[start, stop)`` this rank owns along the split axis."""
        if dim_size % tp:
            raise ShardError(
                f"dimension {dim_size} does not split over {tp} shards",
                dim=dim_size,
                tp=tp,
            )
        width = dim_size // tp
        return rank * width, (rank + 1) * width


#: Column-parallel projections: output dim splits, inputs replicated.
_COLUMN_PARALLEL = ("q_proj", "k_proj", "v_proj", "gate_proj", "up_proj", "fc1")
#: Row-parallel projections: contraction dim splits under "sum".
_ROW_PARALLEL = ("o_proj", "down_proj", "fc2")


def partition_specs(cfg: ModelConfig, mesh: DeviceMesh) -> Dict[str, ShardSpec]:
    """The named sharding spec of every weight of ``cfg`` under ``mesh``.

    Keys are the :class:`~repro.models.transformer.CausalLM` weight
    names; every name the model generates must resolve here, so an
    architecture this mapping does not understand fails loudly at
    partition time.
    """
    mesh.validate_model(cfg)
    row_kind = "split_out" if mesh.reduce == "gather" else "split_in"
    specs: Dict[str, ShardSpec] = {
        "embed": ShardSpec("replicate"),
        "final_norm": ShardSpec("replicate"),
        "lm_head": ShardSpec("split_out"),
    }
    for layer in range(cfg.sim_layers):
        prefix = f"layers.{layer}."
        specs[prefix + "attn_norm"] = ShardSpec("replicate")
        specs[prefix + "mlp_norm"] = ShardSpec("replicate")
        for name in _COLUMN_PARALLEL:
            specs[prefix + name] = ShardSpec("split_out")
        for name in _ROW_PARALLEL:
            specs[prefix + name] = ShardSpec(row_kind)
    return specs
