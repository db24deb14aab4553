"""Device meshes.

A :class:`DeviceMesh` is the declarative shape of a multi-device
deployment: ``tp`` tensor-parallel shards x ``pp`` pipeline stages
(contiguous layer ranges, split by
:func:`repro.hw.multichip.stage_layer_counts`) and an interconnect
``topology`` (priced by :mod:`repro.hw.multichip`).  A mesh serves the
whole artifact it was packed from: every device runs the
single-device forward pass, so the logits are **byte identical** to
it, and the mesh only decides which collectives each pass is charged.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.multichip import TOPOLOGIES
from repro.models.config import ModelConfig
from repro.shard.errors import ShardError

__all__ = ["DeviceMesh"]


@dataclass(frozen=True)
class DeviceMesh:
    """A ``tp x pp`` grid of identical devices."""

    tp: int = 1
    pp: int = 1
    topology: str = "ring"

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

    @property
    def n_devices(self) -> int:
        return self.tp * self.pp

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
