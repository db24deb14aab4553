"""The interconnect ledger of a sharded model.

A :class:`Collective` moves no data: a
:class:`~repro.shard.model.ShardedCausalLM` computes every projection
in-process, then calls :meth:`Collective.charge_pass` once per forward
pass.  The ledger charges exactly the collectives
:func:`repro.hw.multichip.pass_collectives` lists for the mesh at the
model's sim shapes — the list :func:`repro.hw.simulator.simulate`
prices on a mesh — so the
served and the modeled interconnect bill cannot drift apart.

Each op is metered: logical payload bytes (at FP16, the precision a
deployment would ship activations at), per-topology wire bytes and
modeled link seconds, and ``shard.collective.bytes`` /
``shard.collective.calls`` observability counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro import obs
from repro.hw.multichip import LinkSpec, pass_collectives
from repro.models.config import ModelConfig
from repro.shard.mesh import DeviceMesh

__all__ = ["Collective", "OpStats"]


@dataclass
class OpStats:
    """Accumulated accounting of one collective op kind."""

    calls: int = 0
    payload_bytes: int = 0
    wire_bytes: float = 0.0
    modeled_seconds: float = 0.0

    def to_dict(self) -> Dict:
        return {
            "calls": self.calls,
            "payload_bytes": self.payload_bytes,
            "wire_bytes": self.wire_bytes,
            "modeled_seconds": self.modeled_seconds,
        }


class Collective:
    """Collective accounting for one :class:`DeviceMesh`."""

    def __init__(self, mesh: DeviceMesh, link: LinkSpec = LinkSpec()):
        self.mesh = mesh
        self.link = link
        self.reset()

    def charge_pass(self, cfg: ModelConfig, m: int) -> None:
        """Charge one forward pass over ``m`` token positions."""
        mesh = self.mesh
        for c in pass_collectives(
            cfg.sim_layers, cfg.sim_hidden, cfg.sim_vocab, m, mesh.tp, mesh.pp
        ):
            wire = c.wire_bytes(mesh.topology)
            s = self.stats[c.op]
            s.calls += 1
            s.payload_bytes += int(c.payload_bytes)
            s.wire_bytes += wire
            s.modeled_seconds += c.seconds(self.link, mesh.topology)
            obs.counter("shard.collective.bytes", op=c.op).inc(int(wire))
            obs.counter("shard.collective.calls", op=c.op).inc()

    def snapshot(self) -> Dict:
        """Accounting snapshot: per-op stats plus totals."""
        per_op = {op: s.to_dict() for op, s in self.stats.items()}
        return {
            "topology": self.mesh.topology,
            "tp": self.mesh.tp,
            "pp": self.mesh.pp,
            "link_gbps": self.link.gbps,
            "link_latency_us": self.link.latency_us,
            "ops": per_op,
            "total_wire_bytes": sum(s.wire_bytes for s in self.stats.values()),
            "total_modeled_seconds": sum(
                s.modeled_seconds for s in self.stats.values()
            ),
        }

    def reset(self) -> None:
        self.stats: Dict[str, OpStats] = {
            op: OpStats() for op in ("all_gather", "all_reduce", "send")
        }
