"""Interconnect cost model of a multi-chip mesh.

One :class:`~repro.shard.mesh.DeviceMesh` worth of identical chips
runs a tensor/pipeline-parallel partition of the model.  This module
prices the *interconnect* side of that arrangement: which collectives
one forward pass runs (:func:`pass_collectives`), their wire bytes and
their time against per-link bandwidth/latency, per topology.
:func:`repro.hw.simulator.simulate` adds that bill to its per-chip
compute/memory model; :class:`repro.shard.collective.Collective`
charges the same list for every served pass.  :func:`mesh_error` is
the one rule for which meshes a model splits over.

Cost model (``n`` = tensor-parallel degree, ``B`` = logical payload
bytes of the collective, one link of :class:`LinkSpec` bandwidth per
device):

* **ring** — the bandwidth-optimal schedule: an all-reduce moves
  ``2 (n-1)/n * B`` bytes per device over ``2 (n-1)`` latency steps
  (reduce-scatter + all-gather); an all-gather moves ``(n-1)/n * B``
  over ``n-1`` steps.
* **fully_connected** — every device pair has a dedicated link, so
  the same wire bytes transfer in parallel: an all-reduce takes two
  ``B/n`` transfers + two hops, an all-gather one.

Per-device wire bytes are identical across topologies (they are
schedule-optimal either way); what the topology changes is *time* —
latency hops and transfer serialization.  Pipeline ``send`` moves the
full payload point-to-point on both.

Assumptions, stated once: each chip keeps its own DRAM channel (the
per-chip memory-cycle model is unchanged), tensor-parallel peers run
in lockstep (symmetric shards), and pipeline stages of a single
request execute sequentially — pipelining shrinks per-chip weights
and memory cycles, not single-stream depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.models.config import ModelConfig

__all__ = [
    "CollectiveOp",
    "LinkSpec",
    "ROW_PARALLEL",
    "TOPOLOGIES",
    "collective_seconds",
    "mesh_error",
    "pass_collectives",
    "stage_layer_counts",
    "wire_bytes_per_device",
]

#: Interconnect topologies the cost model knows.
TOPOLOGIES = ("ring", "fully_connected")

_FP16_BYTES = 2.0


@dataclass(frozen=True)
class LinkSpec:
    """One chip-to-chip link: bandwidth in GB/s, per-hop latency in us.

    The defaults are a modest serdes link (100 GB/s, 1 us) — far below
    the on-package DRAM bandwidth, which is the point: collectives are
    charged, not free.
    """

    gbps: float = 100.0
    latency_us: float = 1.0

    def __post_init__(self):
        if self.gbps <= 0:
            raise ValueError(f"link bandwidth must be positive, got {self.gbps}")
        if self.latency_us < 0:
            raise ValueError(f"link latency must be >= 0, got {self.latency_us}")


def _check(op: str, topology: str) -> None:
    if op not in ("all_reduce", "all_gather", "send"):
        raise ValueError(f"unknown collective op {op!r}")
    if topology not in TOPOLOGIES:
        raise ValueError(
            f"unknown topology {topology!r} (known: {', '.join(TOPOLOGIES)})"
        )


def wire_bytes_per_device(
    op: str, payload_bytes: float, n: int, topology: str = "ring"
) -> float:
    """Bytes one device puts on the wire for one collective.

    ``payload_bytes`` is the *logical* tensor size (the full reduced /
    gathered tensor); schedule-optimal collectives move a ``(n-1)/n``
    fraction of it per device, twice for all-reduce.
    """
    _check(op, topology)
    if op == "send":
        return float(payload_bytes)  # point-to-point, full payload
    if n <= 1:
        return 0.0
    if op == "all_reduce":
        return 2.0 * (n - 1) / n * payload_bytes
    return (n - 1) / n * payload_bytes  # all_gather


def collective_seconds(
    op: str, payload_bytes: float, n: int, link: LinkSpec, topology: str = "ring"
) -> float:
    """Wall-clock seconds one collective takes on ``n`` devices."""
    _check(op, topology)
    if n <= 1 and op != "send":
        return 0.0
    bw = link.gbps * 1e9
    lat = link.latency_us * 1e-6
    chunk = payload_bytes / max(n, 1) / bw
    if op == "send":
        return payload_bytes / bw + lat
    if op == "all_reduce":
        if topology == "ring":
            return 2 * (n - 1) * (chunk + lat)
        return 2 * (chunk + lat)  # fully connected: parallel pairwise links
    # all_gather
    if topology == "ring":
        return (n - 1) * (chunk + lat)
    return chunk + lat


def stage_layer_counts(n_layers: int, pp: int) -> List[int]:
    """Contiguous per-stage layer counts, sizes differing by at most 1
    (earlier stages get the extras)."""
    base, extra = divmod(n_layers, pp)
    return [base + (1 if s < extra else 0) for s in range(pp)]


@dataclass(frozen=True)
class CollectiveOp:
    """One collective of a forward pass: ``op`` over ``n`` devices
    carrying ``payload_bytes`` of logical (FP16) tensor data."""

    op: str
    payload_bytes: float
    n: int

    def wire_bytes(self, topology: str = "ring") -> float:
        """Bytes on the wire summed over every participating device."""
        return self.n * wire_bytes_per_device(
            self.op, self.payload_bytes, self.n, topology
        )

    def seconds(self, link: LinkSpec, topology: str = "ring") -> float:
        return collective_seconds(self.op, self.payload_bytes, self.n, link, topology)


#: The Megatron-LM tensor-parallel layout: these projections split
#: their contraction dimension over the ``tp`` chips (so each chip holds
#: a partial sum), every other weight GEMM splits its outputs.  Each
#: row-parallel projection ends in one all-reduce, which is where the
#: two per-layer all-reduces of :func:`pass_collectives` come from.
ROW_PARALLEL = frozenset({"o_proj", "down_proj", "fc2"})


def pass_collectives(
    n_layers: int, hidden: int, vocab: int, m: int, tp: int, pp: int
) -> List[CollectiveOp]:
    """The collectives of one ``m``-token forward pass on a ``tp x pp`` mesh.

    The Megatron-LM schedule (Shoeybi et al., 2019), stage by stage:
    two all-reduces per layer when ``tp > 1`` (after the row-parallel
    attention-out and MLP-down projections of :data:`ROW_PARALLEL`),
    one logits all-gather on the last stage, and one point-to-point
    ``send`` of the boundary activation after every stage but the last.
    The simulator prices this list and the serving ledger
    (:class:`repro.shard.collective.Collective`) charges it, so modeled
    and served traffic cannot drift apart.
    """
    hidden_payload = m * hidden * _FP16_BYTES
    ops: List[CollectiveOp] = []
    for stage, n_local in enumerate(stage_layer_counts(n_layers, pp)):
        last = stage == pp - 1
        if tp > 1:
            ops += [CollectiveOp("all_reduce", hidden_payload, tp)] * (2 * n_local)
            if last:
                ops.append(CollectiveOp("all_gather", m * vocab * _FP16_BYTES, tp))
        if not last:
            ops.append(CollectiveOp("send", hidden_payload, 1))
    return ops


def mesh_error(cfg: ModelConfig, shards: int, stages: int) -> Optional[str]:
    """Why ``cfg`` cannot run on a ``shards x stages`` mesh, or ``None``.

    Tensor parallelism splits attention heads, KV heads, the MLP
    intermediate and the vocabulary evenly over ``shards`` chips;
    pipelining needs at least one layer per stage.
    """
    if shards < 1 or stages < 1:
        return f"mesh must be at least 1x1, got {shards}x{stages}"
    if cfg.n_heads % shards or cfg.n_kv_heads % shards:
        return (
            f"{cfg.name}: {cfg.n_heads} heads / {cfg.n_kv_heads} KV heads "
            f"not divisible by {shards} shards"
        )
    if cfg.intermediate % shards or cfg.vocab % shards:
        return (
            f"{cfg.name}: intermediate {cfg.intermediate} / vocab "
            f"{cfg.vocab} not divisible by {shards} shards"
        )
    if stages > cfg.n_layers:
        return f"{cfg.name}: cannot pipeline {cfg.n_layers} layers over {stages} stages"
    return None
