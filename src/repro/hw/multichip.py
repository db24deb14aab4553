"""Multi-chip extension of the accelerator simulator.

One :class:`~repro.shard.mesh.DeviceMesh` worth of identical chips
runs a tensor/pipeline-parallel partition of the model; this module
charges the *interconnect* side of that arrangement — all-reduce and
all-gather payloads against per-link bandwidth/latency, per topology
— on top of the per-chip compute/memory model of
:mod:`repro.hw.simulator`.

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
full payload point-to-point on both.  Which collectives one forward
pass runs is listed once, by :func:`pass_collectives`; the simulator
prices that list and :class:`repro.shard.collective.Collective`
charges it for every served pass.

Assumptions, stated once: each chip keeps its own DRAM channel (the
per-chip memory-cycle model is unchanged), tensor-parallel peers run
in lockstep (symmetric shards), and pipeline stages of a single
request execute sequentially — pipelining shrinks per-chip weights
and memory cycles, not single-stream depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Mapping, Optional, Tuple

from repro.hw.baselines import AcceleratorSpec
from repro.hw.energy import (
    DRAM_ENERGY_PJ_PER_BYTE,
    EnergyBreakdown,
    sram_energy_pj_per_byte,
)
from repro.hw.timing import gemm_compute_cycles
from repro.models.config import GEMMShape, ModelConfig
from repro.obs.trace import NOOP_SPAN, TRACER

__all__ = [
    "CollectiveOp",
    "LinkSpec",
    "ShardSimResult",
    "TOPOLOGIES",
    "collective_seconds",
    "pass_collectives",
    "simulate_sharded",
    "simulate_sharded_plan",
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
    if n <= 1:
        return 0.0
    if op == "all_reduce":
        return 2.0 * (n - 1) / n * payload_bytes
    if op == "all_gather":
        return (n - 1) / n * payload_bytes
    return float(payload_bytes)  # send: point-to-point, full payload


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


# ----------------------------------------------------------------------
# Sharded workload simulation.
# ----------------------------------------------------------------------


@dataclass
class ShardSimResult:
    """Latency/energy/interconnect of one sharded workload run.

    ``cycles`` is the end-to-end request latency in core cycles
    (pipeline stages sequential, tensor-parallel peers in lockstep,
    collective time converted to cycles at the core frequency);
    ``energy`` sums every chip.  ``interconnect_bytes`` is the total
    wire traffic of the run across all devices,
    ``interconnect_cycles`` the collective time on the request's
    critical path.
    """

    model: str
    accelerator: str
    task: str
    weight_bits: float
    shards: int
    stages: int
    topology: str
    link: LinkSpec
    cycles: float
    energy: EnergyBreakdown
    interconnect_bytes: float = 0.0
    interconnect_cycles: float = 0.0

    @property
    def n_devices(self) -> int:
        return self.shards * self.stages

    @property
    def time_ms(self) -> float:
        """Latency in ms **at 1 GHz** (see :class:`SimResult.time_ms`)."""
        return self.cycles / 1e9 * 1e3

    @property
    def edp(self) -> float:
        return self.energy.total_uj * self.time_ms


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
        if self.op == "send":
            return float(self.payload_bytes)
        return self.n * wire_bytes_per_device(
            self.op, self.payload_bytes, self.n, topology
        )

    def seconds(self, link: LinkSpec, topology: str = "ring") -> float:
        return collective_seconds(self.op, self.payload_bytes, self.n, link, topology)


def pass_collectives(
    n_layers: int, hidden: int, vocab: int, m: int, tp: int, pp: int
) -> List[CollectiveOp]:
    """The collectives of one ``m``-token forward pass on a ``tp x pp`` mesh.

    The Megatron-LM schedule (Shoeybi et al., 2019), stage by stage:
    two all-reduces per layer when ``tp > 1`` (attention out, MLP out),
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


def _sharded_stage_gemms(
    cfg: ModelConfig, tp: int, n_local_layers: int, m: int, last_stage: bool
) -> List[GEMMShape]:
    """Weight GEMMs one chip of a stage executes per pass.

    Column-parallel projections (q/k/v, gate/up/fc1, lm_head) shrink
    their output dimension by ``tp``; row-parallel ones (o, down/fc2)
    shrink their contraction dimension.  Weight elements per chip are
    ``1/tp`` of the full layer either way.
    """
    h = cfg.hidden
    kv = cfg.n_kv_heads * cfg.head_dim
    L = n_local_layers
    gemms = [
        GEMMShape("q_proj", m, h, h // tp, 1, L),
        GEMMShape("k_proj", m, h, kv // tp, 1, L),
        GEMMShape("v_proj", m, h, kv // tp, 1, L),
        GEMMShape("o_proj", m, h // tp, h, 1, L),
    ]
    if cfg.gated_mlp:
        gemms += [
            GEMMShape("gate_proj", m, h, cfg.intermediate // tp, 1, L),
            GEMMShape("up_proj", m, h, cfg.intermediate // tp, 1, L),
            GEMMShape("down_proj", m, cfg.intermediate // tp, h, 1, L),
        ]
    else:
        gemms += [
            GEMMShape("fc1", m, h, cfg.intermediate // tp, 1, L),
            GEMMShape("fc2", m, cfg.intermediate // tp, h, 1, L),
        ]
    if last_stage:
        gemms.append(GEMMShape("lm_head", m, h, cfg.vocab // tp, 1, 1))
    return gemms


def _device_pass(
    cfg: ModelConfig,
    accel: AcceleratorSpec,
    weight_bits: float,
    m: int,
    context: int,
    tp: int,
    n_local_layers: int,
    first_stage: bool,
    last_stage: bool,
    group_size: int,
    gemm_bits: Optional[Mapping[str, float]],
) -> Tuple[float, float, EnergyBreakdown]:
    """(compute_cycles, memory_cycles, energy) of one chip's pass.

    Mirrors :func:`repro.hw.simulator._pass_result` arithmetic on the
    sharded GEMM shapes, so a 1x1 mesh reproduces the single-chip
    model.
    """
    arch = accel.arch
    sram_pj = sram_energy_pj_per_byte(arch.weight_buffer_kb)
    kv_terms = accel.terms_per_weight(accel.kv_bits)

    def bits_of(name: str) -> float:
        if gemm_bits is None:
            return weight_bits
        return gemm_bits.get(name, weight_bits)

    compute_cycles = 0.0
    active_pe_cycles = 0.0
    buffer_pj = 0.0
    weight_dram_bytes = 0.0
    traced = TRACER.enabled
    for gemm in _sharded_stage_gemms(cfg, tp, n_local_layers, m, last_stage):
        with (
            TRACER.span("hw.gemm", name=gemm.name, m=gemm.m, k=gemm.k, n=gemm.n)
            if traced
            else NOOP_SPAN
        ):
            bits = bits_of(gemm.name)
            t = gemm_compute_cycles(
                gemm,
                arch,
                terms_per_weight=accel.terms_per_weight(int(round(bits))),
                macs_per_cycle=accel.macs_per_cycle,
                group_size=group_size,
            )
            compute_cycles += t.compute_cycles
            active_pe_cycles += t.active_pe_cycles
            w_bytes = gemm.weight_elements * bits / 8.0
            a_bytes = gemm.m * gemm.k * gemm.count * gemm.repeat * 2.0
            m_tiles = math.ceil(gemm.m / arch.pe_rows)
            n_tiles = math.ceil(gemm.n / arch.pe_cols)
            buffer_pj += (w_bytes * m_tiles + a_bytes * n_tiles) * sram_pj
            weight_dram_bytes += w_bytes

    hd = cfg.head_dim
    for gemm in (
        GEMMShape("qk", m, hd, context, cfg.n_heads // tp, n_local_layers),
        GEMMShape("pv", m, context, hd, cfg.n_heads // tp, n_local_layers),
    ):
        t = gemm_compute_cycles(
            gemm,
            arch,
            terms_per_weight=kv_terms,
            macs_per_cycle=accel.macs_per_cycle,
            group_size=group_size,
        )
        compute_cycles += t.compute_cycles
        active_pe_cycles += t.active_pe_cycles

    # Per-chip DRAM traffic: the chip's weight shards, its share of the
    # KV cache, boundary activations, and (first stage) the embedding
    # row lookups / (last stage) its slice of the logits.
    kv_dim = cfg.n_kv_heads * cfg.head_dim
    kv_bytes = n_local_layers * 2 * (kv_dim / tp) * (m + context) * accel.kv_bits / 8.0
    act_bytes = n_local_layers * 2 * m * cfg.hidden * _FP16_BYTES
    if last_stage:
        act_bytes += m * (cfg.vocab / tp) * _FP16_BYTES
    dram_bytes = weight_dram_bytes + kv_bytes + act_bytes
    if first_stage:
        dram_bytes += m * cfg.hidden * _FP16_BYTES  # embedding rows

    bytes_per_cycle = arch.dram_gbps / arch.frequency_ghz
    memory_cycles = dram_bytes / bytes_per_cycle

    pe_pj = active_pe_cycles * arch.pe_power_mw
    n_tiles_arr = arch.n_pes / arch.pes_per_tile
    encoder_pj = compute_cycles * n_tiles_arr * arch.encoder_power_mw
    energy = EnergyBreakdown(
        dram_uj=dram_bytes * DRAM_ENERGY_PJ_PER_BYTE / 1e6,
        buffer_uj=buffer_pj / 1e6,
        core_uj=(pe_pj + encoder_pj) / 1e6,
    )
    return compute_cycles, memory_cycles, energy


@dataclass
class _PassTotals:
    cycles: float = 0.0
    interconnect_cycles: float = 0.0
    interconnect_bytes: float = 0.0
    energy: EnergyBreakdown = field(
        default_factory=lambda: EnergyBreakdown(0.0, 0.0, 0.0)
    )


def _sharded_pass(
    cfg: ModelConfig,
    accel: AcceleratorSpec,
    weight_bits: float,
    m: int,
    context: int,
    tp: int,
    pp: int,
    topology: str,
    link: LinkSpec,
    group_size: int,
    gemm_bits: Optional[Mapping[str, float]],
) -> _PassTotals:
    """One forward pass over ``m`` tokens across the whole mesh."""
    freq_hz = accel.arch.frequency_ghz * 1e9
    out = _PassTotals()
    for stage, n_local in enumerate(stage_layer_counts(cfg.n_layers, pp)):
        first, last = stage == 0, stage == pp - 1
        compute, memory, energy = _device_pass(
            cfg, accel, weight_bits, m, context, tp, n_local,
            first, last, group_size, gemm_bits,
        )
        out.cycles += max(compute, memory)
        # Every chip of the stage runs the same shard shapes in
        # lockstep; energy is per chip x tp chips.
        out.energy = out.energy + EnergyBreakdown(
            dram_uj=tp * energy.dram_uj,
            buffer_uj=tp * energy.buffer_uj,
            core_uj=tp * energy.core_uj,
        )
    for c in pass_collectives(cfg.n_layers, cfg.hidden, cfg.vocab, m, tp, pp):
        out.interconnect_cycles += c.seconds(link, topology) * freq_hz
        out.interconnect_bytes += c.wire_bytes(topology)
    out.cycles += out.interconnect_cycles
    return out


def simulate_sharded(
    cfg: ModelConfig,
    accel: AcceleratorSpec,
    task: str,
    weight_bits: float,
    shards: int = 1,
    stages: int = 1,
    topology: str = "ring",
    link: LinkSpec = LinkSpec(),
    prompt_len: int = 256,
    gen_len: int = 256,
    group_size: int = 128,
    gemm_bits: Optional[Mapping[str, float]] = None,
) -> ShardSimResult:
    """Simulate one request on a ``shards x stages`` mesh of ``accel`` chips.

    ``shards`` is the tensor-parallel degree (every layer split across
    that many chips), ``stages`` the pipeline depth (contiguous layer
    ranges).  The compute/memory model per chip is the single-chip one
    on the sharded GEMM shapes; collectives are charged per
    ``topology``/``link`` and land on the request's critical path.
    A ``1 x 1`` mesh reproduces :func:`repro.hw.simulator.simulate`.
    """
    if shards < 1 or stages < 1:
        raise ValueError(f"mesh must be at least 1x1, got {shards}x{stages}")
    if topology not in TOPOLOGIES:
        raise ValueError(
            f"unknown topology {topology!r} (known: {', '.join(TOPOLOGIES)})"
        )
    if cfg.n_heads % shards or cfg.n_kv_heads % shards:
        raise ValueError(
            f"{cfg.name}: {cfg.n_heads} heads / {cfg.n_kv_heads} KV heads "
            f"not divisible by {shards} shards"
        )
    if cfg.intermediate % shards or cfg.vocab % shards:
        raise ValueError(
            f"{cfg.name}: intermediate {cfg.intermediate} / vocab "
            f"{cfg.vocab} not divisible by {shards} shards"
        )
    if stages > cfg.n_layers:
        raise ValueError(
            f"{cfg.name}: cannot pipeline {cfg.n_layers} layers over "
            f"{stages} stages"
        )

    def one_pass(m: int, context: int) -> _PassTotals:
        return _sharded_pass(
            cfg, accel, weight_bits, m, context, shards, stages,
            topology, link, group_size, gemm_bits,
        )

    with (
        TRACER.span(
            "hw.simulate_sharded",
            model=cfg.name,
            accelerator=accel.name,
            task=task,
            shards=shards,
            stages=stages,
            topology=topology,
        )
        if TRACER.enabled
        else NOOP_SPAN
    ):
        if task == "discriminative":
            total = one_pass(prompt_len, prompt_len)
        elif task == "generative":
            total = one_pass(prompt_len, prompt_len)
            avg_ctx = prompt_len + gen_len // 2
            step = one_pass(1, avg_ctx)
            total.cycles += gen_len * step.cycles
            total.interconnect_cycles += gen_len * step.interconnect_cycles
            total.interconnect_bytes += gen_len * step.interconnect_bytes
            total.energy = total.energy + EnergyBreakdown(
                dram_uj=gen_len * step.energy.dram_uj,
                buffer_uj=gen_len * step.energy.buffer_uj,
                core_uj=gen_len * step.energy.core_uj,
            )
        else:
            raise ValueError("task must be 'discriminative' or 'generative'")
    return ShardSimResult(
        model=cfg.name,
        accelerator=accel.name,
        task=task,
        weight_bits=weight_bits,
        shards=shards,
        stages=stages,
        topology=topology,
        link=link,
        cycles=total.cycles,
        energy=total.energy,
        interconnect_bytes=total.interconnect_bytes,
        interconnect_cycles=total.interconnect_cycles,
    )


def simulate_sharded_plan(
    cfg: ModelConfig,
    accel: AcceleratorSpec,
    task: str,
    gemm_bits: Mapping[str, float],
    **kw,
) -> ShardSimResult:
    """Sharded counterpart of :func:`repro.hw.simulator.simulate_plan`:
    per-GEMM precisions, unnamed GEMMs at FP16, mean bits reported."""
    r = simulate_sharded(cfg, accel, task, 16.0, gemm_bits=gemm_bits, **kw)
    streamed = cfg.block_gemms(1) + [cfg.lm_head_gemm(1)]
    elements = sum(g.weight_elements for g in streamed)
    mean_bits = (
        sum(g.weight_elements * gemm_bits.get(g.name, 16.0) for g in streamed)
        / elements
    )
    return replace(r, weight_bits=mean_bits)
