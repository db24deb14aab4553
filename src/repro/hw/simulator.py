"""End-to-end accelerator simulator (drives Figs. 7, 8, 9).

For one (model, accelerator, task, weight-precision) combination the
simulator walks every GEMM one chip runs per forward pass, computes
compute cycles from the timing model and memory cycles from the chip's
DRAM bytes, takes the max per pass (double-buffered overlap), and
accumulates the energy breakdown (DRAM / buffers / core+encoder).

DRAM bytes per pass are the quantized weights (the 512 KB on-chip
buffers cannot hold any full weight matrix of the benchmark models,
so weights stream from DRAM on every use), the KV cache at the
accelerator's KV precision, and FP16 activations at layer boundaries,
embedding rows and logits.

The paper's single chip is the 1x1 mesh.  On a ``shards x stages``
mesh every layer splits tensor-parallel over ``shards`` chips (the
Megatron-LM split: column-parallel projections shrink their output
dimension, row-parallel ones their contraction dimension, attention
its heads) and contiguous layer ranges go to ``stages``.  The
collectives of :func:`repro.hw.multichip.pass_collectives` are priced
per topology and link and land on the request's critical path.

Workloads follow Section V-A: batch 1, 256-token prompt; generative
tasks emit 256 tokens, each refetching all weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Mapping, Optional, Tuple

from repro.hw.baselines import AcceleratorSpec
from repro.hw.energy import (
    DRAM_ENERGY_PJ_PER_BYTE,
    EnergyBreakdown,
    sram_energy_pj_per_byte,
)
from repro.hw.multichip import (
    ROW_PARALLEL,
    TOPOLOGIES,
    LinkSpec,
    mesh_error,
    pass_collectives,
    stage_layer_counts,
)
from repro.hw.timing import gemm_compute_cycles
from repro.models.config import GEMMShape, ModelConfig
from repro.obs.trace import NOOP_SPAN, TRACER

__all__ = ["SimResult", "one_pass", "simulate", "simulate_plan"]

_FP16_BYTES = 2.0


@dataclass
class SimResult:
    """Latency + energy of one workload run.

    Attributes
    ----------
    model, accelerator, task:
        Identity of the simulated (model, accelerator, workload) triple.
    weight_bits:
        Weight precision the run used, in bits per weight.
    cycles:
        End-to-end request latency in core cycles: compute/memory
        overlap taken per pass, pipeline stages sequential,
        tensor-parallel peers in lockstep, collective time included.
    energy:
        :class:`~repro.hw.energy.EnergyBreakdown` in micro-joules
        summed over every chip, split into DRAM / on-chip buffer /
        core(+encoder) components.
    shards, stages, topology, link:
        The mesh the run used (1x1 is the single chip).
    interconnect_bytes:
        Wire traffic of the run summed over every device (0 at 1x1).
    interconnect_cycles:
        Collective time on the request's critical path (0 at 1x1).
    """

    model: str
    accelerator: str
    task: str
    weight_bits: float
    cycles: float
    energy: EnergyBreakdown
    shards: int = 1
    stages: int = 1
    topology: str = "ring"
    link: LinkSpec = LinkSpec()
    interconnect_bytes: float = 0.0
    interconnect_cycles: float = 0.0

    @property
    def time_ms(self) -> float:
        """Wall-clock latency in milliseconds **at 1 GHz**.

        The paper evaluates every design at 1 GHz, so cycles map to
        nanoseconds directly.  Design-space sweeps with a frequency
        axis must divide by their own ``frequency_ghz`` instead (the
        :mod:`repro.dse.sweep` records do).
        """
        return self.cycles / 1e9 * 1e3  # 1 GHz

    @property
    def edp(self) -> float:
        """Energy-delay product in uJ * ms (lower is better).

        The Fig. 9 Pareto metric: ``energy.total_uj * time_ms``.
        Because both factors are normalized per request, EDP rewards
        designs that are simultaneously fast *and* frugal.
        """
        return self.energy.total_uj * self.time_ms


def _chip_gemms(
    cfg: ModelConfig, m: int, context: int, tp: int, n_layers: int, last_stage: bool
) -> Tuple[List[GEMMShape], List[GEMMShape]]:
    """(weight GEMMs, attention GEMMs) one chip runs per pass.

    The chip holds ``n_layers`` decoder layers (plus the LM head on the
    last stage), each split over ``tp`` chips; weight elements per chip
    are ``1/tp`` of the full layer either way.
    """

    def split(g: GEMMShape, repeat: int) -> GEMMShape:
        if g.name in ROW_PARALLEL:
            return GEMMShape(g.name, g.m, g.k // tp, g.n, g.count, repeat)
        return GEMMShape(g.name, g.m, g.k, g.n // tp, g.count, repeat)

    weights = [split(g, n_layers) for g in cfg.block_gemms(m)]
    if last_stage:
        weights.append(split(cfg.lm_head_gemm(m), 1))
    attention = [
        GEMMShape(g.name, g.m, g.k, g.n, g.count // tp, n_layers)
        for g in cfg.attention_gemms(m, context)
    ]
    return weights, attention


def _chip_pass(
    cfg: ModelConfig,
    accel: AcceleratorSpec,
    weight_bits: float,
    m: int,
    context: int,
    tp: int,
    n_layers: int,
    first_stage: bool,
    last_stage: bool,
    group_size: int,
    gemm_bits: Optional[Mapping[str, float]],
) -> Tuple[float, EnergyBreakdown]:
    """(cycles, energy) of one chip's forward pass over ``m`` tokens
    with ``context`` tokens of KV cache after the pass.

    ``gemm_bits`` optionally assigns each weight GEMM (block
    projections and ``lm_head``) its own precision — the per-layer
    aggregation behind :func:`simulate_plan`.  GEMMs it does not name
    fall back to ``weight_bits``.  The attention GEMMs (QK^T, PV) run
    at the accelerator's KV precision and read no weights.
    """
    arch = accel.arch
    sram_pj = sram_energy_pj_per_byte(arch.weight_buffer_kb)
    weights, attention = _chip_gemms(cfg, m, context, tp, n_layers, last_stage)

    compute_cycles = 0.0
    active_pe_cycles = 0.0
    buffer_pj = 0.0
    weight_bytes = 0.0
    # Hot loops: tracing guards cost exactly one branch when disabled
    # (span kwargs are only built under the enabled arm).
    traced = TRACER.enabled
    for gemm in weights:
        bits = weight_bits
        if gemm_bits is not None:
            bits = gemm_bits.get(gemm.name, weight_bits)
        with (
            TRACER.span("hw.gemm", name=gemm.name, m=gemm.m, k=gemm.k, n=gemm.n)
            if traced
            else NOOP_SPAN
        ):
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
            weight_bytes += w_bytes
    kv_terms = accel.terms_per_weight(accel.kv_bits)
    for gemm in attention:
        with (
            TRACER.span("hw.gemm", name=gemm.name, m=gemm.m, k=gemm.k, n=gemm.n)
            if traced
            else NOOP_SPAN
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

    # The chip's share of the KV cache (write m entries, read back the
    # context), boundary activations, (last stage) its slice of the
    # logits and (first stage) the m embedding-row lookups.
    kv_dim = cfg.n_kv_heads * cfg.head_dim
    kv_bytes = n_layers * 2 * (kv_dim / tp) * (m + context) * accel.kv_bits / 8.0
    act_bytes = n_layers * 2 * m * cfg.hidden * _FP16_BYTES
    if last_stage:
        act_bytes += m * (cfg.vocab / tp) * _FP16_BYTES
    dram_bytes = weight_bytes + kv_bytes + act_bytes
    if first_stage:
        dram_bytes += m * cfg.hidden * _FP16_BYTES
    memory_cycles = dram_bytes / (arch.dram_gbps / arch.frequency_ghz)

    pe_pj = active_pe_cycles * arch.pe_power_mw
    n_tiles_arr = arch.n_pes / arch.pes_per_tile
    encoder_pj = compute_cycles * n_tiles_arr * arch.encoder_power_mw
    energy = EnergyBreakdown(
        dram_uj=dram_bytes * DRAM_ENERGY_PJ_PER_BYTE / 1e6,
        buffer_uj=buffer_pj / 1e6,
        core_uj=(pe_pj + encoder_pj) / 1e6,
    )
    return max(compute_cycles, memory_cycles), energy


def _scaled(e: EnergyBreakdown, k: float) -> EnergyBreakdown:
    return EnergyBreakdown(
        dram_uj=k * e.dram_uj, buffer_uj=k * e.buffer_uj, core_uj=k * e.core_uj
    )


def one_pass(
    cfg: ModelConfig,
    accel: AcceleratorSpec,
    weight_bits: float,
    m: int,
    context: int,
    shards: int = 1,
    stages: int = 1,
    topology: str = "ring",
    link: LinkSpec = LinkSpec(),
    group_size: int = 128,
    gemm_bits: Optional[Mapping[str, float]] = None,
) -> Tuple[float, EnergyBreakdown, float, float]:
    """(cycles, energy, wire bytes, collective cycles) of one pass of
    :func:`simulate` over the whole mesh; the mesh is not validated."""
    freq_hz = accel.arch.frequency_ghz * 1e9
    cycles = 0.0
    energy = EnergyBreakdown(0.0, 0.0, 0.0)
    for stage, n_layers in enumerate(stage_layer_counts(cfg.n_layers, stages)):
        c, e = _chip_pass(
            cfg, accel, weight_bits, m, context, shards, n_layers,
            stage == 0, stage == stages - 1, group_size, gemm_bits,
        )
        cycles += c
        # Every chip of the stage runs the same shard shapes in
        # lockstep: energy is per chip x shards chips.
        energy = energy + _scaled(e, shards)
    wire_bytes = 0.0
    link_cycles = 0.0
    ops = pass_collectives(cfg.n_layers, cfg.hidden, cfg.vocab, m, shards, stages)
    for op in ops:
        link_cycles += op.seconds(link, topology) * freq_hz
        wire_bytes += op.wire_bytes(topology)
    return cycles + link_cycles, energy, wire_bytes, link_cycles


def simulate(
    cfg: ModelConfig,
    accel: AcceleratorSpec,
    task: str,
    weight_bits: float,
    *,
    shards: int = 1,
    stages: int = 1,
    topology: str = "ring",
    link: LinkSpec = LinkSpec(),
    prompt_len: int = 256,
    gen_len: int = 256,
    group_size: int = 128,
    gemm_bits: Optional[Mapping[str, float]] = None,
) -> SimResult:
    """Simulate one request of the given task type.

    Parameters
    ----------
    cfg:
        :class:`~repro.models.config.ModelConfig` supplying the
        full-size GEMM shapes and DRAM traffic dimensions.
    accel:
        :class:`~repro.hw.baselines.AcceleratorSpec` — the
        architecture, bit-serial term function, bit-parallel MAC rate,
        and KV-cache precision of every chip.
    task:
        ``"discriminative"`` (one prefill pass over ``prompt_len``
        tokens) or ``"generative"`` (prefill plus ``gen_len`` decode
        steps, each refetching all weights).
    weight_bits:
        Weight precision in bits per weight (drives both the
        bit-serial term count and the DRAM weight traffic).
    shards, stages:
        Tensor-parallel degree and pipeline depth of the mesh; the
        default 1x1 is the paper's single chip.  A mesh ``cfg`` does
        not split over raises :class:`ValueError` with the reason of
        :func:`repro.hw.multichip.mesh_error`.
    topology, link:
        Interconnect the collectives are priced on (see
        :mod:`repro.hw.multichip`); unused at 1x1.
    prompt_len, gen_len:
        Workload shape in tokens (paper Section V-A: 256/256).
    group_size:
        Weights per scaling-factor group (elements; 128 in the
        paper), which sets the dequantization-stall cadence of the
        bit-serial timing model.
    gemm_bits:
        Optional per-GEMM precision override (see
        :func:`simulate_plan`, the intended entry point); GEMMs it
        does not name run at ``weight_bits``.

    Returns
    -------
    SimResult
        Cycles, the per-component
        :class:`~repro.hw.energy.EnergyBreakdown` in uJ summed over
        every chip, and the interconnect bill.
    """
    reason = mesh_error(cfg, shards, stages)
    if reason is not None:
        raise ValueError(reason)
    if topology not in TOPOLOGIES:
        raise ValueError(
            f"unknown topology {topology!r} (known: {', '.join(TOPOLOGIES)})"
        )
    if task not in ("discriminative", "generative"):
        raise ValueError("task must be 'discriminative' or 'generative'")
    with (
        TRACER.span(
            "hw.simulate",
            model=cfg.name,
            accelerator=accel.name,
            task=task,
            weight_bits=weight_bits,
            shards=shards,
            stages=stages,
            topology=topology,
        )
        if TRACER.enabled
        else NOOP_SPAN
    ):
        pass_args = (shards, stages, topology, link, group_size, gemm_bits)
        cycles, energy, wire_bytes, link_cycles = one_pass(
            cfg, accel, weight_bits, prompt_len, prompt_len, *pass_args
        )
        if task == "generative":
            # Decode steps are near-identical; use the average context.
            c, e, b, lc = one_pass(
                cfg, accel, weight_bits, 1, prompt_len + gen_len // 2, *pass_args
            )
            cycles += gen_len * c
            energy = energy + _scaled(e, gen_len)
            wire_bytes += gen_len * b
            link_cycles += gen_len * lc
    return SimResult(
        model=cfg.name,
        accelerator=accel.name,
        task=task,
        weight_bits=weight_bits,
        cycles=cycles,
        energy=energy,
        shards=shards,
        stages=stages,
        topology=topology,
        link=link,
        interconnect_bytes=wire_bytes,
        interconnect_cycles=link_cycles,
    )


def simulate_plan(
    cfg: ModelConfig,
    accel: AcceleratorSpec,
    task: str,
    gemm_bits: Mapping[str, float],
    **kw,
) -> SimResult:
    """Simulate one request under a per-layer precision assignment.

    ``gemm_bits`` maps weight-GEMM names (``q_proj``, ``fc1``, ...,
    ``lm_head``) to bits per weight — typically
    :func:`repro.policy.plan.plan_gemm_bits` aggregating a
    :class:`~repro.policy.plan.QuantPlan`.  Each GEMM's compute terms
    and DRAM traffic are taken at its own precision and summed across
    the workload; unnamed GEMMs run at FP16.  A uniform assignment
    reproduces :func:`simulate` at that precision exactly.  ``kw``
    (mesh, workload shape, group size) goes to :func:`simulate`.

    The reported ``weight_bits`` is the element-weighted mean over the
    streamed weights.
    """
    r = simulate(cfg, accel, task, 16.0, gemm_bits=gemm_bits, **kw)  # unnamed: FP16
    streamed = cfg.block_gemms(1) + [cfg.lm_head_gemm(1)]
    elements = sum(g.weight_elements for g in streamed)
    mean_bits = (
        sum(g.weight_elements * gemm_bits.get(g.name, 16.0) for g in streamed)
        / elements
    )
    return replace(r, weight_bits=mean_bits)
