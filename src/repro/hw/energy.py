"""Area, power, and energy models (28 nm, 1 GHz).

Calibration anchors are the paper's published Table X synthesis
numbers (tile area/power for the FP16 baseline and BitMoD) plus
standard technology constants: CACTI-style SRAM access energy and
DDR4 DRAM energy per bit (DRAMsim3's model).  Component-level area
for the FIGNA-style bit-parallel PEs (Fig. 10) is built from adder /
multiplier / register costs so the *relative* comparison emerges from
structure, not from copying the figure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "sram_energy_pj_per_byte",
    "DRAM_ENERGY_PJ_PER_BYTE",
    "TileCost",
    "fp16_pe_tile_cost",
    "bitmod_pe_tile_cost",
    "bit_parallel_pe_cost",
    "EnergyBreakdown",
]

#: DDR4 energy per byte moved (~15 pJ/bit, DRAMsim3 DDR4 model).
DRAM_ENERGY_PJ_PER_BYTE = 120.0


def sram_energy_pj_per_byte(capacity_kb: float) -> float:
    """CACTI-like SRAM read energy per byte at 28 nm.

    Access energy grows roughly with sqrt(capacity); anchored at
    ~0.75 pJ/byte for a 64 KB bank, which reproduces CACTI 7 numbers
    within a few tens of percent across 32 KB - 1 MB.
    """
    if capacity_kb <= 0:
        raise ValueError("capacity must be positive")
    return 0.75 * float(np.sqrt(capacity_kb / 64.0))


@dataclass(frozen=True)
class TileCost:
    """Area (um^2) and power (mW) of one PE tile."""

    name: str
    n_pes: int
    pe_array_area: float
    encoder_area: float
    pe_array_power: float
    encoder_power: float

    @property
    def total_area(self) -> float:
        return self.pe_array_area + self.encoder_area

    @property
    def total_power(self) -> float:
        return self.pe_array_power + self.encoder_power

    @property
    def area_per_pe(self) -> float:
        return self.total_area / self.n_pes


def fp16_pe_tile_cost() -> TileCost:
    """Table X, baseline row: 6x8 FP16 MAC PEs."""
    return TileCost(
        name="fp16",
        n_pes=48,
        pe_array_area=95498.0,
        encoder_area=0.0,
        pe_array_power=36.96,
        encoder_power=0.0,
    )


def bitmod_pe_tile_cost() -> TileCost:
    """Table X, BitMoD row: 8x8 bit-serial PEs + term encoder."""
    return TileCost(
        name="bitmod",
        n_pes=64,
        pe_array_area=97090.0,
        encoder_area=2419.0,
        pe_array_power=37.5,
        encoder_power=1.86,
    )


# ----------------------------------------------------------------------
# Component-level model for bit-parallel mixed-precision PEs (Fig. 10).
# Unit costs in um^2 at 28 nm; calibrated so one FP16 MAC PE lands at
# the Table X per-PE area (~1990 um^2).
# ----------------------------------------------------------------------
_AREA_PER_MULT_BIT2 = 8.74  # multiplier area ~ k * n*m bits
_AREA_PER_ADDER_BIT = 14.0
_AREA_PER_REG_BIT = 6.0
_AREA_FP_ALIGN_PER_BIT = 16.0  # exponent align + normalize logic
_POWER_PER_AREA = 36.96 / 95498.0  # mW per um^2, from the baseline tile


def bit_parallel_pe_cost(weight_bits: int, dual_issue: bool = False) -> dict:
    """Area/power of a FIGNA-like FP16-activation x INT-weight PE.

    ``dual_issue=True`` models the decomposable PE that executes two
    FP16xINT4 MACs per cycle: the multiplier splits, but the
    accumulator, alignment logic, and output register double.
    """
    man_bits = 11
    mult = _AREA_PER_MULT_BIT2 * man_bits * max(weight_bits, 4)
    align = _AREA_FP_ALIGN_PER_BIT * (man_bits + 5)
    acc = _AREA_PER_ADDER_BIT * 32 + _AREA_PER_REG_BIT * 38
    area = mult + align + acc
    if dual_issue:
        # Two outputs: duplicated accumulator/align/register, split mult.
        area = mult + 2 * (align + acc) + 0.15 * mult
    return {"area_um2": area, "power_mw": area * _POWER_PER_AREA}


def fp16_fp16_pe_cost() -> dict:
    """Conventional FP16 x FP16 MAC PE (the Fig. 10 'FP-FP' bar)."""
    man_bits = 11
    mult = _AREA_PER_MULT_BIT2 * man_bits * man_bits
    align = _AREA_FP_ALIGN_PER_BIT * (man_bits + 5)
    acc = _AREA_PER_ADDER_BIT * 32 + _AREA_PER_REG_BIT * 38
    area = mult + align + acc
    return {"area_um2": area, "power_mw": area * _POWER_PER_AREA}


@dataclass
class EnergyBreakdown:
    """Energy of one workload run, in micro-joules."""

    dram_uj: float = 0.0
    buffer_uj: float = 0.0
    core_uj: float = 0.0

    @property
    def total_uj(self) -> float:
        return self.dram_uj + self.buffer_uj + self.core_uj

    @property
    def onchip_uj(self) -> float:
        return self.buffer_uj + self.core_uj

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(
            dram_uj=self.dram_uj + other.dram_uj,
            buffer_uj=self.buffer_uj + other.buffer_uj,
            core_uj=self.core_uj + other.core_uj,
        )
