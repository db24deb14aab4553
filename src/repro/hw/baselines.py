"""Accelerator specifications: BitMoD, FP16 baseline, ANT, OliVe, FIGNA.

All accelerators are normalized to the same compute area (the paper's
iso-compute-area constraint): the 16-tile FP16 baseline array defines
the budget, and each design fits as many of its own PEs as that budget
allows.  Per-PE areas come from Table X (FP16, BitMoD) and from the
component model in :mod:`repro.hw.energy` scaled by published
relative costs (ANT's decoder-augmented PE, OliVe's outlier-pair PE).

Weight-precision policy: BitMoD supports {8, 6, 5, 4, 3}; ANT and
OliVe are bit-parallel designs supporting {8, 4} only — when their
4-bit accuracy is unacceptable on a model they must fall back to
8-bit, which is exactly the dynamic behind Fig. 7's generative gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.hw.arch import ArchConfig
from repro.hw.energy import bitmod_pe_tile_cost, fp16_pe_tile_cost

__all__ = [
    "AcceleratorSpec",
    "make_accelerator",
    "ACCELERATORS",
    "AREA_BUDGET_UM2",
    "ISO_AREA_SLACK",
    "ARRAY_COLS",
    "iso_area_grid",
]

_FP16_TILE = fp16_pe_tile_cost()
_BITMOD_TILE = bitmod_pe_tile_cost()

#: Iso-compute-area budget: the 4x4-tile FP16 baseline array.
AREA_BUDGET_UM2 = 16 * _FP16_TILE.total_area

#: Slack of the iso-area fit: the paper's Table X BitMoD array is ~4%
#: larger than the 16-tile baseline yet still called "iso-compute".
#: Shared with :mod:`repro.dse.space` so DSE sweeps stay area-
#: comparable with the paper accelerators.
ISO_AREA_SLACK = 1.05

#: Systolic array width every fitted design keeps; rows absorb the PE
#: count.  Shared with :mod:`repro.dse.space`.
ARRAY_COLS = 32


@dataclass(frozen=True)
class AcceleratorSpec:
    """One accelerator under the iso-area constraint."""

    name: str
    arch: ArchConfig
    #: Precisions the design can execute.
    supported_bits: Tuple[int, ...]
    #: MACs per cycle per PE for bit-parallel designs.
    macs_per_cycle: float = 1.0
    #: KV-cache precision used for the attention GEMMs.
    kv_bits: int = 8

    def terms_per_weight(self, bits: int) -> int:
        """Bit-serial terms (cycles per 4-MAC step) at ``bits``."""
        if not self.arch.bit_serial:
            return 1
        if bits >= 7:
            return 4
        if bits >= 5:
            return 3
        return 2  # extended FP4 / FP3 (and Booth INT4)

    def effective_macs_per_cycle(self, bits: int) -> float:
        """Array-wide MAC throughput at the given weight precision."""
        if self.arch.bit_serial:
            return self.arch.n_pes * self.arch.pe_lanes / self.terms_per_weight(bits)
        return self.arch.n_pes * self.macs_per_cycle


def iso_area_grid(
    pe_area: float, encoder_area_per_tile: float, pes_per_tile: int
) -> Tuple[int, int]:
    """Rows/cols of the largest array fitting the iso-area budget.

    ``floor(slack * budget / tile_area)`` tiles, trimmed until the PE
    count fills whole :data:`ARRAY_COLS`-wide rows (and hence whole
    tiles).  Raises ``ValueError`` when not even one tile fits.
    """
    tile_area = pes_per_tile * pe_area + encoder_area_per_tile
    n_tiles = int((ISO_AREA_SLACK * AREA_BUDGET_UM2) // tile_area)
    while n_tiles > 0 and (n_tiles * pes_per_tile) % ARRAY_COLS != 0:
        n_tiles -= 1
    if n_tiles < 1:
        raise ValueError(
            f"one {pes_per_tile}-PE tile ({tile_area:.0f} um^2) exceeds "
            "the iso-area budget"
        )
    return n_tiles * pes_per_tile // ARRAY_COLS, ARRAY_COLS


def make_accelerator(name: str) -> AcceleratorSpec:
    """Build one of the evaluated accelerators."""
    fp16_pe_area = _FP16_TILE.total_area / _FP16_TILE.n_pes
    fp16_pe_power = _FP16_TILE.total_power / _FP16_TILE.n_pes

    if name == "fp16":
        return AcceleratorSpec(
            name="fp16",
            arch=ArchConfig(
                name="fp16",
                pe_rows=24,
                pe_cols=32,
                bit_serial=False,
                pe_area_um2=fp16_pe_area,
                pe_power_mw=fp16_pe_power,
                encoder_area_um2=0.0,
                encoder_power_mw=0.0,
                pes_per_tile=48,
            ),
            supported_bits=(16,),
            kv_bits=16,
        )
    if name == "bitmod":
        pe_area = _BITMOD_TILE.pe_array_area / _BITMOD_TILE.n_pes
        pe_power = _BITMOD_TILE.pe_array_power / _BITMOD_TILE.n_pes
        rows, cols = iso_area_grid(pe_area, _BITMOD_TILE.encoder_area, 64)
        return AcceleratorSpec(
            name="bitmod",
            arch=ArchConfig(
                name="bitmod",
                pe_rows=rows,
                pe_cols=cols,
                bit_serial=True,
                pe_area_um2=pe_area,
                pe_power_mw=pe_power,
                encoder_area_um2=_BITMOD_TILE.encoder_area,
                encoder_power_mw=_BITMOD_TILE.encoder_power,
                pes_per_tile=64,
            ),
            supported_bits=(8, 6, 5, 4, 3),
            kv_bits=8,
        )
    if name in ("ant", "olive"):
        # Bit-parallel FP16-activation x INT-weight PEs with the
        # design's datatype decoder.  ANT's decoder is lean; OliVe's
        # outlier-victim pair handling costs noticeably more (the
        # paper's Section V-C discussion), so it fits fewer PEs.
        rel_area = {"ant": 0.70, "olive": 0.78}[name]
        pe_area = rel_area * fp16_pe_area
        pe_power = rel_area * fp16_pe_power
        rows, cols = iso_area_grid(pe_area, 0.0, 64)
        return AcceleratorSpec(
            name=name,
            arch=ArchConfig(
                name=name,
                pe_rows=rows,
                pe_cols=cols,
                bit_serial=False,
                pe_area_um2=pe_area,
                pe_power_mw=pe_power,
                encoder_area_um2=0.0,
                encoder_power_mw=0.0,
                pes_per_tile=64,
            ),
            supported_bits=(8, 4),
            kv_bits=8,
        )
    raise KeyError(f"unknown accelerator {name!r}")


ACCELERATORS = ("fp16", "ant", "olive", "bitmod")
