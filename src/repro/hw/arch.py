"""Accelerator architecture description (paper Section IV-C, Fig. 6).

The BitMoD accelerator evaluated in the paper: 16 PE tiles of 8x8
bit-serial PEs each — 1024 PEs arranged as a 32x32 grid — with 512 KB
input and 512 KB weight buffers; output-stationary dataflow with
weight terms broadcast down columns and inputs broadcast across rows.
All accelerators in the evaluation are configured under an
*iso-compute-area* constraint, so a design with smaller PEs fits
proportionally more of them (see :mod:`repro.hw.baselines` for the
area-budget fitting, and :mod:`repro.dse.space` for sweeping these
fields across a whole design space).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ArchConfig", "BITMOD_ARCH", "BASELINE_FP16_ARCH"]


@dataclass(frozen=True)
class ArchConfig:
    """One accelerator configuration.

    The defaults describe the paper's BitMoD array: a ``32 x 32`` PE
    grid (16 tiles of 64 PEs), 4-lane bit-serial PEs at 1 GHz, 512 KB
    weight/input buffers, and one DDR4-3200 x64 channel.

    Parameters
    ----------
    pe_rows, pe_cols:
        PE grid dimensions (already scaled for iso-area by the factory
        functions in :mod:`repro.hw.baselines`).  ``pe_rows * pe_cols``
        must be divisible by ``pes_per_tile``.
    pe_lanes:
        Dot-product lanes of a bit-serial PE (4 in the paper: each PE
        retires a 4-element MAC group per ``terms_per_weight`` cycles).
    bit_serial:
        ``True`` for term-serial PEs; ``False`` for bit-parallel MACs.
    frequency_ghz:
        Core clock in GHz.  Must be positive.
    weight_buffer_kb, input_buffer_kb:
        On-chip SRAM buffer capacities in KB.  Must be positive.
    dram_gbps:
        Effective DRAM bandwidth in GB/s (25.6 = DDR4-3200 x64
        channel).  Must be positive.
    pe_area_um2:
        Per-PE area in um^2 at 28 nm, used for iso-area scaling.
    pe_power_mw:
        Per-PE average power in mW at 1 GHz (numerically equal to pJ
        per active cycle).
    encoder_area_um2, encoder_power_mw:
        Weight-decoder (bit-serial term generator) area/power, one
        encoder per tile of ``pes_per_tile`` PEs.
    pes_per_tile:
        PEs sharing one encoder (64 = the paper's 8x8 tile).

    ``pe_throughput`` note: a *bit-parallel* PE retires
    ``macs_per_cycle`` MACs every cycle (see
    :class:`repro.hw.baselines.AcceleratorSpec`); a bit-serial PE's
    throughput is ``pe_lanes / terms_per_weight``.

    Raises
    ------
    ValueError
        If any dimension/capacity is non-positive, or the PE grid is
        not an integer number of tiles.
    """

    name: str
    #: PE grid (already scaled for iso-area by the factory functions).
    pe_rows: int = 32
    pe_cols: int = 32
    #: 4-way dot-product lanes of a bit-serial PE.
    pe_lanes: int = 4
    bit_serial: bool = True
    frequency_ghz: float = 1.0
    weight_buffer_kb: int = 512
    input_buffer_kb: int = 512
    #: Effective DRAM bandwidth (DDR4-3200 x64 channel), GB/s.
    dram_gbps: float = 25.6
    #: Per-PE area in um^2 (28 nm), used for iso-area scaling.
    pe_area_um2: float = 1517.0
    #: Per-PE average power in mW at 1 GHz.
    pe_power_mw: float = 0.586
    #: Weight-decoder (bit-serial term generator) area/power per tile.
    encoder_area_um2: float = 2419.0
    encoder_power_mw: float = 1.86
    pes_per_tile: int = 64

    def __post_init__(self):
        for fname in ("pe_rows", "pe_cols", "pe_lanes", "pes_per_tile"):
            v = getattr(self, fname)
            if v <= 0:
                raise ValueError(
                    f"ArchConfig {self.name!r}: {fname} must be a positive "
                    f"integer, got {v!r}"
                )
        if self.frequency_ghz <= 0:
            raise ValueError(
                f"ArchConfig {self.name!r}: frequency_ghz must be positive, "
                f"got {self.frequency_ghz!r}"
            )
        if self.dram_gbps <= 0:
            raise ValueError(
                f"ArchConfig {self.name!r}: dram_gbps must be positive, "
                f"got {self.dram_gbps!r}"
            )
        for fname in ("weight_buffer_kb", "input_buffer_kb"):
            v = getattr(self, fname)
            if v <= 0:
                raise ValueError(
                    f"ArchConfig {self.name!r}: {fname} must be positive "
                    f"(a zero-sized buffer cannot hold a weight tile), got {v!r}"
                )
        n_pes = self.pe_rows * self.pe_cols
        if n_pes % self.pes_per_tile != 0:
            raise ValueError(
                f"ArchConfig {self.name!r}: PE grid {self.pe_rows}x"
                f"{self.pe_cols} = {n_pes} PEs is not an integer number of "
                f"{self.pes_per_tile}-PE tiles (n_pes must be divisible by "
                f"pes_per_tile)"
            )

    @property
    def n_pes(self) -> int:
        """Total PE count of the array (``pe_rows * pe_cols``)."""
        return self.pe_rows * self.pe_cols

    def compute_area_um2(self) -> float:
        """Compute area of the array in um^2: PEs plus per-tile encoders."""
        area = self.n_pes * self.pe_area_um2
        n_tiles = self.n_pes / self.pes_per_tile
        return area + n_tiles * self.encoder_area_um2


#: Published Table X numbers: the BitMoD tile has 8x8 PEs in 99,509
#: um^2 (including encoder); the FP16 baseline tile fits 6x8 PEs in
#: 95,498 um^2.  Per-PE figures below are those numbers divided out.
BITMOD_ARCH = ArchConfig(
    name="bitmod",
    pe_rows=32,
    pe_cols=32,
    bit_serial=True,
    pe_area_um2=97090.0 / 64,
    pe_power_mw=37.5 / 64,
    encoder_area_um2=2419.0,
    encoder_power_mw=1.86,
    pes_per_tile=64,
)

BASELINE_FP16_ARCH = ArchConfig(
    name="fp16",
    pe_rows=24,  # 4x4 tiles of 6x8 PEs under iso-area (Table X)
    pe_cols=32,
    bit_serial=False,
    pe_area_um2=95498.0 / 48,
    pe_power_mw=36.96 / 48,
    encoder_area_um2=0.0,
    encoder_power_mw=0.0,
    pes_per_tile=48,
)
