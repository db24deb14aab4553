"""BitMoD hardware model: bit-serial PE, timing, energy, simulator."""

from repro.hw.arch import BASELINE_FP16_ARCH, BITMOD_ARCH, ArchConfig
from repro.hw.baselines import (
    ACCELERATORS,
    AREA_BUDGET_UM2,
    AcceleratorSpec,
    make_accelerator,
)
from repro.hw.bitserial import (
    TERMS_PER_WEIGHT,
    BitSerialTerm,
    booth_encode,
    csd_pair,
    decompose_value,
    fixed_point_decompose,
    terms_for_dtype,
)
from repro.hw.energy import (
    DRAM_ENERGY_PJ_PER_BYTE,
    EnergyBreakdown,
    TileCost,
    bit_parallel_pe_cost,
    bitmod_pe_tile_cost,
    fp16_fp16_pe_cost,
    fp16_pe_tile_cost,
    sram_energy_pj_per_byte,
)
from repro.hw.functional import FunctionalGemm, GemmExecution
from repro.hw.pe import BatchPEResult, BitMoDPE, PEConfig, PEResult
from repro.hw.multichip import LinkSpec
from repro.hw.simulator import SimResult, simulate, simulate_plan
from repro.hw.termtable import (
    TermTable,
    decode_packed_terms,
    grid_term_table,
    integer_term_table,
    term_tables_for_dtype,
)
from repro.hw.timing import GemmTiming, dequant_stalls, gemm_compute_cycles

__all__ = [
    "ArchConfig",
    "BITMOD_ARCH",
    "BASELINE_FP16_ARCH",
    "AcceleratorSpec",
    "make_accelerator",
    "ACCELERATORS",
    "AREA_BUDGET_UM2",
    "BitSerialTerm",
    "booth_encode",
    "csd_pair",
    "fixed_point_decompose",
    "decompose_value",
    "terms_for_dtype",
    "TERMS_PER_WEIGHT",
    "BitMoDPE",
    "PEConfig",
    "PEResult",
    "BatchPEResult",
    "FunctionalGemm",
    "GemmExecution",
    "TermTable",
    "integer_term_table",
    "grid_term_table",
    "term_tables_for_dtype",
    "decode_packed_terms",
    "EnergyBreakdown",
    "TileCost",
    "fp16_pe_tile_cost",
    "bitmod_pe_tile_cost",
    "bit_parallel_pe_cost",
    "fp16_fp16_pe_cost",
    "sram_energy_pj_per_byte",
    "DRAM_ENERGY_PJ_PER_BYTE",
    "GemmTiming",
    "gemm_compute_cycles",
    "dequant_stalls",
    "SimResult",
    "simulate",
    "simulate_plan",
    "LinkSpec",
]
