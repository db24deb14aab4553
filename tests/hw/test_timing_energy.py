"""Tests for the timing, energy, DRAM, and accelerator models."""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.hw.arch import ArchConfig
from repro.hw.baselines import AREA_BUDGET_UM2, make_accelerator
from repro.hw.energy import (
    DRAM_ENERGY_PJ_PER_BYTE,
    EnergyBreakdown,
    bit_parallel_pe_cost,
    bitmod_pe_tile_cost,
    fp16_fp16_pe_cost,
    fp16_pe_tile_cost,
    sram_energy_pj_per_byte,
)
from repro.hw.simulator import simulate
from repro.hw.timing import dequant_stalls, gemm_compute_cycles
from repro.models.config import GEMMShape
from repro.models.zoo import get_model_config


class TestTiming:
    def _arch(self, bit_serial=True):
        return ArchConfig(name="t", pe_rows=32, pe_cols=32, bit_serial=bit_serial)

    def test_bit_serial_cycles(self):
        g = GEMMShape("g", m=32, k=128, n=32)
        t = gemm_compute_cycles(g, self._arch(), terms_per_weight=2)
        assert t.compute_cycles == (128 // 4) * 2  # one output tile

    def test_bit_parallel_cycles(self):
        g = GEMMShape("g", m=32, k=128, n=32)
        t = gemm_compute_cycles(g, self._arch(False), macs_per_cycle=1.0)
        assert t.compute_cycles == 128

    def test_terms_scale_cycles(self):
        g = GEMMShape("g", m=64, k=256, n=64)
        c2 = gemm_compute_cycles(g, self._arch(), terms_per_weight=2).compute_cycles
        c4 = gemm_compute_cycles(g, self._arch(), terms_per_weight=4).compute_cycles
        assert c4 == 2 * c2

    def test_tiling_ceil(self):
        g = GEMMShape("g", m=33, k=4, n=32)
        t = gemm_compute_cycles(g, self._arch(), terms_per_weight=2)
        assert t.compute_cycles == 2 * 2  # two M tiles

    def test_count_repeat_multiply(self):
        g1 = GEMMShape("g", m=32, k=128, n=32, count=2, repeat=3)
        g2 = GEMMShape("g", m=32, k=128, n=32)
        a = gemm_compute_cycles(g1, self._arch(), 2).compute_cycles
        b = gemm_compute_cycles(g2, self._arch(), 2).compute_cycles
        assert a == 6 * b

    def test_dequant_never_stalls_paper_config(self):
        """Section IV-B: 8-bit SF, group 128, 4 lanes, >= 2 terms."""
        for terms in (2, 3, 4):
            assert dequant_stalls(128, 4, terms) == 0

    def test_dequant_stalls_tiny_groups(self):
        # A pathological 8-weight group at 2 terms would stall.
        assert dequant_stalls(8, 4, 2) == 4


class TestEnergy:
    def test_table_x_fp16(self):
        c = fp16_pe_tile_cost()
        assert c.total_area == pytest.approx(95498.0)
        assert c.total_power == pytest.approx(36.96)

    def test_table_x_bitmod(self):
        c = bitmod_pe_tile_cost()
        assert c.total_area == pytest.approx(99509.0)
        assert c.total_power == pytest.approx(39.36)

    def test_bitmod_pe_24pct_smaller(self):
        fp16 = fp16_pe_tile_cost()
        bm = bitmod_pe_tile_cost()
        ratio = bm.area_per_pe / fp16.area_per_pe
        assert ratio == pytest.approx(0.78, abs=0.03)  # "24% less area"

    def test_encoder_small_fraction(self):
        bm = bitmod_pe_tile_cost()
        assert bm.encoder_area / bm.total_area == pytest.approx(0.025, abs=0.005)

    def test_sram_energy_monotone(self):
        assert sram_energy_pj_per_byte(512) > sram_energy_pj_per_byte(64)

    def test_sram_invalid(self):
        with pytest.raises(ValueError):
            sram_energy_pj_per_byte(0)

    def test_fig10_shape(self):
        """FP-INT8 < FP-FP < dual-issue; BitMoD smallest-ish."""
        fp_fp = fp16_fp16_pe_cost()["area_um2"]
        fp_i8 = bit_parallel_pe_cost(8)["area_um2"]
        dual = bit_parallel_pe_cost(8, dual_issue=True)["area_um2"]
        bm = bitmod_pe_tile_cost().area_per_pe
        assert fp_i8 < fp_fp < dual
        assert bm < fp_fp

    def test_breakdown_addition(self):
        a = EnergyBreakdown(1.0, 2.0, 3.0)
        b = EnergyBreakdown(0.5, 0.5, 0.5)
        c = a + b
        assert c.total_uj == 7.5 and c.onchip_uj == 6.0


class TestDram:
    """DRAM traffic, read through the simulator's DRAM energy."""

    @staticmethod
    def dram_bytes(cfg, accel, task="discriminative", bits=16, **kw):
        r = simulate(cfg, accel, task, bits, **kw)
        return r.energy.dram_uj * 1e6 / DRAM_ENERGY_PJ_PER_BYTE

    def test_weight_traffic_scales_with_bits(self):
        cfg = get_model_config("llama-2-7b")
        accel = make_accelerator("bitmod")
        b16 = self.dram_bytes(cfg, accel, bits=16)
        b4 = self.dram_bytes(cfg, accel, bits=4)
        assert b4 < b16
        # One pass streams every block weight and the LM head once.
        assert b16 - b4 == pytest.approx(cfg.streamed_weight_elements * 12 / 8)

    def test_kv_traffic_grows_with_context(self):
        """The KV share (traffic at 16-bit minus 8-bit KV) is linear in
        the context."""
        cfg = get_model_config("llama-2-7b")
        kv8 = make_accelerator("bitmod")
        kv16 = replace(kv8, kv_bits=16)

        def kv_share(prompt_len):
            return self.dram_bytes(cfg, kv16, prompt_len=prompt_len) - self.dram_bytes(
                cfg, kv8, prompt_len=prompt_len
            )

        assert kv_share(512) > kv_share(256) > 0
        assert kv_share(512) == pytest.approx(2 * kv_share(256))

    def test_generative_dominated_by_weight_refetch(self):
        """Weight and KV shares are separated by differences: 16-bit
        weights stream twice the bytes of 16-bit minus 8-bit weights,
        and likewise for a 16-bit KV cache."""
        cfg = get_model_config("llama-2-7b")
        kv8 = make_accelerator("bitmod")
        kv16 = replace(kv8, kv_bits=16)

        def weight_share(task):
            return 2 * (
                self.dram_bytes(cfg, kv16, task, bits=16)
                - self.dram_bytes(cfg, kv16, task, bits=8)
            )

        gen_kv = 2 * (
            self.dram_bytes(cfg, kv16, "generative")
            - self.dram_bytes(cfg, kv8, "generative")
        )
        assert weight_share("generative") > 200 * weight_share("discriminative")
        assert weight_share("generative") > gen_kv > 0

    def test_bad_task(self):
        with pytest.raises(ValueError, match="task must be"):
            simulate(get_model_config("opt-1.3b"), make_accelerator("fp16"), "training", 16)


class TestAccelerators:
    @pytest.mark.parametrize("name", ["fp16", "ant", "olive", "bitmod"])
    def test_iso_area(self, name):
        accel = make_accelerator(name)
        assert accel.arch.compute_area_um2() <= 1.06 * AREA_BUDGET_UM2

    def test_bitmod_fits_more_pes_than_baseline(self):
        assert make_accelerator("bitmod").arch.n_pes > make_accelerator("fp16").arch.n_pes

    def test_olive_fewer_pes_than_ant(self):
        """OliVe's outlier-pair PE is bigger (Section V-C)."""
        assert make_accelerator("olive").arch.n_pes <= make_accelerator("ant").arch.n_pes

    def test_terms_per_weight(self):
        bm = make_accelerator("bitmod")
        assert bm.terms_per_weight(8) == 4
        assert bm.terms_per_weight(6) == 3
        assert bm.terms_per_weight(4) == 2
        assert bm.terms_per_weight(3) == 2

    def test_throughput_improvement_claims(self):
        """4-lane PE: 2x at FP4/FP3 and 1.33x at INT6 vs 1 MAC/cycle."""
        bm = make_accelerator("bitmod")
        per_pe_fp4 = bm.effective_macs_per_cycle(4) / bm.arch.n_pes
        per_pe_int6 = bm.effective_macs_per_cycle(6) / bm.arch.n_pes
        assert per_pe_fp4 == 2.0
        assert per_pe_int6 == pytest.approx(4 / 3)

    def test_unknown_accelerator(self):
        with pytest.raises(KeyError):
            make_accelerator("tpu")
