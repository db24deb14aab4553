"""Tests for the end-to-end accelerator simulator."""

import pytest

from repro.hw.baselines import make_accelerator
from repro.hw.simulator import one_pass, simulate
from repro.models.zoo import get_model_config


@pytest.fixture(scope="module")
def accels():
    return {n: make_accelerator(n) for n in ("fp16", "ant", "olive", "bitmod")}


@pytest.fixture(scope="module")
def llama():
    return get_model_config("llama-2-7b")


class TestRegimes:
    def test_generative_memory_bound_fp16(self, accels, llama):
        """FP16 generative latency ~ weight bytes / DRAM bandwidth."""
        r = simulate(llama, accels["fp16"], "generative", 16)
        weight_gb = llama.streamed_weight_elements * 2 / 1e9
        floor_ms = weight_gb * 257 / 25.6 * 1e3
        assert r.time_ms == pytest.approx(floor_ms, rel=0.25)

    def test_discriminative_compute_bound(self, accels, llama):
        """Halving precision must NOT halve discriminative latency."""
        r16 = simulate(llama, accels["fp16"], "discriminative", 16)
        # Hypothetical 8-bit on the same fp16 array: memory halves but
        # compute stays, so cycles barely move.
        r8 = simulate(llama, accels["fp16"], "discriminative", 8)
        assert r8.cycles > 0.9 * r16.cycles

    def test_generative_scales_with_bits(self, accels, llama):
        bm = accels["bitmod"]
        c3 = simulate(llama, bm, "generative", 3).cycles
        c6 = simulate(llama, bm, "generative", 6).cycles
        assert 1.5 < c6 / c3 < 2.2  # near the 6/3 traffic ratio

    def test_request_is_its_passes(self, accels, llama):
        """A generative request is one prefill pass plus ``gen_len``
        decode passes at the mean context, on any mesh — the
        composition a load replay prices pass by pass."""
        mesh = dict(shards=2, stages=2)
        r = simulate(
            llama, accels["bitmod"], "generative", 4,
            prompt_len=64, gen_len=32, **mesh,
        )
        prefill = one_pass(llama, accels["bitmod"], 4, 64, 64, **mesh)
        decode = one_pass(llama, accels["bitmod"], 4, 1, 64 + 16, **mesh)
        assert r.cycles == prefill[0] + 32 * decode[0]
        assert r.interconnect_bytes == prefill[2] + 32 * decode[2]

    def test_bad_task(self, accels, llama):
        with pytest.raises(ValueError):
            simulate(llama, accels["fp16"], "training", 16)


class TestPaperShapes:
    def test_lossless_speedups(self, accels, llama):
        """Paper: lossless BitMoD ~1.99x disc / ~2.41x gen vs FP16."""
        for task, lo, hi in (("discriminative", 1.4, 2.6), ("generative", 1.8, 3.2)):
            base = simulate(llama, accels["fp16"], task, 16)
            r = simulate(llama, accels["bitmod"], task, 6)
            assert lo < base.cycles / r.cycles < hi

    def test_lossy_beats_ant_and_olive(self, accels, llama):
        for task, bm_bits in (("discriminative", 4), ("generative", 3)):
            bm = simulate(llama, accels["bitmod"], task, bm_bits)
            for rival in ("ant", "olive"):
                rv = simulate(llama, accels[rival], task, 4)
                assert bm.cycles < rv.cycles

    def test_energy_efficiency_lossless(self, accels, llama):
        """Paper: ~2.31x better energy vs FP16 baseline on average."""
        ratios = []
        for task in ("discriminative", "generative"):
            base = simulate(llama, accels["fp16"], task, 16)
            r = simulate(llama, accels["bitmod"], task, 6)
            ratios.append(base.energy.total_uj / r.energy.total_uj)
        avg = sum(ratios) / 2
        assert 1.8 < avg < 3.0

    def test_dram_dominates_generative_energy(self, accels, llama):
        r = simulate(llama, accels["fp16"], "generative", 16)
        assert r.energy.dram_uj > r.energy.onchip_uj

    def test_energy_components_positive(self, accels, llama):
        r = simulate(llama, accels["bitmod"], "discriminative", 4)
        assert r.energy.dram_uj > 0
        assert r.energy.buffer_uj > 0
        assert r.energy.core_uj > 0

    def test_edp(self, accels, llama):
        r = simulate(llama, accels["bitmod"], "generative", 3)
        assert r.edp == pytest.approx(r.energy.total_uj * r.time_ms)

    def test_bigger_model_slower(self, accels):
        small = simulate(get_model_config("opt-1.3b"), accels["fp16"], "generative", 16)
        big = simulate(get_model_config("llama-2-13b"), accels["fp16"], "generative", 16)
        assert big.cycles > 4 * small.cycles


class TestSimulatePlan:
    """Per-layer precision aggregation (repro.policy bridge)."""

    def _names(self, cfg):
        return [g.name for g in cfg.block_gemms(1)] + ["lm_head"]

    def test_uniform_assignment_reproduces_simulate(self, accels, llama):
        from repro.hw.simulator import simulate_plan

        for task in ("discriminative", "generative"):
            for bits in (3, 4, 6, 8):
                ref = simulate(llama, accels["bitmod"], task, bits)
                uni = simulate_plan(
                    llama,
                    accels["bitmod"],
                    task,
                    {n: float(bits) for n in self._names(llama)},
                )
                assert uni.cycles == ref.cycles
                assert uni.energy == ref.energy
                assert uni.weight_bits == bits

    def test_mixed_assignment_between_extremes(self, accels, llama):
        from repro.hw.simulator import simulate_plan

        bits = {n: 3.0 for n in self._names(llama)}
        bits["down_proj"] = 8.0
        bits["lm_head"] = 8.0
        lo = simulate(llama, accels["bitmod"], "generative", 3)
        hi = simulate(llama, accels["bitmod"], "generative", 8)
        mid = simulate_plan(llama, accels["bitmod"], "generative", bits)
        assert lo.cycles < mid.cycles < hi.cycles
        assert lo.energy.total_uj < mid.energy.total_uj < hi.energy.total_uj
        assert 3.0 < mid.weight_bits < 8.0

    def test_unnamed_gemms_default_to_fp16(self, accels, llama):
        from repro.hw.simulator import simulate_plan

        empty = simulate_plan(llama, accels["bitmod"], "generative", {})
        ref = simulate(llama, accels["bitmod"], "generative", 16)
        assert empty.cycles == ref.cycles
        assert empty.weight_bits == 16.0

    def test_unknown_task_rejected(self, accels, llama):
        from repro.hw.simulator import simulate_plan

        with pytest.raises(ValueError, match="task must be"):
            simulate_plan(llama, accels["bitmod"], "translation", {})


class TestTrafficBitsMap:
    """Per-GEMM precision maps, read through the DRAM energy."""

    def _names(self, cfg):
        return [g.name for g in cfg.block_gemms(1)] + ["lm_head"]

    def test_uniform_map_matches_scalar_bits(self, accels, llama):
        scalar = simulate(llama, accels["bitmod"], "generative", 4.0)
        mapped = simulate(
            llama,
            accels["bitmod"],
            "generative",
            4.0,
            gemm_bits={n: 4.0 for n in self._names(llama)},
        )
        assert mapped.energy == scalar.energy
        assert mapped.cycles == scalar.cycles

    def test_partial_map_falls_back(self, accels, llama):
        from repro.hw.energy import DRAM_ENERGY_PJ_PER_BYTE

        full = simulate(llama, accels["bitmod"], "discriminative", 16.0)
        lean = simulate(
            llama, accels["bitmod"], "discriminative", 16.0, gemm_bits={"lm_head": 4.0}
        )
        saved = (full.energy.dram_uj - lean.energy.dram_uj) * 1e6 / DRAM_ENERGY_PJ_PER_BYTE
        assert saved == pytest.approx(llama.vocab * llama.hidden * 12.0 / 8.0)
