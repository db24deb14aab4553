"""Tests for the functional (bit-accurate) GEMM executor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtypes.registry import list_dtypes
from repro.hw.functional import FunctionalGemm
from repro.hw.pe import PEConfig
from repro.hw.timing import gemm_compute_cycles
from repro.kernels import list_backends
from repro.kernels.cache import decode_cache
from repro.quant.config import QuantConfig, quantize_tensor
from repro.quant.packing import pack_tensor

#: Every registered backend: the dispatcher must run each one
#: bit-identically (pins a backend declines exercise the fallback path,
#: which must also be bit-identical).
ALL_BACKENDS = list_backends()


@pytest.fixture
def small_gemm(rng):
    w = rng.standard_normal((4, 256))
    x = rng.standard_normal((2, 256)).astype(np.float16)
    return x, w


class TestFunctionalGemm:
    @pytest.mark.parametrize(
        "dtype", ["int6_sym", "int8_sym", "fp4", "fp3", "bitmod_fp4", "bitmod_fp3"]
    )
    def test_matches_dequantized_matmul(self, small_gemm, dtype):
        x, w = small_gemm
        cfg = QuantConfig(dtype=dtype)
        res = FunctionalGemm(cfg).run(x, w)
        ref = x.astype(np.float64) @ quantize_tensor(w, cfg).w_deq.T
        np.testing.assert_allclose(res.output, ref, rtol=1e-3, atol=1e-3)

    def test_cycles_track_term_counts(self, small_gemm):
        """INT6 (3 terms) takes 1.5x the cycles of FP4 (2 terms)."""
        x, w = small_gemm
        c6 = FunctionalGemm(QuantConfig(dtype="int6_sym")).run(x, w).pe_cycles
        c4 = FunctionalGemm(QuantConfig(dtype="bitmod_fp4")).run(x, w).pe_cycles
        assert c6 / c4 == pytest.approx(1.5)

    def test_cycles_match_analytic_model(self, small_gemm):
        """Per-PE cycles equal the timing model's K-loop cycles."""
        from repro.hw.arch import ArchConfig
        from repro.models.config import GEMMShape

        x, w = small_gemm
        res = FunctionalGemm(QuantConfig(dtype="bitmod_fp3")).run(x, w)
        # Functional executor: one PE per (m, k-row) pair sequentially.
        m, d = x.shape
        k = w.shape[0]
        per_output = (d // 4) * 2  # K/4 lanes * 2 terms
        assert res.pe_cycles == m * k * per_output

        arch = ArchConfig(name="t", pe_rows=m, pe_cols=k, bit_serial=True, pes_per_tile=m * k)
        t = gemm_compute_cycles(
            GEMMShape("g", m=m, k=d, n=k), arch, terms_per_weight=2
        )
        assert t.compute_cycles == per_output  # all outputs in parallel

    def test_group_count(self, small_gemm):
        x, w = small_gemm
        res = FunctionalGemm(QuantConfig(dtype="fp3")).run(x, w)
        assert res.groups_processed == x.shape[0] * w.shape[0] * (256 // 128)

    def test_non_multiple_dims_padded(self, rng):
        w = rng.standard_normal((2, 200))
        x = rng.standard_normal((1, 200)).astype(np.float16)
        cfg = QuantConfig(dtype="fp4")
        res = FunctionalGemm(cfg).run(x, w)
        ref = x.astype(np.float64) @ quantize_tensor(w, cfg).w_deq.T
        np.testing.assert_allclose(res.output, ref, rtol=1e-3, atol=1e-3)

    def test_asymmetric_integer_rejected(self, small_gemm):
        x, w = small_gemm
        with pytest.raises(TypeError, match="zero-point"):
            FunctionalGemm(QuantConfig(dtype="int4_asym")).run(x, w)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            FunctionalGemm(QuantConfig(dtype="fp4")).run(
                rng.standard_normal((2, 128)).astype(np.float16),
                rng.standard_normal((2, 256)),
            )

    def test_non_2d_activations_rejected(self, rng):
        gemm = FunctionalGemm(QuantConfig(dtype="fp4"))
        w = rng.standard_normal((2, 128))
        with pytest.raises(ValueError, match="2-D"):
            gemm.run(rng.standard_normal(128).astype(np.float16), w)
        with pytest.raises(ValueError, match="2-D"):
            gemm.run(rng.standard_normal((2, 128, 2)).astype(np.float16), w)


def _assert_same_execution(a, b):
    np.testing.assert_array_equal(a.output, b.output)
    assert a.pe_cycles == b.pe_cycles
    assert a.groups_processed == b.groups_processed


class TestVectorizedEquivalence:
    """Every kernel backend must be bit-identical to the scalar
    reference — values, cycle counts and group counts — for every
    registry datatype, including matching rejection behaviour.

    Backends are selected through the dispatcher (``backend=`` pin),
    so pinning a backend that declines the task also proves the
    fallback path preserves bit identity.
    """

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("dtype", list_dtypes())
    def test_registry_dtype_bit_identical_or_same_rejection(
        self, rng, dtype, backend
    ):
        w = rng.standard_normal((3, 64))
        x = rng.standard_normal((2, 64)).astype(np.float16)
        gemm = FunctionalGemm(
            QuantConfig(dtype=dtype, group_size=32), backend=backend
        )
        try:
            scalar = gemm.run_scalar(x, w)
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc)):
                gemm.run(x, w)
            return
        _assert_same_execution(scalar, gemm.run(x, w))

    @given(
        seed=st.integers(0, 2**32 - 1),
        dtype=st.sampled_from(
            ["bitmod_fp4", "bitmod_fp3", "int6_sym", "int8_sym", "fp4", "ant4"]
        ),
        backend=st.sampled_from(ALL_BACKENDS),
        m=st.integers(1, 4),
        k=st.integers(1, 5),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_shapes_bit_identical(self, seed, dtype, backend, m, k):
        rng = np.random.default_rng(seed)
        # Mix magnitudes so exponent alignment and accumulator
        # renormalization paths are exercised.
        d = int(rng.choice([32, 64, 96]))
        w = rng.standard_normal((k, d)) * rng.uniform(0.05, 20.0)
        x = (rng.standard_normal((m, d)) * rng.uniform(0.1, 8.0)).astype(np.float16)
        gemm = FunctionalGemm(
            QuantConfig(dtype=dtype, group_size=32), backend=backend
        )
        _assert_same_execution(gemm.run_scalar(x, w), gemm.run(x, w))

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize(
        "pe_config",
        [PEConfig(acc_mantissa_bits=20), PEConfig(guard_bits=12)],
        ids=["acc20", "guard12"],
    )
    def test_non_default_pe_bit_identical(self, rng, pe_config, backend):
        """The fused backend declines both configs (non-24-bit
        accumulator; lane-sum overflow at 12 guard bits), so its pin
        exercises the numpy fallback, which must stay exact."""
        w = rng.standard_normal((3, 64))
        x = rng.standard_normal((2, 64)).astype(np.float16)
        gemm = FunctionalGemm(
            QuantConfig(dtype="bitmod_fp4", group_size=32),
            pe_config=pe_config,
            backend=backend,
        )
        _assert_same_execution(gemm.run_scalar(x, w), gemm.run(x, w))

    @pytest.mark.parametrize(
        "pe_config",
        [PEConfig(acc_mantissa_bits=20), PEConfig(guard_bits=12)],
        ids=["acc20", "guard12"],
    )
    @pytest.mark.parametrize("dtype", list_dtypes())
    def test_registry_dtype_fallback_bit_identical_or_same_rejection(
        self, rng, dtype, pe_config
    ):
        """A ``fused`` pin on a config it declines runs on ``numpy`` for
        every registry datatype, and that fallback stays exact."""
        from repro import obs

        w = rng.standard_normal((3, 64))
        x = rng.standard_normal((2, 64)).astype(np.float16)
        gemm = FunctionalGemm(
            QuantConfig(dtype=dtype, group_size=32),
            pe_config=pe_config,
            backend="fused",
        )
        try:
            scalar = gemm.run_scalar(x, w)
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc)):
                gemm.run(x, w)
            return
        obs.reset()
        _assert_same_execution(scalar, gemm.run(x, w))
        counters = obs.snapshot()["counters"]
        assert counters["kernels.dispatch{backend=numpy}"] == 1
        assert "kernels.dispatch{backend=fused}" not in counters

    def test_asymmetric_rejection_matches(self, rng):
        w = rng.standard_normal((2, 64))
        x = rng.standard_normal((1, 64)).astype(np.float16)
        gemm = FunctionalGemm(QuantConfig(dtype="int5_asym", group_size=32))
        with pytest.raises(TypeError, match="zero-point"):
            gemm.run_scalar(x, w)
        with pytest.raises(TypeError, match="zero-point"):
            gemm.run(x, w)

    def test_ragged_channel_bit_identical(self, rng):
        """Padded/ragged D exercises the explicit groups-per-channel."""
        w = rng.standard_normal((3, 200))
        x = rng.standard_normal((2, 200)).astype(np.float16)
        gemm = FunctionalGemm(QuantConfig(dtype="bitmod_fp4"))
        _assert_same_execution(gemm.run_scalar(x, w), gemm.run(x, w))

    def test_run_packed_reuses_decode_cache(self, rng):
        w = rng.standard_normal((2, 128))
        x = rng.standard_normal((2, 128)).astype(np.float16)
        cfg = QuantConfig(dtype="bitmod_fp4")
        packed = pack_tensor(w, cfg)
        cache = decode_cache()
        # Default dispatch (fused) caches its layout, not the terms.
        gemm = FunctionalGemm(cfg)
        first = gemm.run_packed(x, packed)
        assert cache.contains(packed, "fused")
        assert not cache.contains(packed, "terms")
        hits_before = cache.hits
        second = gemm.run_packed(x, packed)
        assert cache.hits > hits_before
        _assert_same_execution(first, second)
        # The numpy backend reuses the memoized term decode.
        pinned = FunctionalGemm(cfg, backend="numpy")
        pinned.run_packed(x, packed)
        assert cache.contains(packed, "terms")
        hits_before = cache.hits
        _assert_same_execution(first, pinned.run_packed(x, packed))
        assert cache.hits > hits_before

    def test_subnormal_activations_bit_identical(self, rng):
        """Tiny activations hit the FP16 subnormal decompose path."""
        w = rng.standard_normal((2, 32))
        x = (rng.standard_normal((2, 32)) * 1e-7).astype(np.float16)
        gemm = FunctionalGemm(QuantConfig(dtype="int6_sym", group_size=32))
        _assert_same_execution(gemm.run_scalar(x, w), gemm.run(x, w))

    def test_extreme_magnitude_mix_bit_identical(self, rng):
        """Max-magnitude and subnormal activations in one group force
        the widest exponent alignments (exact-arithmetic fallback)."""
        w = rng.standard_normal((2, 32)) * 100
        x = rng.standard_normal((2, 32)).astype(np.float16)
        x[0, ::2] = np.float16(60000.0)
        x[0, 1::2] = np.float16(6e-8)
        x[1, :16] = np.float16(-60000.0)
        gemm = FunctionalGemm(QuantConfig(dtype="int8_sym", group_size=32))
        _assert_same_execution(gemm.run_scalar(x, w), gemm.run(x, w))
