"""Tests for weight packing and KV-cache quantization."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quant.config import QuantConfig, quantize_tensor
from repro.quant.kv import KVQuantConfig, quantize_kv
from repro.quant.packing import (
    PackedTensor,
    pack_bits,
    pack_tensor,
    unpack_bits,
    unpack_tensor,
)


class TestBitPacking:
    @given(
        bits=st.integers(1, 12),
        seed=st.integers(0, 2**16),
        count=st.integers(1, 500),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, bits, seed, count):
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 2**bits, size=count).astype(np.uint64)
        data = pack_bits(codes, bits)
        assert len(data) == (count * bits + 7) // 8
        np.testing.assert_array_equal(unpack_bits(data, bits, count), codes)

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            pack_bits(np.array([16]), 4)

    def test_density(self):
        """3-bit codes pack at exactly 3 bits each."""
        codes = np.arange(8, dtype=np.uint64).repeat(100)
        assert len(pack_bits(codes, 3)) == (800 * 3 + 7) // 8


class TestTensorPacking:
    @pytest.mark.parametrize(
        "dtype",
        ["int4_sym", "int4_asym", "int6_sym", "fp4", "fp3",
         "bitmod_fp4", "bitmod_fp3", "flint4", "ant3"],
    )
    def test_roundtrip_matches_quantize(self, dtype, rng):
        w = rng.standard_normal((8, 256))
        cfg = QuantConfig(dtype=dtype)
        packed = pack_tensor(w, cfg)
        recon = unpack_tensor(packed, cfg)
        ref = quantize_tensor(w, cfg).w_deq
        np.testing.assert_allclose(recon, ref, atol=1e-12)

    @pytest.mark.parametrize("dtype,bits", [("bitmod_fp3", 3), ("bitmod_fp4", 4)])
    def test_memory_overhead_close_to_model(self, dtype, bits, rng):
        """Packed size tracks the datatype's memory model (paper's
        '10 extra bits per group' claim)."""
        w = rng.standard_normal((16, 1024))
        cfg = QuantConfig(dtype=dtype)
        packed = pack_tensor(w, cfg)
        # element bits + SF byte + 2-bit selector; second-level factors
        # amortize over channels.
        assert packed.bits_per_weight == pytest.approx(bits + 10 / 128, abs=0.05)

    def test_bitmod_stores_selectors(self, rng):
        w = rng.standard_normal((4, 256))
        packed = pack_tensor(w, QuantConfig(dtype="bitmod_fp4"))
        assert packed.sv_selectors is not None
        assert packed.sv_selectors.max() <= 3

    def test_asym_stores_zeros(self, rng):
        w = rng.standard_normal((4, 256))
        packed = pack_tensor(w, QuantConfig(dtype="int4_asym"))
        assert packed.zeros is not None

    def test_unsupported_dtype(self, rng):
        w = rng.standard_normal((4, 64))
        with pytest.raises(TypeError):
            pack_tensor(w, QuantConfig(dtype="olive4"))

    def test_padding_roundtrip(self, rng):
        w = rng.standard_normal((4, 200))
        cfg = QuantConfig(dtype="fp4")
        recon = unpack_tensor(pack_tensor(w, cfg), cfg)
        np.testing.assert_allclose(recon, quantize_tensor(w, cfg).w_deq, atol=1e-12)

    def test_groups_per_channel_stated(self, rng):
        """Every container states its row layout: a 100-wide row in
        32-wide groups is 4 groups (the last one padded), and a
        container built without the field is refused, never inferred."""
        packed = pack_tensor(
            rng.standard_normal((5, 100)), QuantConfig(dtype="int4_sym", group_size=32)
        )
        assert packed.groups_per_channel == 4
        assert packed.sf_codes.size == 5 * 4
        assert packed.channel_scales.size == 5
        fields = {
            f.name: getattr(packed, f.name)
            for f in dataclasses.fields(packed)
            if f.name != "groups_per_channel"
        }
        with pytest.raises(TypeError, match="groups_per_channel"):
            PackedTensor(**fields)


class TestKVQuant:
    def test_int8_small_error(self, rng):
        kv = rng.standard_normal((1, 4, 16, 32))
        deq = quantize_kv(kv, KVQuantConfig(bits=8))
        assert np.max(np.abs(deq - kv)) < 0.05 * np.max(np.abs(kv))

    def test_error_grows_at_4bit(self, rng):
        kv = rng.standard_normal((1, 4, 16, 32))
        e8 = np.mean((quantize_kv(kv, KVQuantConfig(bits=8)) - kv) ** 2)
        e4 = np.mean((quantize_kv(kv, KVQuantConfig(bits=4)) - kv) ** 2)
        assert e4 > 10 * e8

    @pytest.mark.parametrize("bits", [8, 4])
    def test_segment_invariant(self, rng, bits):
        """Each (head, position) is quantized on its own, so quantizing
        a concatenation equals concatenating the quantized parts —
        wherever a prompt is split, and however heads are sharded."""
        kv = rng.standard_normal((1, 4, 16, 32))
        kv[:, 0] *= 10.0  # one loud head
        kv[:, :, 5] *= 100.0  # one loud position
        cfg = KVQuantConfig(bits=bits)
        whole = quantize_kv(kv, cfg)
        for cuts in ([1], [5, 6], [3, 11, 15], list(range(1, 16))):
            parts = np.split(kv, cuts, axis=2)
            np.testing.assert_array_equal(
                whole, np.concatenate([quantize_kv(p, cfg) for p in parts], axis=2)
            )
        heads = np.split(kv, [1, 3], axis=1)
        np.testing.assert_array_equal(
            whole, np.concatenate([quantize_kv(h, cfg) for h in heads], axis=1)
        )

    @pytest.mark.parametrize("bits", [0, -1, 17, 4.0, "8", True, None])
    def test_bits_validated(self, bits):
        with pytest.raises(ValueError, match=repr(bits).replace(".", r"\.")):
            KVQuantConfig(bits=bits)

    @pytest.mark.parametrize("bits", [1, 16, np.int64(8)])
    def test_bits_range_accepted(self, bits):
        kv = np.arange(16.0).reshape(1, 1, 2, 8)
        deq = quantize_kv(kv, KVQuantConfig(bits=bits))
        assert np.all(np.isfinite(deq))

    def test_constant_tensor(self):
        kv = np.full((1, 2, 4, 8), 3.0)
        np.testing.assert_allclose(quantize_kv(kv), kv)

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            quantize_kv(rng.standard_normal((4, 16)))
