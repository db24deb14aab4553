"""Tests for the top-level quantize_tensor dispatch."""

import numpy as np
import pytest

from repro.dtypes.registry import get_dtype, list_dtypes
from repro.quant.config import QuantConfig, quantize_tensor
from repro.quant.errors import mse, nmse


_ALL_DTYPES = [
    "int4_sym", "int4_asym", "fp4", "fp3", "flint4", "ant4",
    "bitmod_fp4", "bitmod_fp3", "olive4", "mx_fp4", "int6_sym",
]


class TestDispatch:
    @pytest.mark.parametrize("dtype", _ALL_DTYPES)
    def test_every_dtype_quantizes(self, weights, dtype):
        r = quantize_tensor(weights, QuantConfig(dtype=dtype))
        assert r.w_deq.shape == weights.shape
        assert np.isfinite(r.w_deq).all()
        assert r.mse < np.mean(weights**2)  # better than zeroing

    def test_dtype_instance_accepted(self, weights):
        dt = get_dtype("fp4")
        r = quantize_tensor(weights, QuantConfig(dtype=dt))
        assert r.dtype is dt

    @pytest.mark.parametrize("gran", ["tensor", "channel", "group"])
    def test_granularities(self, weights, gran):
        r = quantize_tensor(weights, QuantConfig(dtype="int4_sym", granularity=gran))
        assert r.layout.granularity == gran

    def test_finer_granularity_lower_error(self, heavy_weights):
        errs = {}
        for gran in ("tensor", "channel", "group"):
            cfg = QuantConfig(dtype="int4_sym", granularity=gran, group_size=32)
            errs[gran] = quantize_tensor(heavy_weights, cfg).mse
        assert errs["group"] < errs["channel"] < errs["tensor"]

    def test_mx_overrides_group_size(self, weights):
        r = quantize_tensor(weights, QuantConfig(dtype="mx_fp4", group_size=128))
        assert r.layout.group_size == 32

    def test_scale_bits_none_keeps_fp_scales(self, weights):
        hi = quantize_tensor(weights, QuantConfig(dtype="fp4", scale_bits=None))
        lo = quantize_tensor(weights, QuantConfig(dtype="fp4", scale_bits=2))
        assert lo.mse > hi.mse

    def test_int8_scale_bits_near_lossless(self, weights):
        fp = quantize_tensor(weights, QuantConfig(dtype="fp4", scale_bits=None))
        i8 = quantize_tensor(weights, QuantConfig(dtype="fp4", scale_bits=8))
        assert i8.mse == pytest.approx(fp.mse, rel=0.02)

    def test_bitmod_records_special_values(self, weights):
        r = quantize_tensor(weights, QuantConfig(dtype="bitmod_fp3"))
        assert r.special_values is not None
        assert set(np.unique(r.special_values)) <= {-6.0, -3.0, 3.0, 6.0}

    def test_memory_bits(self, weights):
        r = quantize_tensor(weights, QuantConfig(dtype="bitmod_fp4"))
        assert r.bits_per_weight == pytest.approx(4 + 10 / 128)
        assert r.memory_bits == pytest.approx(weights.size * (4 + 10 / 128))

    def test_clip_ratio_flows_through(self, heavy_weights):
        full = quantize_tensor(heavy_weights, QuantConfig(dtype="int3_asym"))
        clip = quantize_tensor(
            heavy_weights, QuantConfig(dtype="int3_asym", clip_ratio=0.8)
        )
        assert clip.mse != pytest.approx(full.mse)

    def test_with_helper(self):
        cfg = QuantConfig(dtype="fp4")
        cfg2 = cfg.with_(clip_ratio=0.9)
        assert cfg.clip_ratio == 1.0 and cfg2.clip_ratio == 0.9
        assert cfg2.dtype == "fp4"


class TestInvariants:
    """Properties every datatype keeps on a multi-group matrix: rows
    (output channels) quantize independently, and the result commutes
    with negation and with power-of-two rescaling."""

    @pytest.fixture
    def wide(self, rng):
        return rng.standard_normal((32, 1024))

    @pytest.mark.parametrize("dtype", _ALL_DTYPES)
    def test_rows_quantize_independently(self, wide, dtype):
        cfg = QuantConfig(dtype=dtype)
        full = quantize_tensor(wide, cfg).w_deq
        part = quantize_tensor(wide[8:16], cfg).w_deq
        np.testing.assert_array_equal(part, full[8:16])

    @pytest.mark.parametrize("dtype", _ALL_DTYPES)
    def test_commutes_with_negation(self, wide, dtype):
        cfg = QuantConfig(dtype=dtype)
        np.testing.assert_array_equal(
            quantize_tensor(-wide, cfg).w_deq, -quantize_tensor(wide, cfg).w_deq
        )

    @pytest.mark.parametrize("dtype", _ALL_DTYPES)
    def test_commutes_with_power_of_two_scale(self, wide, dtype):
        cfg = QuantConfig(dtype=dtype)
        ref = quantize_tensor(wide, cfg).w_deq
        for k in (-3, 1, 5):
            np.testing.assert_array_equal(
                quantize_tensor(wide * 2.0**k, cfg).w_deq, ref * 2.0**k
            )


class TestValidation:
    """QuantConfig.__post_init__ rejects malformed configurations."""

    def test_unknown_granularity(self):
        with pytest.raises(ValueError, match="granularity must be one of"):
            QuantConfig(granularity="per-channel")

    def test_valid_granularities_accepted(self):
        for g in ("tensor", "channel", "group"):
            assert QuantConfig(granularity=g).granularity == g

    def test_group_size_must_be_positive_int(self):
        with pytest.raises(ValueError, match="group_size must be a positive"):
            QuantConfig(group_size=0)
        with pytest.raises(ValueError, match="group_size must be a positive"):
            QuantConfig(group_size=-128)
        with pytest.raises(ValueError, match="group_size must be a positive"):
            QuantConfig(group_size=128.0)

    def test_clip_ratio_bounds(self):
        with pytest.raises(ValueError, match=r"clip_ratio must lie in \(0, 1\]"):
            QuantConfig(clip_ratio=0.0)
        with pytest.raises(ValueError, match=r"clip_ratio must lie in \(0, 1\]"):
            QuantConfig(clip_ratio=1.2)
        assert QuantConfig(clip_ratio=0.7).clip_ratio == 0.7

    def test_with_helper_revalidates(self):
        with pytest.raises(ValueError, match="granularity"):
            QuantConfig().with_(granularity="rows")


class TestErrorMetrics:
    def test_mse_zero_for_identical(self, weights):
        assert mse(weights, weights) == 0.0

    def test_nmse_scale_invariant(self, weights, rng):
        noisy = weights + 0.01 * rng.standard_normal(weights.shape)
        assert nmse(weights, noisy) == pytest.approx(
            nmse(weights * 7, noisy * 7)
        )

    def test_bitmod_beats_int_asym_on_heavy_tails(self, heavy_weights):
        bm = quantize_tensor(heavy_weights, QuantConfig(dtype="bitmod_fp3")).mse
        ia = quantize_tensor(heavy_weights, QuantConfig(dtype="int3_asym")).mse
        assert bm < ia
