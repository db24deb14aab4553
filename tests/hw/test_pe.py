"""Tests for the bit-accurate BitMoD PE (Fig. 5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtypes.floating import FP4_VALUES
from repro.hw.bitserial import booth_encode, fixed_point_decompose
from repro.hw.pe import BitMoDPE, PEConfig, _rshift_rne


class TestRoundToNearestEven:
    def test_exact_shift(self):
        assert _rshift_rne(8, 2) == 2

    def test_round_up(self):
        assert _rshift_rne(7, 2) == 2  # 1.75 -> 2

    def test_ties_to_even(self):
        assert _rshift_rne(6, 2) == 2  # 1.5 -> 2 (even)
        assert _rshift_rne(10, 2) == 2  # 2.5 -> 2 (even)

    def test_negative_values(self):
        assert _rshift_rne(-7, 2) == -2

    def test_left_shift_passthrough(self):
        assert _rshift_rne(3, -2) == 12


def _reference(codes, acts):
    return float(np.dot(codes, np.asarray(acts, dtype=np.float64)))


class TestGroupDot:
    @pytest.mark.parametrize("bits", [5, 6, 8])
    def test_int_weights_match_reference(self, bits, rng):
        pe = BitMoDPE()
        codes = rng.integers(-(2 ** (bits - 1) - 1), 2 ** (bits - 1), size=64)
        acts = rng.standard_normal(64).astype(np.float16)
        terms = [booth_encode(int(c), bits) for c in codes]
        res = pe.group_dot(terms, acts)
        ref = _reference(codes, acts)
        assert res.value == pytest.approx(ref, rel=1e-3, abs=1e-3)

    def test_fp4_weights_match_reference(self, rng):
        pe = BitMoDPE()
        grid = np.concatenate([FP4_VALUES, [8.0, -8.0, 5.0, -5.0]])
        codes = rng.choice(grid, size=128)
        acts = rng.standard_normal(128).astype(np.float16)
        terms = [fixed_point_decompose(float(c)) for c in codes]
        res = pe.group_dot(terms, acts)
        assert res.value == pytest.approx(_reference(codes, acts), rel=1e-3, abs=1e-3)

    def test_cycle_counts(self, rng):
        """Group of 128: (128/4) * terms cycles — Section IV-B."""
        pe = BitMoDPE()
        acts = rng.standard_normal(128).astype(np.float16)
        fp_terms = [fixed_point_decompose(1.0)] * 128
        assert pe.group_dot(fp_terms, acts).cycles == 64
        int8_terms = [booth_encode(3, 8)] * 128
        assert pe.group_dot(int8_terms, acts).cycles == 128

    def test_int6_group_cycles(self, rng):
        """6-bit Booth (3 terms) over 128 lanes: 96 cycles."""
        pe = BitMoDPE()
        codes = rng.integers(-31, 32, size=128)
        acts = rng.standard_normal(128).astype(np.float16)
        terms = [booth_encode(int(c), 6) for c in codes]
        assert pe.group_dot(terms, acts).cycles == 96

    def test_zero_weights_give_zero(self, rng):
        pe = BitMoDPE()
        acts = rng.standard_normal(8).astype(np.float16)
        terms = [fixed_point_decompose(0.0)] * 8
        assert pe.group_dot(terms, acts).value == 0.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_randomized_int6_accuracy(self, seed):
        rng = np.random.default_rng(seed)
        pe = BitMoDPE()
        codes = rng.integers(-31, 32, size=16)
        acts = (rng.standard_normal(16) * 4).astype(np.float16)
        terms = [booth_encode(int(c), 6) for c in codes]
        res = pe.group_dot(terms, acts)
        ref = _reference(codes, acts)
        assert res.value == pytest.approx(ref, rel=1e-2, abs=1e-2)

    def test_group_not_multiple_of_lanes_rejected(self, rng):
        pe = BitMoDPE()
        with pytest.raises(ValueError):
            pe.group_dot([booth_encode(1, 6)] * 6, np.ones(6))

    def test_wrong_lane_count_rejected(self):
        pe = BitMoDPE()
        with pytest.raises(ValueError):
            pe.dot4([booth_encode(1, 6)[0]] * 3, np.ones(3))


class TestBatchedDatapath:
    """group_dot_batch / dequantize_batch vs the scalar methods."""

    @staticmethod
    def _term_arrays(term_lists):
        """Stack scalar decompositions into (1, g, n_terms) arrays."""
        sign = np.array([[t.sign for t in ts] for ts in term_lists])[None]
        exp = np.array([[t.exp for t in ts] for ts in term_lists])[None]
        man = np.array([[t.man for t in ts] for ts in term_lists])[None]
        bsig = np.array([[t.bsig for t in ts] for ts in term_lists])[None]
        return sign, exp, man, bsig

    @pytest.mark.parametrize("bits", [5, 6, 8])
    def test_group_dot_batch_bit_identical(self, bits, rng):
        pe = BitMoDPE()
        codes = rng.integers(-(2 ** (bits - 1) - 1), 2 ** (bits - 1), size=64)
        acts = rng.standard_normal(64).astype(np.float16)
        terms = [booth_encode(int(c), bits) for c in codes]
        scalar = pe.group_dot(terms, acts)
        batch = pe.group_dot_batch(*self._term_arrays(terms), acts[None, :])
        assert int(batch.mantissa[0, 0]) == scalar.mantissa
        assert int(batch.exponent[0, 0]) == scalar.exponent
        assert batch.cycles == scalar.cycles

    def test_group_dot_batch_fp_weights(self, rng):
        pe = BitMoDPE()
        grid = np.concatenate([FP4_VALUES, [8.0, -8.0]])
        codes = rng.choice(grid, size=32)
        acts = rng.standard_normal(32).astype(np.float16)
        terms = [fixed_point_decompose(float(c)) for c in codes]
        scalar = pe.group_dot(terms, acts)
        batch = pe.group_dot_batch(*self._term_arrays(terms), acts[None, :])
        assert int(batch.mantissa[0, 0]) == scalar.mantissa
        assert int(batch.exponent[0, 0]) == scalar.exponent

    def test_int6_tile_cycles(self, rng):
        """An (8, 64) tile of 6-bit group dots: 96 cycles per call."""
        from repro.hw.termtable import integer_term_table

        pe = BitMoDPE()
        table = integer_term_table(6)
        codes = rng.integers(0, table.n_codes, size=(64, 128))
        sign, exp, man, bsig = table.lookup(codes)
        acts = rng.standard_normal((8, 128)).astype(np.float16)
        res = pe.group_dot_batch(sign, exp, man, bsig, acts)
        assert res.cycles == 96
        assert res.mantissa.shape == (8, 64)

    def test_dequantize_batch_bit_identical(self, rng):
        from repro.hw.pe import BatchPEResult

        pe = BitMoDPE()
        acts = rng.standard_normal(32).astype(np.float16)
        terms = [booth_encode(int(c), 6) for c in rng.integers(-31, 32, size=32)]
        partial = pe.group_dot(terms, acts)
        sf_codes = np.array([0, 1, 17, 128, 255])
        batch_partial = BatchPEResult(
            mantissa=np.full(sf_codes.shape, partial.mantissa, dtype=np.int64),
            exponent=np.full(sf_codes.shape, partial.exponent, dtype=np.int64),
            cycles=partial.cycles,
        )
        deq = pe.dequantize_batch(batch_partial, sf_codes)
        assert deq.cycles == pe.config.sf_bits
        for i, sf in enumerate(sf_codes):
            ref = pe.dequantize(partial, int(sf))
            assert int(deq.mantissa[i]) == ref.mantissa
            assert int(deq.exponent[i]) == ref.exponent

    def test_group_not_multiple_of_lanes_rejected(self, rng):
        pe = BitMoDPE()
        terms = [booth_encode(1, 6)] * 6
        with pytest.raises(ValueError):
            pe.group_dot_batch(*self._term_arrays(terms), np.ones((1, 6)))

    def test_sf_out_of_range_rejected(self, rng):
        from repro.hw.pe import BatchPEResult

        pe = BitMoDPE()
        partial = BatchPEResult(
            mantissa=np.ones((1, 1), dtype=np.int64),
            exponent=np.zeros((1, 1), dtype=np.int64),
            cycles=1,
        )
        with pytest.raises(ValueError):
            pe.dequantize_batch(partial, np.array([256]))


class TestDequantize:
    def test_matches_integer_multiply(self, rng):
        pe = BitMoDPE()
        acts = rng.standard_normal(32).astype(np.float16)
        codes = rng.integers(-31, 32, size=32)
        terms = [booth_encode(int(c), 6) for c in codes]
        partial = pe.group_dot(terms, acts)
        for sf in (1, 17, 128, 255):
            dq = pe.dequantize(partial, sf)
            assert dq.value == pytest.approx(partial.value * sf, rel=1e-3)

    def test_takes_sf_bits_cycles(self, rng):
        pe = BitMoDPE()
        acts = rng.standard_normal(8).astype(np.float16)
        terms = [booth_encode(3, 6)] * 8
        partial = pe.group_dot(terms, acts)
        assert pe.dequantize(partial, 200).cycles == 8

    def test_zero_sf(self, rng):
        pe = BitMoDPE()
        acts = rng.standard_normal(8).astype(np.float16)
        partial = pe.group_dot([booth_encode(5, 6)] * 8, acts)
        assert pe.dequantize(partial, 0).value == 0.0

    def test_sf_out_of_range(self, rng):
        pe = BitMoDPE()
        acts = rng.standard_normal(8).astype(np.float16)
        partial = pe.group_dot([booth_encode(1, 6)] * 8, acts)
        with pytest.raises(ValueError):
            pe.dequantize(partial, 256)

    def test_accumulate_batch_exact_fallback_matches_scalar(self):
        """Alignment shifts past 62 bits must fall back to exact
        Python-int arithmetic and still match ``_accumulate``."""
        pe = BitMoDPE(PEConfig(acc_mantissa_bits=58))
        acc_man = np.array([[(1 << 57) + 12345, 3]], dtype=np.int64)
        acc_exp = np.array([[20, 0]], dtype=np.int64)
        man = np.array([[-7, 5]], dtype=np.int64)
        exp = np.array([[-20, -1]], dtype=np.int64)
        got_man, got_exp = pe._accumulate_batch(acc_man, acc_exp, man, exp)
        assert got_man.dtype == np.int64
        for i in range(2):
            ref = pe._accumulate(
                (int(acc_man[0, i]), int(acc_exp[0, i])),
                int(man[0, i]),
                int(exp[0, i]),
            )
            assert (int(got_man[0, i]), int(got_exp[0, i])) == ref

    def test_narrow_accumulator_still_close(self, rng):
        """A 16-bit accumulator loses precision but stays in the
        ballpark — the width trade-off Fig. 5 resolves at 24 bits."""
        pe = BitMoDPE(PEConfig(acc_mantissa_bits=16))
        codes = rng.integers(-31, 32, size=64)
        acts = rng.standard_normal(64).astype(np.float16)
        terms = [booth_encode(int(c), 6) for c in codes]
        res = pe.group_dot(terms, acts)
        ref = _reference(codes, acts)
        assert res.value == pytest.approx(ref, rel=0.05, abs=0.5)
