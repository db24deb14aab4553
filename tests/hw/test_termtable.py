"""Tests for the precomputed bit-serial term tables."""

import numpy as np
import pytest

from repro.dtypes.extended import make_extended_float
from repro.dtypes.registry import get_dtype
from repro.hw.bitserial import booth_encode, fixed_point_decompose
from repro.hw.termtable import (
    decode_packed_terms,
    grid_term_table,
    integer_term_table,
    term_tables_for_dtype,
)
from repro.quant.config import QuantConfig
from repro.quant.packing import pack_tensor, unpack_bits


class TestIntegerTable:
    @pytest.mark.parametrize("bits", [4, 5, 6, 8])
    def test_matches_scalar_booth(self, bits):
        table = integer_term_table(bits)
        qmax = 2 ** (bits - 1) - 1
        assert table.n_codes == 2 * qmax + 1
        for code in range(table.n_codes):
            terms = booth_encode(code - qmax, bits)
            assert len(terms) == table.n_terms
            for t_idx, t in enumerate(terms):
                assert table.sign[code, t_idx] == t.sign
                assert table.exp[code, t_idx] == t.exp
                assert table.man[code, t_idx] == t.man
                assert table.bsig[code, t_idx] == t.bsig

    def test_rows_reconstruct_values(self):
        table = integer_term_table(6)
        np.testing.assert_array_equal(
            table.term_values().sum(axis=1), table.values
        )

    def test_tables_are_memoized(self):
        assert integer_term_table(8) is integer_term_table(8)

    def test_arrays_read_only(self):
        table = integer_term_table(4)
        with pytest.raises(ValueError):
            table.sign[0, 0] = 1


class TestGridTable:
    @pytest.mark.parametrize("sv", [-8.0, -5.0, 3.0, 6.0, 7.0])
    def test_matches_scalar_lod(self, sv):
        grid = make_extended_float(4, sv).grid
        table = grid_term_table(grid)
        for code, value in enumerate(grid):
            terms = fixed_point_decompose(float(value))
            for t_idx, t in enumerate(terms):
                assert table.sign[code, t_idx] == t.sign
                assert table.man[code, t_idx] == t.man
                assert table.bsig[code, t_idx] == t.bsig

    def test_rows_reconstruct_values(self):
        grid = make_extended_float(3, 6.0).grid
        table = grid_term_table(grid)
        np.testing.assert_array_equal(table.term_values().sum(axis=1), grid)

    def test_undecomposable_grid_rejected(self):
        # 5.5 needs three power-of-two terms: same error as the scalar codec.
        with pytest.raises(ValueError):
            grid_term_table(np.array([0.0, 5.5]))

    def test_lookup_shape(self):
        table = grid_term_table(make_extended_float(4, 5.0).grid)
        sign, exp, man, bsig = table.lookup(np.zeros((3, 8), dtype=np.int64))
        assert sign.shape == (3, 8, table.n_terms)


class TestTablesForDtype:
    def test_bitmod_has_one_table_per_sv(self):
        dtype = get_dtype("bitmod_fp4")
        tables = term_tables_for_dtype(dtype)
        assert len(tables) == len(dtype.special_values)

    def test_asymmetric_integer_rejected(self):
        with pytest.raises(TypeError, match="zero-point"):
            term_tables_for_dtype(get_dtype("int4_asym"))

    def test_symmetric_integer_single_table(self):
        (table,) = term_tables_for_dtype(get_dtype("int6_sym"))
        assert table.n_terms == 3


class TestDecodePackedTerms:
    def test_reconstructs_code_values(self, rng):
        """Term arrays must sum back to the decoded code-space values."""
        w = rng.standard_normal((4, 256))
        cfg = QuantConfig(dtype="bitmod_fp4")
        packed = pack_tensor(w, cfg)
        sign, exp, man, bsig = decode_packed_terms(packed, cfg.resolve_dtype())
        values = ((-1.0) ** sign) * (2.0 ** exp) * man * (2.0 ** bsig)
        recon = values.sum(axis=-1)

        dtype = cfg.resolve_dtype()
        n_groups = packed.sf_codes.size
        codes = unpack_bits(
            packed.element_data, packed.bits, n_groups * packed.group_size
        ).reshape(n_groups, packed.group_size)
        for gi in range(n_groups):
            grid = make_extended_float(
                dtype.bits, dtype.special_values[int(packed.sv_selectors[gi])]
            ).grid
            np.testing.assert_array_equal(recon[gi], grid[codes[gi].astype(int)])

    def test_cached_on_packed_tensor(self, rng):
        w = rng.standard_normal((2, 128))
        cfg = QuantConfig(dtype="int6_sym")
        packed = pack_tensor(w, cfg)
        first = decode_packed_terms(packed, cfg.resolve_dtype())
        second = decode_packed_terms(packed, cfg.resolve_dtype())
        assert all(a is b for a, b in zip(first, second))

    def test_cache_not_aliased_across_same_named_dtypes(self, rng):
        """Two dtypes sharing a name but differing in special values
        must not serve each other's cached decode."""
        from repro.dtypes.extended import BitMoDType

        w = rng.standard_normal((2, 128))
        dt_a = BitMoDType(bits=4, special_values=(-5.0, 5.0), name="same")
        dt_b = BitMoDType(bits=4, special_values=(-8.0, 8.0), name="same")
        packed = pack_tensor(w, QuantConfig(dtype=dt_a))
        terms_a = decode_packed_terms(packed, dt_a)
        terms_b = decode_packed_terms(packed, dt_b)
        assert not any(a is b for a, b in zip(terms_a, terms_b))

    def test_out_of_range_selector_rejected(self, rng):
        """A selector naming no special-value table is a corrupt image:
        the one stacked gather indexes past the tables and raises."""
        import dataclasses

        cfg = QuantConfig(dtype="bitmod_fp4")
        packed = pack_tensor(rng.standard_normal((2, 128)), cfg)
        dtype = cfg.resolve_dtype()
        sel = np.array(packed.sv_selectors, copy=True)
        sel.reshape(-1)[0] = len(dtype.special_values)
        with pytest.raises(IndexError):
            decode_packed_terms(dataclasses.replace(packed, sv_selectors=sel), dtype)
