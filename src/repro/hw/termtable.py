"""Precomputed bit-serial term tables (the vectorized term generator).

The scalar codecs of :mod:`repro.hw.bitserial` decompose one value per
call, which made the bit-accurate GEMM an M*K*G triple loop of Python
calls.  This module precomputes the decomposition of an *entire code
space* once per datatype — every storage code of an integer, BitMoD or
grid datatype mapped to its ``(sign, exp, man, bsig)`` term fields as
dense ``(n_codes, n_terms)`` int64 arrays — so decoding a packed
tensor becomes a single fancy-indexing gather and the PE can process
whole GEMM tiles as array arithmetic.

Tables are built *from* the scalar codecs (single source of truth for
the paper's Fig. 4 encodings) and memoized per datatype key:

* integers      -> one table per bit width (offset-binary code space)
* grid dtypes   -> one table per level grid
* BitMoD        -> one table per (bits, special value) candidate grid

:func:`decode_packed_terms` turns a :class:`~repro.quant.packing.
PackedTensor` into per-group term arrays, reading the tensor's
word-packed element stream (``PackedTensor.word_image()``, several
codes per 64-bit word) and memoizing the decoded arrays in the
bounded kernel decode cache (:mod:`repro.kernels.cache`,
``$REPRO_KERNEL_CACHE_MB``) so serving-path replays decode each
weight image exactly once — without unbounded growth when many large
layers are replayed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from repro.dtypes.base import GridDataType
from repro.dtypes.extended import BitMoDType, make_extended_float
from repro.dtypes.integer import IntegerType
from repro.hw.bitserial import booth_encode, fixed_point_decompose

__all__ = [
    "TermTable",
    "ASYMMETRIC_REJECT_MSG",
    "integer_term_table",
    "grid_term_table",
    "term_tables_for_dtype",
    "decode_packed_terms",
]

#: Why asymmetric integers cannot execute on the bit-serial PE (shared
#: by every entry point that rejects them).
ASYMMETRIC_REJECT_MSG = (
    "the bit-serial PE executes symmetric integer or extended-FP "
    "weights (asymmetric integers carry a zero-point the paper's PE "
    "does not implement)"
)

@dataclass(frozen=True)
class TermTable:
    """Bit-serial decomposition of one datatype's full code space.

    ``sign``, ``exp``, ``man``, ``bsig`` are ``(n_codes, n_terms)``
    int8 arrays (the PE promotes them to int64 on use); row ``c``
    holds the terms of storage code ``c``.  ``values`` is the decoded
    value per code (for reference/tests).
    """

    sign: np.ndarray
    exp: np.ndarray
    man: np.ndarray
    bsig: np.ndarray
    values: np.ndarray

    @property
    def n_codes(self) -> int:
        return self.sign.shape[0]

    @property
    def n_terms(self) -> int:
        return self.sign.shape[1]

    def lookup(self, codes: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Gather term fields for an array of storage codes.

        Returns ``(sign, exp, man, bsig)``, each shaped
        ``codes.shape + (n_terms,)``.
        """
        idx = np.asarray(codes, dtype=np.int64)
        return self.sign[idx], self.exp[idx], self.man[idx], self.bsig[idx]

    def term_values(self) -> np.ndarray:
        """Per-term real values (reconstruction check: rows sum to
        ``values``)."""
        return (
            ((-1.0) ** self.sign)
            * (2.0 ** self.exp)
            * self.man
            * (2.0 ** self.bsig)
        )


def _table_from_lists(term_lists, values) -> TermTable:
    n_terms = len(term_lists[0])
    if any(len(t) != n_terms for t in term_lists):
        raise ValueError("all codes must decompose to the same term count")
    # int8 is ample for every field (sign/exp/man are bits, bsig is a
    # small shift) and keeps decoded whole-tensor term arrays 8x
    # leaner; the PE's int64 arithmetic promotes them on use.
    sign = np.array([[t.sign for t in ts] for ts in term_lists], dtype=np.int8)
    exp = np.array([[t.exp for t in ts] for ts in term_lists], dtype=np.int8)
    man = np.array([[t.man for t in ts] for ts in term_lists], dtype=np.int8)
    bsig = np.array([[t.bsig for t in ts] for ts in term_lists], dtype=np.int8)
    for arr in (sign, exp, man, bsig):
        arr.setflags(write=False)
    return TermTable(
        sign=sign, exp=exp, man=man, bsig=bsig,
        values=np.asarray(values, dtype=np.float64),
    )


@lru_cache(maxsize=None)
def integer_term_table(bits: int) -> TermTable:
    """Booth table over the offset-binary code space of a symmetric
    ``bits``-wide integer: code ``c`` represents ``c - qmax``."""
    qmax = 2 ** (bits - 1) - 1
    values = [c - qmax for c in range(2 * qmax + 1)]
    return _table_from_lists([booth_encode(v, bits) for v in values], values)


@lru_cache(maxsize=None)
def _grid_term_table_cached(grid_key: tuple) -> TermTable:
    return _table_from_lists(
        [fixed_point_decompose(v) for v in grid_key], grid_key
    )


def grid_term_table(grid: np.ndarray) -> TermTable:
    """LOD table over a sorted level grid: code ``c`` is grid index
    ``c``.  Raises ``ValueError`` (same as the scalar codec) when a
    level is not expressible in the PE's fixed-point term format."""
    return _grid_term_table_cached(tuple(float(v) for v in np.asarray(grid).reshape(-1)))


def term_tables_for_dtype(dtype) -> Tuple[TermTable, ...]:
    """Term table(s) executing ``dtype`` on the bit-serial PE.

    Integer and plain grid datatypes map to a single table; BitMoD
    families map to one table per special-value candidate, indexed by
    the packed tensor's per-group SV selector.
    """
    if isinstance(dtype, IntegerType):
        if dtype.asymmetric:
            raise TypeError(ASYMMETRIC_REJECT_MSG)
        return (integer_term_table(dtype.bits),)
    if isinstance(dtype, BitMoDType):
        return tuple(
            grid_term_table(make_extended_float(dtype.bits, sv).grid)
            for sv in dtype.special_values
        )
    if isinstance(dtype, GridDataType):
        return (grid_term_table(dtype.grid),)
    raise TypeError(f"unsupported datatype {dtype!r}")


def decode_packed_terms(packed, dtype) -> Tuple[np.ndarray, ...]:
    """Decode a whole packed tensor into per-group term arrays.

    Returns ``(sign, exp, man, bsig)`` int8 arrays of shape
    ``(n_groups, group_size, n_terms)``.  Codes are read from the
    tensor's word-packed image (multiple codes per 64-bit word,
    unpacked in one vectorized shift-and-mask) and gathered through
    the memoized term tables.  The decoded arrays are memoized in the
    bounded LRU :func:`~repro.kernels.cache.decode_cache` — keyed by
    the identity of the term tables, which reflects the actual grids
    rather than the datatype name, so two same-named dtypes with
    different special values cannot alias — and repeated GEMMs over
    one weight image (the serving case) decode it exactly once.
    Decodes larger than the cache budget (``$REPRO_KERNEL_CACHE_MB``)
    are returned uncached.
    """
    tables = term_tables_for_dtype(dtype)
    token = tuple(id(t) for t in tables)
    # Local import: the kernels cache depends only on repro.obs, but
    # importing it at module scope would cycle through repro.kernels'
    # backend registration, which imports this module.
    from repro.kernels.cache import decode_cache

    cache = decode_cache()
    cached = cache.get(packed, "terms", token)
    if cached is not None:
        return cached

    from repro.quant.packing import unpack_words  # local: avoid import cycle
    g = packed.group_size
    n_groups = packed.sf_codes.size
    codes = unpack_words(packed.word_image(), packed.bits, n_groups * g)
    rows = codes.astype(np.int64).reshape(n_groups, g)
    if isinstance(dtype, BitMoDType):
        # Every special-value table spans the full 2**bits code space, so
        # a group's selector offsets its codes into the stacked tables; an
        # out-of-range selector indexes past the stack and raises.
        sel = np.asarray(packed.sv_selectors, dtype=np.int64).reshape(-1, 1)
        rows += sel * tables[0].n_codes
    # One gather of whole rows: each code's four term fields form one
    # opaque record, which numpy copies far faster than int8 sub-rows.
    fields = np.stack(
        [np.concatenate([getattr(t, f) for t in tables]) for f in ("sign", "exp", "man", "bsig")],
        axis=1,
    )
    n_rows, _, n_terms = fields.shape
    records = fields.reshape(n_rows, -1).view(np.dtype((np.void, 4 * n_terms)))
    terms = records[:, 0][rows].view(np.int8).reshape(rows.shape + (4, n_terms))
    return cache.put(
        packed, "terms", token, tuple(np.ascontiguousarray(terms[..., i, :]) for i in range(4))
    )
