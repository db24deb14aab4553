"""The scalar reference backend: one PE call per (row, col, group).

This is the original per-scalar engine of
:class:`repro.hw.functional.FunctionalGemm` — the Fig. 6 datapath one
value at a time, decoding each group's codes through the scalar
codecs of :mod:`repro.hw.bitserial`.  It is deliberately slow and
deliberately untouched by the faster backends' layout tricks: it is
the ground truth every other backend's bit-identity is tested
against.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.dtypes.base import GridDataType
from repro.dtypes.extended import BitMoDType, make_extended_float
from repro.dtypes.integer import IntegerType
from repro.hw.bitserial import BitSerialTerm, booth_encode, fixed_point_decompose
from repro.hw.pe import BitMoDPE
from repro.hw.termtable import ASYMMETRIC_REJECT_MSG
from repro.kernels.base import GemmExecution, GemmTask, KernelBackend, register_backend

__all__ = ["ReferenceBackend", "decode_group_terms"]


def decode_group_terms(packed, dtype, group_idx: int) -> List[List[BitSerialTerm]]:
    """Decode one group's element codes into bit-serial terms."""
    from repro.quant.packing import unpack_bits

    g = packed.group_size
    codes = unpack_bits(
        packed.element_data, packed.bits, (group_idx + 1) * g
    )[group_idx * g:]
    if isinstance(dtype, IntegerType):
        if dtype.asymmetric:
            raise TypeError(ASYMMETRIC_REJECT_MSG)
        offset = dtype.qmax_symmetric
        return [booth_encode(int(c) - offset, dtype.bits) for c in codes]
    if isinstance(dtype, BitMoDType):
        sv = dtype.special_values[int(packed.sv_selectors[group_idx])]
        grid = make_extended_float(dtype.bits, sv).grid
        return [fixed_point_decompose(float(grid[int(c)])) for c in codes]
    if isinstance(dtype, GridDataType):
        grid = dtype.grid
        return [fixed_point_decompose(float(grid[int(c)])) for c in codes]
    raise TypeError(f"unsupported datatype {dtype!r}")


@register_backend
class ReferenceBackend(KernelBackend):
    """The scalar ground-truth engine (never picked by default)."""

    name = "reference"

    def supports(self, task: GemmTask) -> Optional[str]:
        if task.packed.zeros is not None:
            return "the bit-serial PE does not execute zero-point containers"
        return None

    def run(self, task: GemmTask) -> GemmExecution:
        packed = task.packed
        pe = BitMoDPE(task.pe_config)
        x = task.padded_x()
        m, k, _, g, groups_per_channel, _ = task.geometry()

        out = np.zeros((m, k))
        pe_cycles = 0
        groups = 0
        for row in range(k):
            for mi in range(m):
                acc = 0.0  # column accumulator (FP16-precision output)
                for gc in range(groups_per_channel):
                    gidx = row * groups_per_channel + gc
                    terms = decode_group_terms(packed, task.dtype, gidx)
                    acts = x[mi, gc * g: (gc + 1) * g]
                    partial = pe.group_dot(terms, acts)
                    sf_code = int(packed.sf_codes[gidx])
                    if packed.zeros is None:
                        deq = pe.dequantize(partial, sf_code)
                        acc += deq.value * float(packed.channel_scales[row])
                        pe_cycles += partial.cycles  # dequant overlaps
                    groups += 1
                out[mi, row] = acc
        return GemmExecution(output=out, pe_cycles=pe_cycles, groups_processed=groups)
