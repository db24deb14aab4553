"""The ``numpy`` backend: the vectorized integer-exact engine.

The packed tensor is decoded once into dense term arrays
(:func:`repro.hw.termtable.decode_packed_terms`, memoized in the
bounded :mod:`repro.kernels.cache`) and the whole ``(M, K)`` output
tile advances through :meth:`repro.hw.pe.BitMoDPE.group_dot_batch`
one group column at a time — exact int64 (or arbitrary-precision
object-array) accumulator arithmetic, so it executes *any*
:class:`~repro.hw.pe.PEConfig` width bit-faithfully.  That generality
is why it is the universal fallback the faster, width-specialized
backends defer to.
"""

from __future__ import annotations

import numpy as np

from repro.hw.pe import BitMoDPE
from repro.hw.termtable import decode_packed_terms
from repro.kernels.base import GemmExecution, GemmTask, KernelBackend, register_backend

__all__ = ["VectorizedBackend"]


@register_backend
class VectorizedBackend(KernelBackend):
    """Batched group-dot execution over dense decoded term arrays."""

    name = "numpy"

    def run(self, task: GemmTask) -> GemmExecution:
        packed = task.packed
        pe = BitMoDPE(task.pe_config)
        m, k, d, g, gpc, _pad = task.geometry()
        x = task.padded_x()

        sign, exp, man, bsig = decode_packed_terms(packed, task.dtype)
        shape = (k, gpc, g, -1)
        sign, exp, man, bsig = (
            a.reshape(shape) for a in (sign, exp, man, bsig)
        )
        sf_codes = task.sf_codes()
        chan_scales = task.channel_scales()

        out = np.zeros((m, k))
        pe_cycles = 0
        groups = 0
        for gc in range(gpc):
            acts = x[:, gc * g : (gc + 1) * g]
            partial = pe.group_dot_batch(
                sign[:, gc], exp[:, gc], man[:, gc], bsig[:, gc], acts
            )
            deq = pe.dequantize_batch(partial, sf_codes[None, :, gc])
            # Same float64 accumulation order as the scalar column
            # accumulator: one += per group column, ascending gc.
            out += deq.value * chan_scales[None, :]
            pe_cycles += m * k * partial.cycles  # dequant overlaps
            groups += m * k
        return GemmExecution(output=out, pe_cycles=pe_cycles, groups_processed=groups)
