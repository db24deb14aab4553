"""The ``fused`` backend: the whole datapath as float32 array math.

The scalar PE accumulator (:meth:`repro.hw.pe.BitMoDPE._accumulate`)
aligns two fixed-point operands to a common exponent, adds exactly,
then renormalizes the mantissa to ``acc_mantissa_bits`` with
round-to-nearest-even.  For the default 24-bit width that procedure
*is* IEEE float32 addition: a float32 significand is exactly 24 bits
(hidden bit included) and hardware adds round to nearest even.  Two
facts make the replacement exact rather than approximate:

* every accumulated operand is exactly representable — a group step's
  aligned 4-lane total carries at most ``lanes * 2047 * 2**guard <
  2**24`` of magnitude, and the running accumulator is by construction
  a <=24-bit mantissa;
* every value stays in float32 *normal* range — step exponents are
  bounded by the FP16 activation exponent range plus small term
  shifts, far from both 2**127 and 2**-126.

So this backend runs the entire GEMM as fused numpy float32 tensor
ops — no int64 alignment loops, no per-step Python — and remains
bit-identical to the scalar reference:

1. per-lane alignment: ``rint(ldexp(a_man * t_man << guard, e -
   e_max))`` reproduces ``_rshift_rne`` exactly (the product is a
   <=14-bit integer, power-of-two scaling is exact, and ``np.rint``
   rounds half to even; signs fold into the mantissas because RNE is
   symmetric).  ``e_max`` is a lane-unrolled ``np.maximum`` over the
   ``lanes`` axis, exact because a max does not depend on order;
2. the per-step lane sum is a lane-unrolled float32 ``+=``: every
   partial sum is an integer below ``2**24`` (the bound above), so it
   is exact in any order.  The across-step accumulation is one
   ``np.add.reduce`` over a step-major copy of the step values:
   numpy reduces an outer axis one slice at a time, in order, so it
   performs exactly the scalar engine's float32 adds, step by step;
3. bit-serial dequantization is float32 adds of ``ldexp(partial, i)``
   over the set bits of the 8-bit scaling-factor code;
4. the per-channel float64 combine matches the scalar column
   accumulator (one ``+=`` per group column, ascending).

Per-tensor term layouts (transposed for contiguous lane access) are
prepared once and memoized in the bounded
:class:`~repro.kernels.cache.DecodeCache`.  PE configs the proof does
not cover (non-24-bit accumulators, wide guard/lane products) are
declined via :meth:`supports` and fall back to the ``numpy`` backend.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.dtypes.floating import fp16_decompose
from repro.hw.termtable import decode_packed_terms, term_tables_for_dtype
from repro.kernels.base import GemmExecution, GemmTask, KernelBackend, register_backend
from repro.kernels.cache import decode_cache

__all__ = ["FusedBackend"]

#: FP16 value = mantissa * 2**(exp - 25)  (see repro.dtypes.floating).
_FP16_EXP_OFFSET = 15 + 10

#: Largest FP16 mantissa including the hidden bit (11 bits).
_FP16_MAN_MAX = (1 << 11) - 1


def _prepare(task: GemmTask):
    """Per-tensor transposed term layout, memoized in the DecodeCache.

    Returns ``(te, tms)``: term exponents ``exp + bsig`` as int8 and
    sign-folded term mantissas as float32, both shaped
    ``(K, blocks, n_terms, lanes)`` with lanes contiguous.
    """
    packed = task.packed
    lanes = int(task.pe_config.lanes)
    tables = term_tables_for_dtype(task.dtype)
    token = (tuple(id(t) for t in tables), lanes)
    cache = decode_cache()
    prep = cache.get(packed, "fused", token)
    if prep is not None:
        return prep

    _m, k, _d, g, gpc, _pad = task.geometry()
    blocks = gpc * g // lanes
    sign, exp, man, bsig = decode_packed_terms(packed, task.dtype)
    n_terms = sign.shape[-1]
    te = (exp + bsig).reshape(k, blocks, lanes, n_terms)
    te = np.ascontiguousarray(te.transpose(0, 1, 3, 2))
    tms = man.astype(np.float32) * (1.0 - 2.0 * sign.astype(np.float32))
    tms = np.ascontiguousarray(
        tms.reshape(k, blocks, lanes, n_terms).transpose(0, 1, 3, 2)
    )
    return cache.put(packed, "fused", token, (te, tms))


@register_backend
class FusedBackend(KernelBackend):
    """Single-pass float32 execution of the bit-serial datapath."""

    name = "fused"

    #: Output channels per pass: K-blocking keeps the (m, k_chunk,
    #: blocks, n_terms, lanes) intermediates L2-resident.  On an
    #: (8x512)x(512x512) bitmod_fp4 GEMM the median time moves by at
    #: most ~25% across 32..512 and 64 is at or near the fastest, so
    #: this is a constant, not a tuning knob.
    DEFAULT_K_CHUNK = 64

    def supports(self, task: GemmTask) -> Optional[str]:
        cfg = task.pe_config
        if task.packed.zeros is not None:
            return "asymmetric containers skip dequantization (scalar semantics)"
        if cfg.acc_mantissa_bits != 24:
            return (
                f"float32 accumulation requires a 24-bit accumulator "
                f"(config has {cfg.acc_mantissa_bits})"
            )
        if cfg.guard_bits < 0 or (
            cfg.lanes * (_FP16_MAN_MAX << max(cfg.guard_bits, 0)) >= 1 << 24
        ):
            return "per-step lane sum would exceed the float32 mantissa"
        return None

    def run(self, task: GemmTask) -> GemmExecution:
        cfg = task.pe_config
        lanes = int(cfg.lanes)
        guard = int(cfg.guard_bits)
        m, k, _d, g, gpc, _pad = task.geometry()
        if g % lanes:
            raise ValueError(f"group size must be a multiple of {lanes}")
        sf = task.sf_codes()
        if sf.size and (int(sf.min()) < 0 or int(sf.max()) >= 1 << cfg.sf_bits):
            raise ValueError(f"scaling factor must fit in {cfg.sf_bits} bits")
        chan_scales = task.channel_scales()
        te, tms = _prepare(task)
        n_terms = te.shape[2]
        bpg = g // lanes
        spg = bpg * n_terms  # PE cycles per group (steps)

        x = task.padded_x()
        a_sign, a_exp, a_man = fp16_decompose(x)
        blocks = gpc * g // lanes
        ae = a_exp.astype(np.int8).reshape(m, blocks, 1, lanes)
        amf = a_man.astype(np.float32) * (1.0 - 2.0 * a_sign.astype(np.float32))
        amf *= float(1 << guard)
        amf = amf.reshape(m, blocks, 1, lanes)

        acc = np.empty((m, k, gpc), dtype=np.float32)
        for k0 in range(0, k, self.DEFAULT_K_CHUNK):
            k1 = min(k0 + self.DEFAULT_K_CHUNK, k)
            # Lane exponents and products for every (row, step, lane).
            e = ae[:, None] + te[None, k0:k1]  # (m, kc, blocks, T, lanes) i8
            emax = e[..., 0].copy()  # max is order-free: unroll the lanes
            for lane in range(1, lanes):
                np.maximum(emax, e[..., lane], out=emax)
            sh = np.subtract(e, emax[..., None], dtype=np.int32)  # <= 0
            al = amf[:, None] * tms[None, k0:k1]
            np.ldexp(al, sh, out=al)  # exact: power-of-two scaling
            np.rint(al, out=al)  # RNE alignment == _rshift_rne
            tot = al[..., 0].copy()  # integer-exact in any order
            for lane in range(1, lanes):
                tot += al[..., lane]
            sv = np.ldexp(
                tot, np.subtract(emax, guard + _FP16_EXP_OFFSET, dtype=np.int32)
            )
            # Step-major copy, then sequential float32 adds from a zero
            # accumulator in the scalar step order (block-major,
            # term-minor): numpy reduces an outer axis one slice at a
            # time, and each add IS the 24-bit RNE renormalization.
            steps = np.ascontiguousarray(
                np.moveaxis(sv.reshape(m, k1 - k0, gpc, spg), -1, 0)
            )
            np.add.reduce(steps, axis=0, out=acc[:, k0:k1], initial=0.0)

        # Bit-serial dequantization: partial * sf, one set bit at a time.
        acc2 = np.zeros_like(acc)
        for i in range(int(cfg.sf_bits)):
            bit = ((sf >> i) & 1) == 1  # (k, gpc)
            acc2 = np.where(bit[None], acc2 + np.ldexp(acc, i), acc2)

        out = np.zeros((m, k))
        for gc in range(gpc):
            out += acc2[:, :, gc].astype(np.float64) * chan_scales[None, :]
        return GemmExecution(
            output=out,
            pe_cycles=m * k * gpc * spg,
            groups_processed=m * k * gpc,
        )
