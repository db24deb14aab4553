"""Bit-exact packing of quantized tensors into accelerator memory images.

The BitMoD accelerator streams weights from DRAM as dense bit-packed
groups: ``group_size`` b-bit element codes, one 8-bit scaling-factor
code per group, a 2-bit special-value selector (BitMoD datatypes), and
per-channel FP16 second-level factors.  This module implements that
container — the piece an actual deployment would serialize to flash —
with exact round-tripping back to the dequantized tensor.

Element codes are grid indices for non-linear datatypes and offset
binary for integers, so every registry datatype packs into exactly
``bits`` bits per weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.dtypes.base import GridDataType, snap_indices
from repro.dtypes.extended import BitMoDType, make_extended_float
from repro.dtypes.integer import IntegerType
from repro.quant.config import QuantConfig, quantize_tensor
from repro.quant.granularity import from_rows, rows_per_channel, to_rows
from repro.quant.scale import quantize_scales

__all__ = [
    "PackedTensor",
    "pack_tensor",
    "unpack_tensor",
    "pack_bits",
    "unpack_bits",
]


def pack_bits(codes: np.ndarray, bits: int) -> bytes:
    """Pack unsigned integer ``codes`` (< 2**bits) LSB-first into bytes.

    The bit stream is LSB-first within each code and across codes,
    which is exactly ``np.packbits(..., bitorder="little")`` over the
    per-code bit expansion — one vectorized pass instead of a
    ``bitwise_or.at`` scatter per bit plane.
    """
    codes = np.asarray(codes, dtype=np.uint64).reshape(-1)
    if codes.size and int(codes.max()) >= 2**bits:
        raise ValueError(f"code does not fit in {bits} bits")
    shifts = np.arange(bits, dtype=np.uint64)
    bit_matrix = ((codes[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bit_matrix.reshape(-1), bitorder="little").tobytes()


def unpack_bits(data: bytes, bits: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`."""
    raw = np.frombuffer(data, dtype=np.uint8)
    bit_stream = np.unpackbits(raw, count=count * bits, bitorder="little")
    bit_stream = bit_stream.reshape(count, bits)
    # Shift-or one bit plane at a time: no (count, bits) uint64
    # temporary, just `bits` cheap column passes.
    codes = np.zeros(count, dtype=np.uint64)
    for b in range(bits):
        codes |= bit_stream[:, b].astype(np.uint64) << np.uint64(b)
    return codes


@dataclass
class PackedTensor:
    """A serialized quantized tensor (the DRAM image)."""

    dtype_name: str
    bits: int
    shape: tuple
    group_size: int
    element_data: bytes
    sf_codes: np.ndarray  # uint8 per group
    channel_scales: np.ndarray  # float per channel (second-level factor)
    #: Groups per output channel, carried explicitly from the row
    #: layout (inferring it from array-size division silently
    #: mis-scales channel scales for padded/ragged shapes).
    groups_per_channel: int
    sv_selectors: Optional[np.ndarray] = None  # uint8 per group (BitMoD)
    zeros: Optional[np.ndarray] = None  # integer zero points (asym int)

    @property
    def total_bytes(self) -> int:
        total = len(self.element_data)
        total += self.sf_codes.size  # 1 byte each
        total += self.channel_scales.size * 2  # FP16 second-level
        if self.sv_selectors is not None:
            total += (self.sv_selectors.size * 2 + 7) // 8
        if self.zeros is not None:
            total += self.zeros.size  # 8-bit zero points
        return total

    @property
    def bits_per_weight(self) -> float:
        n = int(np.prod(self.shape))
        return self.total_bytes * 8.0 / n

    @property
    def n_codes(self) -> int:
        """Element codes in the image (includes group padding)."""
        return int(self.sf_codes.size) * int(self.group_size)


def pack_tensor(w: np.ndarray, config: QuantConfig) -> PackedTensor:
    """Quantize ``w`` and serialize it into a DRAM image.

    Supports integer and BitMoD/grid datatypes (the formats the BitMoD
    accelerator executes) at group or channel granularity; the stored
    ``group_size`` is the *effective* scale-row length (the channel
    size for per-channel quantization), which is what makes the
    container self-describing on unpack.
    """
    if config.granularity == "tensor":
        raise ValueError(
            "per-tensor granularity has no packed container representation; "
            "pack at 'group' or 'channel' granularity"
        )
    dtype = config.resolve_dtype()
    result = quantize_tensor(w, config)
    rows, layout = to_rows(w, result.layout.granularity, result.layout.group_size)
    deq_rows, _ = to_rows(result.w_deq, result.layout.granularity, result.layout.group_size)

    scales = result.scales
    safe_scales = np.where(scales == 0.0, 1.0, scales)

    if isinstance(dtype, IntegerType):
        if dtype.asymmetric:
            codes = np.round(deq_rows / safe_scales + result.zeros)
            zeros = result.zeros.astype(np.int64)
        else:
            offset = dtype.qmax_symmetric
            codes = np.round(deq_rows / safe_scales) + offset
            zeros = None
        codes = codes.astype(np.uint64)
        sv_sel = None
    elif isinstance(dtype, BitMoDType):
        sv_sel = np.zeros(layout.n_rows, dtype=np.uint8)
        codes = np.zeros_like(deq_rows, dtype=np.uint64)
        code_rows = deq_rows / safe_scales
        for gi, sv in enumerate(dtype.special_values):
            mask = result.special_values.reshape(-1) == sv
            if not mask.any():
                continue
            grid = make_extended_float(dtype.bits, sv).grid
            sv_sel[mask] = gi
            codes[mask] = snap_indices(code_rows[mask], grid).astype(np.uint64)
        zeros = None
    elif isinstance(dtype, GridDataType):
        codes = snap_indices(deq_rows / safe_scales, dtype.grid).astype(np.uint64)
        sv_sel = None
        zeros = None
    else:
        raise TypeError(f"packing not supported for datatype {dtype!r}")

    if zeros is not None:
        # Asymmetric integer follows the software convention: FP16
        # scale + zero point per group (Section III-C memory analysis).
        sf_codes = np.ones(layout.n_rows, dtype=np.uint8)
        channel_scales = scales.reshape(-1).astype(np.float64)
    else:
        # Second-level INT8 scaling factors (what quantize_tensor used;
        # re-quantizing the already-quantized scales is idempotent).
        rpc = rows_per_channel(layout)
        sq = quantize_scales(scales, bits=8, rows_per_channel=rpc)
        sf_codes = sq.codes.reshape(-1).astype(np.uint8)
        channel_scales = sq.channel_scales.reshape(-1).astype(np.float64)

    return PackedTensor(
        dtype_name=dtype.name,
        bits=dtype.bits,
        shape=tuple(w.shape),
        # Effective scale-row length: the group size at group
        # granularity, the channel size at channel granularity.
        group_size=rows.shape[1],
        element_data=pack_bits(codes, dtype.bits),
        sf_codes=sf_codes,
        channel_scales=channel_scales,
        sv_selectors=sv_sel,
        zeros=None if zeros is None else zeros.reshape(-1),
        groups_per_channel=rows_per_channel(layout),
    )


def unpack_tensor(packed: PackedTensor, config: QuantConfig) -> np.ndarray:
    """Reconstruct the dequantized tensor from a DRAM image."""
    dtype = config.resolve_dtype()
    k, d = packed.shape
    rows_shape, layout = to_rows(np.zeros(packed.shape), "group", packed.group_size)
    n_rows, g = rows_shape.shape
    codes = unpack_bits(packed.element_data, packed.bits, n_rows * g).reshape(n_rows, g)

    if packed.zeros is not None:
        # Asymmetric integer: per-group FP scale stored directly.
        scales = packed.channel_scales.reshape(n_rows, 1)
    else:
        scales = (
            packed.sf_codes.astype(np.float64).reshape(-1, packed.groups_per_channel)
            * packed.channel_scales.reshape(-1, 1)
        ).reshape(n_rows, 1)

    if isinstance(dtype, IntegerType):
        if dtype.asymmetric:
            deq = (codes.astype(np.float64) - packed.zeros.reshape(n_rows, 1)) * scales
        else:
            deq = (codes.astype(np.float64) - dtype.qmax_symmetric) * scales
    elif isinstance(dtype, BitMoDType):
        deq = np.zeros((n_rows, g))
        for gi, sv in enumerate(dtype.special_values):
            mask = packed.sv_selectors == gi
            if not mask.any():
                continue
            grid = make_extended_float(dtype.bits, sv).grid
            deq[mask] = grid[codes[mask].astype(np.int64)]
        deq *= scales
    elif isinstance(dtype, GridDataType):
        deq = dtype.grid[codes.astype(np.int64)] * scales
    else:
        raise TypeError(f"unpacking not supported for datatype {dtype!r}")
    return from_rows(deq, layout)
