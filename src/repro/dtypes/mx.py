"""Microscaling (MX) formats (OCP spec / ISCA 2023), used as a baseline.

An MX block couples a group of ``block_size`` (spec default 32)
low-precision floating-point elements with one shared 8-bit
power-of-two scale (the "microexponent").  Relative to BitMoD-style
per-group quantization the two crucial differences are:

* the scale is restricted to powers of two, so the grid cannot be
  stretched to exactly cover the group's absmax; and
* the element datatype is the *basic* FP4/FP3, leaving the redundant
  negative-zero encoding unused.

Both cost accuracy, which is the point of the paper's Table VI
comparison.  The MX spec fixes the block size at 32; the paper notes
MX degrades with larger blocks, so we keep 32 as the default.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dtypes.base import DataType, quantize_to_grid
from repro.dtypes.floating import FP3_VALUES, FP4_VALUES, float_grid

__all__ = ["MXType"]

_ELEMENT_GRIDS = {
    3: FP3_VALUES,
    4: FP4_VALUES,
    5: float_grid(2, 2, bias=1),
    6: float_grid(2, 3, bias=1),
    8: float_grid(4, 3),
}


@dataclass
class MXType(DataType):
    """MX format: shared 8-bit power-of-two scale + FP elements.

    Parameters
    ----------
    bits:
        Element precision (3-6, 8).
    block_size:
        Elements sharing one microexponent (OCP spec: 32).
    """

    bits: int = 4
    block_size: int = 32
    name: str = ""
    nonlinear: bool = True
    element_grid: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.bits not in _ELEMENT_GRIDS:
            raise ValueError(f"no MX element format at {self.bits} bits")
        if not self.name:
            self.name = f"mx_fp{self.bits}"
        self.element_grid = _ELEMENT_GRIDS[self.bits]

    def memory_bits_per_weight(self, group_size: int) -> float:
        # group_size is ignored: MX's metadata granularity is its own
        # block size, regardless of the quantizer's group size.
        return self.bits + 8.0 / self.block_size

    # ------------------------------------------------------------------
    def quantize_rows(self, w: np.ndarray):
        """Quantize each row of ``w`` as one MX block.

        Rows must have length ``block_size`` (the granularity layer
        slices tensors accordingly).  Returns ``(w_deq, scales)`` where
        scales are the power-of-two shared exponents.
        """
        w = np.asarray(w, dtype=np.float64)
        if w.ndim != 2:
            raise ValueError("quantize_rows expects a 2-D array")
        absmax = np.max(np.abs(w), axis=1, keepdims=True)
        grid_max = float(np.max(np.abs(self.element_grid)))
        # Shared exponent: floor(log2(absmax)) - floor(log2(grid_max)),
        # the OCP MX scale rule.  All-zero blocks get scale 1.
        safe = np.where(absmax > 0.0, absmax, 1.0)
        shared_exp = np.floor(np.log2(safe)) - np.floor(np.log2(grid_max))
        scales = np.where(absmax > 0.0, 2.0**shared_exp, 1.0)
        w_deq = quantize_to_grid(w / scales, self.element_grid) * scales
        return w_deq, scales
