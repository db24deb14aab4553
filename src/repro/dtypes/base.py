"""Core datatype abstractions.

Every quantization datatype in this reproduction is, at its heart, a
finite set of representable values (*levels*) plus metadata describing
how the hardware stores and processes those values.  Linear integer
datatypes are a special case whose levels form an arithmetic
progression; non-linear datatypes (floating point, Flint, the BitMoD
extended floats) carry an explicit level grid.

The central primitive is :func:`quantize_to_grid`, which snaps a float
tensor to the nearest level of a grid.  It is fully vectorized and is
the inner loop of Algorithm 1 in the paper.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DataType",
    "GridDataType",
    "quantize_to_grid",
    "grid_absmax",
    "snap_indices",
]


def _as_sorted_grid(values) -> np.ndarray:
    """Return ``values`` as a sorted, deduplicated float64 numpy array."""
    grid = np.unique(np.asarray(values, dtype=np.float64))
    if grid.size < 2:
        raise ValueError("a quantization grid needs at least two levels")
    return grid


def snap_indices(x: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Indices of the nearest grid level for every element of ``x``.

    ``grid`` must be sorted ascending.  Ties round toward the upper
    level, matching ``np.searchsorted`` midpoint behaviour; the paper's
    results are insensitive to tie direction because weight values are
    continuous.
    """
    x = np.asarray(x, dtype=np.float64)
    # Midpoints between adjacent levels partition the real line into
    # nearest-level cells.
    midpoints = (grid[1:] + grid[:-1]) / 2.0
    if midpoints.size <= 255 and x.size >= 4096:
        # Quantization grids are tiny, so one strict comparison per
        # midpoint beats binary search by ~4x.  Bit-identical:
        # ``searchsorted(mid, x, "left")`` is the count of midpoints
        # strictly below ``x`` — except NaN, which searchsorted sorts
        # past the end and comparisons would send to index 0.
        idx = np.zeros(x.shape, dtype=np.uint8)
        for m in midpoints:
            np.add(idx, x > m, out=idx, casting="unsafe")
        out = idx.astype(np.intp)
        nan = np.isnan(x)
        if nan.any():
            out[nan] = midpoints.size
        return out
    return np.searchsorted(midpoints, x, side="left")


def quantize_to_grid(x: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Snap every element of ``x`` to its nearest value in ``grid``.

    This is the ``NonLinearQuantize`` primitive of Algorithm 1 (line 7).
    """
    grid = np.asarray(grid, dtype=np.float64)
    return grid[snap_indices(x, grid)]


def grid_absmax(grid: np.ndarray) -> float:
    """Largest magnitude representable by ``grid``."""
    grid = np.asarray(grid, dtype=np.float64)
    return float(np.max(np.abs(grid)))


class DataType(abc.ABC):
    """A low-precision numerical datatype.

    Concrete subclasses are dataclasses defining (at least):

    ``name``
        Registry name, e.g. ``"int4_asym"`` or ``"fp3_ea"``.
    ``bits``
        Storage bits per weight element (excluding per-group metadata,
        which is accounted for separately by the memory model).
    ``asymmetric``
        True when quantized with an explicit zero-point.
    ``nonlinear``
        True for datatypes quantized by snapping to a non-linear grid.

    No defaults are declared here on purpose: inherited class
    attributes would silently become dataclass field defaults in
    subclasses and break required-field ordering.
    """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r}, bits={self.bits})"

    def memory_bits_per_weight(self, group_size: int) -> float:
        """Average storage cost per weight including group metadata.

        The default charges an 8-bit scaling factor per group (the
        INT8 second-level scaling factor of Section III-C).  Subclasses
        with extra metadata (zero points, special-value selectors,
        shared exponents) override this.
        """
        return self.bits + 8.0 / group_size


@dataclass
class GridDataType(DataType):
    """A datatype defined by an explicit, finite level grid.

    Parameters
    ----------
    name:
        Registry name.
    bits:
        Storage bits per element.
    values:
        The representable values.  They are conventionally expressed in
        "code space": the quantizer computes a per-group scale
        ``delta = absmax(W) / absmax(values)`` and snaps ``W / delta``
        onto the grid.
    """

    name: str
    bits: int
    values: np.ndarray
    asymmetric: bool = False
    nonlinear: bool = True
    #: Optional free-form description used in reports.
    description: str = ""
    _grid: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._grid = _as_sorted_grid(self.values)
        self.values = self._grid

    @property
    def grid(self) -> np.ndarray:
        """Sorted level grid."""
        return self._grid

    @property
    def num_levels(self) -> int:
        return int(self._grid.size)

    @property
    def absmax(self) -> float:
        return grid_absmax(self._grid)

    def is_symmetric_grid(self, tol: float = 1e-12) -> bool:
        """Whether the grid is symmetric around zero."""
        return bool(
            np.allclose(np.sort(-self._grid), self._grid, atol=tol)
        )

    def quantize(self, x: np.ndarray) -> np.ndarray:
        """Snap ``x`` (already scaled into code space) onto the grid."""
        return quantize_to_grid(x, self._grid)

    def encode(self, x: np.ndarray) -> np.ndarray:
        """Return grid indices (storage codes) for scaled values."""
        return snap_indices(x, self._grid)

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`encode`."""
        return self._grid[np.asarray(codes, dtype=np.int64)]
