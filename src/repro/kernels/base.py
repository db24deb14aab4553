"""Kernel backend interface: one GEMM task, many implementations.

The bit-accurate GEMM of :class:`repro.hw.functional.FunctionalGemm`
is a *contract* — given FP16 activations and a packed weight image it
must produce the exact outputs, cycle counts and group counts of the
scalar Fig. 6 datapath — and this module separates that contract from
how it is computed.  A :class:`GemmTask` bundles one GEMM's inputs; a
:class:`KernelBackend` executes it; the registry maps backend names to
singleton instances for the dispatcher (:mod:`repro.kernels.dispatch`).

Every backend runs in every process; :meth:`KernelBackend.supports`
says whether it can run *this* task exactly (e.g. the fused float32
backend requires the default 24-bit accumulator; exotic
:class:`~repro.hw.pe.PEConfig` widths fall back to the numpy backend,
which handles any width).

Every registered backend is held to the registry-wide bit-identity
property tests in ``tests/hw``: identical outputs, ``pe_cycles`` and
``groups_processed`` to the scalar reference for every datatype.

This module is import-light on purpose (numpy only): backends and the
:mod:`repro.hw` layer both import it, so it must not import either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Type

import numpy as np

__all__ = [
    "GemmExecution",
    "GemmTask",
    "KernelBackend",
    "register_backend",
    "get_backend",
    "list_backends",
]


@dataclass
class GemmExecution:
    """Result of a functional GEMM run."""

    output: np.ndarray  # (M, K_out)
    pe_cycles: int  # cycles of the longest-running PE
    groups_processed: int


@dataclass
class GemmTask:
    """One functional GEMM: validated activations x a packed image.

    ``x`` is ``(M, D)`` float16 (already validated by the caller —
    :class:`~repro.hw.functional.FunctionalGemm` keeps shape/dtype
    policing in one place so every backend sees identical inputs),
    ``packed`` a :class:`~repro.quant.packing.PackedTensor`, ``dtype``
    its resolved registry datatype, and ``pe_config`` the PE datapath
    widths the execution must be bit-faithful to.
    """

    x: np.ndarray
    packed: Any  # PackedTensor (kept untyped: base must not import quant)
    dtype: Any  # resolved registry datatype
    pe_config: Any  # repro.hw.pe.PEConfig

    def geometry(self) -> Tuple[int, int, int, int, int, int]:
        """``(m, k, d, g, gpc, pad)`` of the padded execution."""
        m = int(self.x.shape[0])
        k, d = self.packed.shape
        g = int(self.packed.group_size)
        gpc = self.packed.groups_per_channel
        pad = gpc * g - d
        return m, int(k), int(d), g, int(gpc), int(pad)

    def padded_x(self) -> np.ndarray:
        """Activations zero-padded up to the packed group layout."""
        *_, pad = self.geometry()
        if pad:
            return np.pad(self.x, ((0, 0), (0, pad)))
        return self.x

    def channel_scales(self) -> np.ndarray:
        """Per-channel second-level scales, validated against K."""
        k = int(self.packed.shape[0])
        chan = np.asarray(self.packed.channel_scales, dtype=np.float64).reshape(-1)
        if chan.size != k:
            raise ValueError(
                f"expected one channel scale per output channel "
                f"({k}), got {chan.size}"
            )
        return chan

    def sf_codes(self) -> np.ndarray:
        """Per-group scaling-factor codes as ``(K, groups_per_channel)``."""
        m, k, d, g, gpc, pad = self.geometry()
        return np.asarray(self.packed.sf_codes, dtype=np.int64).reshape(k, gpc)


class KernelBackend:
    """One way of executing a :class:`GemmTask` bit-exactly.

    Subclasses set ``name``: the registry key, also what
    ``$REPRO_KERNEL_BACKEND`` selects.
    """

    #: Registry key (``reference``, ``numpy``, ``fused``).
    name: str = "?"

    def supports(self, task: GemmTask) -> Optional[str]:
        """``None`` when the backend can run ``task`` bit-exactly,
        else a human-readable reason (the dispatcher falls back)."""
        return None

    def run(self, task: GemmTask) -> GemmExecution:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Registry.
# ----------------------------------------------------------------------

_REGISTRY: Dict[str, KernelBackend] = {}


def register_backend(cls: Type[KernelBackend]) -> Type[KernelBackend]:
    """Class decorator: instantiate and register a backend by name."""
    inst = cls()
    _REGISTRY[inst.name] = inst
    return cls


def get_backend(name: str) -> KernelBackend:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown kernel backend {name!r}; known: {known}") from None


def list_backends() -> List[str]:
    """All registered backend names, sorted."""
    return sorted(_REGISTRY)
