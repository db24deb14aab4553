"""Functional (bit-accurate) execution of a GEMM on the BitMoD array.

This is the Python analogue of the paper's RTL simulation: a weight
tensor is quantized, *serialized to its DRAM image*, decoded by the
bit-serial term generator, and multiplied against FP16 activations by
the bit-accurate PEs of :mod:`repro.hw.pe` under the output-stationary
dataflow of Fig. 6 — per-group partial sums are dequantized by the
bit-serial unit and accumulated into per-channel outputs by the column
accumulator.

:class:`FunctionalGemm` is now a *facade* over the multi-backend
kernel layer (:mod:`repro.kernels`): it validates inputs, packages
them as a :class:`~repro.kernels.base.GemmTask`, and hands execution
to the kernel dispatcher, which picks among the registered backends —
``reference`` (the original per-scalar engine, kept as ground truth),
``numpy`` (the vectorized integer-exact engine, any PE width) and
``fused`` (single-pass float32 tensor math, the default whenever it
supports the task).
Every backend is bit-identical to the scalar reference (outputs,
cycle counts and group counts), which the registry-wide property
tests in ``tests/hw`` enforce; backend choice changes speed, never
results.

Pin a backend per instance (``FunctionalGemm(cfg, backend="numpy")``)
or process-wide via ``$REPRO_KERNEL_BACKEND``.  Even the fastest
backend is slower than ``x @ w_deq.T`` (that is the point: every bit
of datapath behaviour is exercised), but it scales to real tile sizes
and serving batch sizes, and the cycle counts it reports are
cross-checked against the analytic timing model.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.dtypes.integer import IntegerType
from repro.hw.pe import BitMoDPE, PEConfig
from repro.hw.termtable import ASYMMETRIC_REJECT_MSG
from repro.kernels.base import GemmExecution, GemmTask
from repro.obs.trace import TRACER
from repro.quant.config import QuantConfig
from repro.quant.packing import PackedTensor, pack_tensor

__all__ = ["FunctionalGemm", "GemmExecution"]


class FunctionalGemm:
    """Execute ``x @ W.T`` with bit-serial PEs on quantized weights."""

    def __init__(
        self,
        config: QuantConfig,
        pe_config: PEConfig = PEConfig(),
        backend: Optional[str] = None,
    ):
        self.config = config
        self.dtype = config.resolve_dtype()
        self.pe = BitMoDPE(pe_config)
        #: Kernel backend pin (None = dispatcher decides).
        self.backend = backend

    # ------------------------------------------------------------------
    # Shared helpers.
    # ------------------------------------------------------------------
    def _check_supported(self) -> None:
        dtype = self.dtype
        if isinstance(dtype, IntegerType) and dtype.asymmetric:
            raise TypeError(ASYMMETRIC_REJECT_MSG)

    @staticmethod
    def _validated_shapes(x: np.ndarray, w_shape: tuple) -> np.ndarray:
        x = np.asarray(x, dtype=np.float16)
        if x.ndim != 2:
            raise ValueError("activations must be 2-D (M, D)")
        if x.shape[1] != w_shape[1]:
            raise ValueError("activation/weight dimension mismatch")
        return x

    def _task(self, x: np.ndarray, packed: PackedTensor) -> GemmTask:
        return GemmTask(
            x=x, packed=packed, dtype=self.dtype, pe_config=self.pe.config
        )

    # ------------------------------------------------------------------
    # Dispatched engines.
    # ------------------------------------------------------------------
    def run(self, x: np.ndarray, w: np.ndarray) -> GemmExecution:
        """Compute ``x @ Q(w).T`` through the PE datapath.

        ``x`` is ``(M, D)`` FP16 activations; ``w`` is ``(K, D)``
        weights (quantized internally per ``self.config``).
        """
        x = self._validated_shapes(x, np.asarray(w).shape)
        return self.run_packed(x, pack_tensor(w, self.config))

    def run_packed(self, x: np.ndarray, packed: PackedTensor) -> GemmExecution:
        """Execute a GEMM against an already-packed weight image.

        The packed tensor's decoded term layout is computed once and
        memoized in the bounded kernel cache, so repeated calls (the
        serving replay case) pay only the PE array arithmetic.

        Traced runs emit one coarse ``kernel.gemm`` span per call,
        plus the dispatcher's ``kernel.dispatch`` span naming the
        backend that actually ran (the disabled path costs a branch).
        """
        self._check_supported()
        x = self._validated_shapes(x, packed.shape)
        from repro.kernels.dispatch import get_dispatcher  # lazy: heavy deps

        task = self._task(x, packed)
        if TRACER.enabled:
            with TRACER.span(
                "kernel.gemm",
                dtype=self.config.dtype,
                m=int(x.shape[0]),
                k=int(packed.shape[0]),
                d=int(packed.shape[1]),
            ):
                return get_dispatcher().run(task, backend=self.backend)
        return get_dispatcher().run(task, backend=self.backend)

    # ------------------------------------------------------------------
    # Scalar reference engine (the Fig. 6 datapath, one value at a
    # time) — now the ``reference`` kernel backend, kept callable here
    # as the equivalence baseline for tests.
    # ------------------------------------------------------------------
    def run_scalar(self, x: np.ndarray, w: np.ndarray) -> GemmExecution:
        """Reference implementation: one PE call per (row, col, group)."""
        from repro.kernels.reference import ReferenceBackend

        x = self._validated_shapes(x, np.asarray(w).shape)
        packed = pack_tensor(w, self.config)
        return ReferenceBackend().run(self._task(x, packed))

