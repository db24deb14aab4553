"""repro.kernels — multi-backend execution of the bit-serial GEMM.

The bit-accurate functional GEMM is a contract (outputs, cycle and
group counts bit-identical to the scalar Fig. 6 datapath); this
package holds the implementations of that contract and the rule that
picks between them:

* :mod:`repro.kernels.base` — :class:`GemmTask` /
  :class:`KernelBackend` interface and the backend registry;
* :mod:`repro.kernels.reference` — the scalar ground truth;
* :mod:`repro.kernels.vectorized` — the integer-exact ``numpy``
  engine (the universal fallback: any PE width);
* :mod:`repro.kernels.fused` — single-pass float32 tensor math
  (~5x the numpy backend single-core; requires the default 24-bit
  accumulator, see the module docstring for the exactness proof);
* :mod:`repro.kernels.cache` — the bounded LRU for per-tensor decoded
  term arrays and backend layouts (``$REPRO_KERNEL_CACHE_MB``);
* :mod:`repro.kernels.dispatch` — routes every
  :meth:`~repro.hw.functional.FunctionalGemm.run_packed` call: a
  pinned backend (``backend=`` or ``$REPRO_KERNEL_BACKEND``) that
  supports the task, else ``fused`` when it does, else ``numpy``.
"""

from repro.kernels.base import (
    GemmExecution,
    GemmTask,
    KernelBackend,
    get_backend,
    list_backends,
    register_backend,
)
from repro.kernels.cache import DecodeCache, decode_cache, reset_decode_cache

# Importing the backend modules registers them.
from repro.kernels.reference import ReferenceBackend
from repro.kernels.vectorized import VectorizedBackend
from repro.kernels.fused import FusedBackend
from repro.kernels.dispatch import KernelDispatcher, get_dispatcher, reset_dispatcher

__all__ = [
    "DecodeCache",
    "FusedBackend",
    "GemmExecution",
    "GemmTask",
    "KernelBackend",
    "KernelDispatcher",
    "ReferenceBackend",
    "VectorizedBackend",
    "decode_cache",
    "get_backend",
    "get_dispatcher",
    "list_backends",
    "register_backend",
    "reset_decode_cache",
    "reset_dispatcher",
]
