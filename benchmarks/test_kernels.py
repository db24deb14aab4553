"""Perf gates of the kernel layer on the (8x512) x (512x512) GEMM.

* the dispatched kernel engine must beat the scalar PE reference by
  >= 10x, bit-exact on the measured slice;
* every non-reference backend must produce bit-identical outputs, and
  the fastest must beat the numpy backend by >= 4x.

Kernel throughput (``kernels.gemm.*``, ``quant.*``) is recorded by
perfbench (``python3 perfbench/run.py --workload offline-repro``).
"""

import time

import numpy as np

from repro.quant import QuantConfig

_K = 512


def _timeit(fn, *args, repeat=3):
    """Best-of-N wall time plus the last return value."""
    best = float("inf")
    out = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def _acceptance_task(k):
    """The acceptance-criteria GEMM: (8x512) x (k x 512) bitmod_fp4."""
    from repro.hw.functional import FunctionalGemm
    from repro.kernels.base import GemmTask
    from repro.quant.packing import pack_tensor

    rng = np.random.default_rng(0)
    w = rng.standard_normal((k, 512))
    x = rng.standard_normal((8, 512)).astype(np.float16)
    cfg = QuantConfig(dtype="bitmod_fp4")
    gemm = FunctionalGemm(cfg)
    task = GemmTask(
        x=gemm._validated_shapes(x, w.shape),
        packed=pack_tensor(w, cfg),
        dtype=gemm.dtype,
        pe_config=gemm.pe.config,
    )
    return gemm, task, x, w


def test_functional_gemm_tile():
    """The acceptance-criteria GEMM: (8x512) x (512x512) bitmod_fp4.

    Times the dispatched kernel engine on the full tile and the scalar
    reference on a 1/8 column slice (extrapolated x8 — the full scalar
    run is prohibitively slow, which is the point), asserts bit-exact
    agreement on the slice, and requires the >=10x speedup the
    vectorized kernel layer was built for (~45x measured).
    """
    k_ref = max(_K // 8, 16)
    gemm, task, x, w = _acceptance_task(_K)

    vec_s, _ = _timeit(gemm.run_packed, x, task.packed, repeat=2)
    scalar_slice_s, scalar_slice = _timeit(gemm.run_scalar, x, w[:k_ref], repeat=1)
    vec_slice = gemm.run(x, w[:k_ref])

    # Bit-exact equivalence on the measured slice.
    np.testing.assert_array_equal(scalar_slice.output, vec_slice.output)
    assert scalar_slice.pe_cycles == vec_slice.pe_cycles
    assert scalar_slice.groups_processed == vec_slice.groups_processed

    speedup = scalar_slice_s * (_K / k_ref) / vec_s
    assert speedup >= 10.0, f"dispatched GEMM only {speedup:.1f}x faster"


def test_kernel_backend_matrix():
    """Every non-reference backend on the (8x512)x(512x512) bitmod_fp4
    GEMM; all outputs bit-identical; the fastest must beat the numpy
    vectorized backend by >=4x.
    """
    from repro.kernels import get_backend, list_backends

    _gemm, task, _x, _w = _acceptance_task(_K)

    timings = {}
    reference_out = None
    for name in list_backends():
        backend = get_backend(name)
        if name == "reference" or backend.supports(task) is not None:
            continue
        backend.run(task)  # warm: per-tensor prep
        seconds, out = _timeit(backend.run, task)
        if reference_out is None:
            reference_out = out
        else:
            np.testing.assert_array_equal(out.output, reference_out.output)
            assert out.pe_cycles == reference_out.pe_cycles
        timings[name] = seconds

    assert "numpy" in timings
    best = min(timings, key=timings.get)
    speedup = timings["numpy"] / timings[best]
    assert speedup >= 4.0, (
        f"fastest backend {best!r} only {speedup:.1f}x over numpy"
    )
