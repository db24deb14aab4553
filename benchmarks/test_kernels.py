"""Micro-benchmarks of the core kernels.

These time the library's hot paths — Algorithm 1 quantization, the
GPTQ inner loop, Booth/LOD encoding, the bit-accurate PE and the
multi-backend functional GEMM — giving the performance baseline a
user of the library would care about.  Measured numbers are persisted
to ``BENCH_kernels.json`` (same convention as ``BENCH_serve.json``) so
the performance trajectory is tracked over time; kernel measurements
record the backend name that produced them.

Set ``BENCH_QUICK=1`` to shrink the heavy fixtures (the CI quick-mode
job uses this; numbers are flagged ``quick_mode`` in the JSON).
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.hw.bitserial import booth_encode, fixed_point_decompose
from repro.hw.pe import BitMoDPE
from repro.methods import GPTQ
from repro.models import CausalLM, get_model_config
from repro.quant import QuantConfig, quantize_tensor

_RESULTS_PATH = Path(__file__).parent / "BENCH_kernels.json"
_QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

_results = {"quick_mode": _QUICK}


def _record(name, **fields):
    _results[name] = fields


def _timeit(fn, *args, repeat=3):
    """Best-of-N wall time plus the last return value."""
    best = float("inf")
    out = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


@pytest.fixture(scope="module")
def big_weights():
    rng = np.random.default_rng(0)
    shape = (256, 4096) if _QUICK else (1024, 4096)
    return rng.standard_normal(shape)


@pytest.mark.parametrize("dtype", ["int4_asym", "bitmod_fp4", "bitmod_fp3", "ant4", "olive4", "mx_fp4"])
def test_quantize_4m_weights(benchmark, big_weights, dtype):
    """Quantize a 4M-element tensor (per-group, G=128)."""
    cfg = QuantConfig(dtype=dtype)
    result = benchmark(quantize_tensor, big_weights, cfg)
    assert result.w_deq.shape == big_weights.shape
    _record(
        f"quantize_{dtype}",
        elements=int(big_weights.size),
        mean_s=benchmark.stats.stats.mean,
        elements_per_s=big_weights.size / benchmark.stats.stats.mean,
    )


def test_model_forward_pass(benchmark):
    model = CausalLM(get_model_config("llama-2-7b"), seed=0)
    tokens = np.arange(128)[None, :] % model.config.sim_vocab
    out = benchmark(model.logits, tokens)
    assert out.shape[-1] == model.config.sim_vocab


def test_gptq_layer(benchmark, run_once):
    model = CausalLM(get_model_config("llama-2-7b"), seed=0)
    rng = np.random.default_rng(0)
    w = model.weights["layers.0.q_proj"]
    x = rng.standard_normal((256, w.shape[1]))
    gptq = GPTQ(QuantConfig(dtype="int3_asym"))
    out = run_once(gptq.quantize_weight, "q", w, x)
    assert out.shape == w.shape


def test_booth_encoding_throughput(benchmark):
    values = list(range(-128, 128))

    def encode_all():
        return [booth_encode(v, 8) for v in values]

    terms = benchmark(encode_all)
    assert len(terms) == 256


def test_lod_encoding_throughput(benchmark):
    values = [0.0, 0.5, -1.5, 2.0, -3.0, 4.0, 6.0, -8.0] * 32

    def encode_all():
        return [fixed_point_decompose(v) for v in values]

    terms = benchmark(encode_all)
    assert len(terms) == 256


def test_pe_group_dot(benchmark):
    rng = np.random.default_rng(0)
    pe = BitMoDPE()
    codes = rng.integers(-31, 32, size=128)
    acts = rng.standard_normal(128).astype(np.float16)
    terms = [booth_encode(int(c), 6) for c in codes]
    res = benchmark(pe.group_dot, terms, acts)
    assert res.cycles == 96


def test_pe_group_dot_batch(benchmark):
    """Vectorized PE: an (8, 64) tile of group dot products per call."""
    from repro.hw.termtable import integer_term_table

    rng = np.random.default_rng(0)
    pe = BitMoDPE()
    table = integer_term_table(6)
    codes = rng.integers(0, table.n_codes, size=(64, 128))
    sign, exp, man, bsig = table.lookup(codes)
    acts = rng.standard_normal((8, 128)).astype(np.float16)
    res = benchmark(pe.group_dot_batch, sign, exp, man, bsig, acts)
    assert res.cycles == 96
    assert res.mantissa.shape == (8, 64)
    _record(
        "pe_group_dot_batch",
        tile_outputs=8 * 64,
        mean_s=benchmark.stats.stats.mean,
        group_dots_per_s=8 * 64 / benchmark.stats.stats.mean,
    )


def test_pack_tensor_throughput(benchmark, big_weights):
    """Serialize a 4M-element BitMoD tensor to its DRAM image."""
    from repro.quant.packing import pack_tensor

    packed = benchmark(pack_tensor, big_weights, QuantConfig(dtype="bitmod_fp4"))
    assert packed.bits_per_weight < 4.5
    _record(
        "pack_tensor_bitmod_fp4",
        elements=int(big_weights.size),
        mean_s=benchmark.stats.stats.mean,
        elements_per_s=big_weights.size / benchmark.stats.stats.mean,
    )


def test_functional_gemm_small(benchmark, run_once):
    """Bit-accurate GEMM through the PE datapath (small, exhaustive)."""
    from repro.hw.functional import FunctionalGemm

    rng = np.random.default_rng(0)
    w = rng.standard_normal((2, 128))
    x = rng.standard_normal((2, 128)).astype(np.float16)
    res = run_once(FunctionalGemm(QuantConfig(dtype="bitmod_fp3")).run, x, w)
    assert res.output.shape == (2, 2)


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
    vectorized kernel layer was built for.  The JSON record keeps the
    original keys (``vectorized_s`` is the dispatched engine's time)
    and adds the backend name that ran.
    """
    from repro.kernels.dispatch import get_dispatcher

    k = 128 if _QUICK else 512
    k_ref = max(k // 8, 16)
    gemm, task, x, w = _acceptance_task(k)
    backend = get_dispatcher().resolve(task)

    vec_s, vec = _timeit(
        gemm.run_packed, x, task.packed, repeat=1 if _QUICK else 2
    )
    scalar_slice_s, scalar_slice = _timeit(gemm.run_scalar, x, w[:k_ref], repeat=1)
    vec_slice = gemm.run(x, w[:k_ref])

    # Bit-exact equivalence on the measured slice.
    np.testing.assert_array_equal(scalar_slice.output, vec_slice.output)
    assert scalar_slice.pe_cycles == vec_slice.pe_cycles
    assert scalar_slice.groups_processed == vec_slice.groups_processed

    scalar_est_s = scalar_slice_s * (k / k_ref)
    speedup = scalar_est_s / vec_s
    _record(
        "functional_gemm_tile",
        m=8, d=512, k=k, dtype="bitmod_fp4",
        vectorized_s=vec_s,
        scalar_slice_k=k_ref,
        scalar_slice_s=scalar_slice_s,
        scalar_estimated_s=scalar_est_s,
        scalar_extrapolated=True,
        speedup=speedup,
        pe_cycles=int(vec.pe_cycles),
        outputs_per_s=8 * k / vec_s,
        backend=backend.name,
    )
    # Quick mode (CI shared runners) records but does not gate on the
    # one-shot wall-clock ratio; the full run asserts the 10x target
    # with a wide margin (~45x measured).
    if not _QUICK:
        assert speedup >= 10.0, f"dispatched GEMM only {speedup:.1f}x faster"


def test_kernel_backend_matrix():
    """Acceptance: every non-reference backend on the (8x512)x(512x512)
    bitmod_fp4 GEMM; all outputs bit-identical; the fastest must beat
    the numpy vectorized backend by >=4x.
    """
    from repro.kernels import get_backend, list_backends

    k = 128 if _QUICK else 512
    _gemm, task, _x, _w = _acceptance_task(k)

    timings = {}
    reference_out = None
    for name in list_backends():
        backend = get_backend(name)
        if name == "reference" or backend.supports(task) is not None:
            continue
        backend.run(task)  # warm: per-tensor prep
        seconds, out = _timeit(backend.run, task, repeat=1 if _QUICK else 3)
        if reference_out is None:
            reference_out = out
        else:
            np.testing.assert_array_equal(out.output, reference_out.output)
            assert out.pe_cycles == reference_out.pe_cycles
        timings[name] = seconds
        _record(
            f"gemm_backend_{name}",
            m=8, d=512, k=k, dtype="bitmod_fp4",
            backend=name,
            seconds=seconds,
            outputs_per_s=8 * k / seconds,
        )

    assert "numpy" in timings
    best = min(timings, key=timings.get)
    speedup = timings["numpy"] / timings[best]
    _record("gemm_backend_best", backend=best, speedup_vs_numpy=speedup)
    if not _QUICK:
        assert speedup >= 4.0, (
            f"fastest backend {best!r} only {speedup:.1f}x over numpy"
        )


def test_zz_write_results():
    """Persist the collected numbers (runs last by name)."""
    assert len(_results) > 1, "no kernel benchmarks recorded"
    _RESULTS_PATH.write_text(json.dumps(_results, indent=2) + "\n")
