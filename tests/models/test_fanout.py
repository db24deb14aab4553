"""The shared worker pool, and the results that fan out on it.

``repro.models.workers.fan_out`` runs independent parts on one thread
pool.  Every part makes the calls it would make on its own, so the
uncached batched forward and ``apply_quantizer`` give the same bits
with or without the pool; each check below is ``np.array_equal``.
(``kl_divergence_mean``'s row slices are held to its oracle in
``test_numerics_oracle.py``.)  The pool must also survive a fork, a
nested call and a raising part.

The forward splits only under a single-threaded BLAS, and the pool
runs inline on one CPU, so every test here runs with the BLAS thread
variable at 1 and at least two pool threads: the parts then run on
pool threads whatever the host.
"""

import multiprocessing
import sys
import threading
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.dtypes.registry import list_dtypes
from repro.models import CausalLM, get_model_config
from repro.models import transformer, workers
from repro.models.workers import fan_out
from repro.quant import QuantConfig, quantize_tensor

#: Forward-pass families: LayerNorm + sinusoidal (opt), RMSNorm + RoPE
#: (llama), grouped-query attention (yi) and LayerNorm + RoPE (phi).
MODELS = ("opt-1.3b", "llama-2-7b", "yi-6b", "phi-2b")
TIMEOUT_S = 120
REAL_POOL_SIZE = workers.pool_size()

_models = {}


def _model(name: str) -> CausalLM:
    if name not in _models:
        _models[name] = CausalLM(get_model_config(name), seed=0)
    return _models[name]


def _tokens(model: CausalLM, batch: int, seq: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, model.config.sim_vocab, size=(batch, seq))


@pytest.fixture(autouse=True)
def threaded_pool(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(workers, "pool_size", lambda: max(2, REAL_POOL_SIZE))


def _finishes(fn, timeout=TIMEOUT_S):
    """``fn()`` on a daemon thread; fail instead of hanging on a deadlock."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn()), daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"call did not finish within {timeout} s"
    assert out, "call raised"
    return out[0]


class TestFanOut:
    def test_order_and_values(self):
        assert fan_out(lambda i: i * i, range(37)) == [i * i for i in range(37)]
        assert fan_out(str, []) == []
        assert fan_out(str, iter([5])) == ["5"]

    def test_parts_run_on_pool_threads(self):
        names = set(fan_out(lambda _: threading.current_thread().name, range(8)))
        assert all(n.startswith("repro-fan-out") for n in names)

    def test_one_cpu_runs_inline(self, monkeypatch):
        monkeypatch.setattr(workers, "pool_size", lambda: 1)
        me = threading.current_thread()
        assert fan_out(lambda _: threading.current_thread(), range(4)) == [me] * 4

    def test_nested_call_runs_inline(self):
        def outer(i):
            here = threading.current_thread()
            inner = fan_out(lambda _: threading.current_thread(), range(3))
            return inner == [here] * 3

        assert all(_finishes(lambda: fan_out(outer, range(6))))

    def test_concurrent_first_calls_build_one_pool(self, monkeypatch):
        """Callers racing to the first fan-out share one pool, and each
        gets its own results."""
        built = []

        class CountingPool(workers.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(workers, "ThreadPoolExecutor", CountingPool)
        monkeypatch.setattr(workers, "_pool", None)
        results = {}

        def caller(c):
            results[c] = fan_out(lambda i: (c, i), range(50))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(c,)) for c in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(TIMEOUT_S)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
            for pool in built:
                pool.shutdown()
        assert len(built) == 1
        assert results == {c: [(c, i) for i in range(50)] for c in range(16)}

    def test_exception_propagates_and_pool_still_works(self):
        def part(i):
            if i == 3:
                raise ValueError("part 3 failed")
            return i

        with pytest.raises(ValueError, match="part 3 failed"):
            fan_out(part, range(8))
        assert fan_out(lambda i: -i, range(8)) == [-i for i in range(8)]


class TestBatchedForward:
    @pytest.mark.parametrize("seq", [1, 72])
    @pytest.mark.parametrize("batch", [2, 3, 5])
    @pytest.mark.parametrize("name", MODELS)
    def test_logits_equal_one_sequence_calls(self, name, batch, seq):
        model = _model(name)
        tokens = _tokens(model, batch, seq, seed=batch * 100 + seq)
        got = model.logits(tokens)
        solo = np.concatenate([model.logits(tokens[b : b + 1]) for b in range(batch)])
        assert got.shape == (batch, seq, model.config.sim_vocab)
        assert np.array_equal(got, solo)
        # ... and the whole batch in one pass, as the pool-free path ran it.
        assert np.array_equal(got, model._forward(tokens))

    @pytest.mark.parametrize("threads", ["2", "4"])
    def test_multi_threaded_blas_runs_the_batch_whole(self, monkeypatch, threads):
        """A multi-threaded BLAS already spreads each GEMM over the CPUs,
        so the forward does not fan out on top of it."""
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        monkeypatch.setattr(transformer, "fan_out", None)  # any call fails
        model = _model("opt-1.3b")
        tokens = _tokens(model, 3, 16)
        assert np.array_equal(model.logits(tokens), model._forward(tokens))

    def test_blas_threads_reads_the_first_set_variable(self, monkeypatch):
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        assert workers.blas_threads() == workers.pool_size()
        monkeypatch.setenv("MKL_NUM_THREADS", "3")
        assert workers.blas_threads() == 3
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        assert workers.blas_threads() == 1
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "0")  # not a thread count
        assert workers.blas_threads() == 1

    def test_act_quant_pass_stays_whole(self):
        """Per-tensor activation scales read the whole batch, so an
        act-quant pass equals the one-pass batch, not its rows."""
        model = _model("opt-1.3b")
        quant = CausalLM(model.config, seed=0, weights=model.weights)
        quant.act_quant_bits = 8
        tokens = _tokens(model, 3, 16)
        assert np.array_equal(quant.logits(tokens), quant._forward(tokens))

    def test_one_dimensional_tokens(self):
        model = _model("llama-2-7b")
        tokens = _tokens(model, 1, 9)
        assert np.array_equal(model.logits(tokens[0]), model.logits(tokens))


class TestApplyQuantizer:
    @pytest.fixture(scope="class")
    def block(self):
        """opt-1.3b with one decoder block: linears of several sizes."""
        full = _model("opt-1.3b")
        weights = {
            k: v
            for k, v in full.weights.items()
            if not k.startswith("layers.") or k.startswith("layers.0.")
        }
        return CausalLM(full.config, seed=0, weights=weights)

    @pytest.mark.parametrize("dtype", list_dtypes())
    def test_equals_quantize_tensor_per_linear(self, block, dtype):
        config = QuantConfig(dtype=dtype)
        quantized = block.apply_quantizer(lambda _n, w: quantize_tensor(w, config).w_deq)
        linears = block.named_linears()
        assert len({w.size for w in linears.values()}) > 1
        assert list(quantized.weights) == list(block.weights)
        for name, w in block.weights.items():
            if name in linears:
                assert np.array_equal(quantized.weights[name], quantize_tensor(w, config).w_deq), name
            else:
                assert quantized.weights[name] is w

    def test_names_stay_with_their_weights(self, block):
        quantized = block.apply_quantizer(lambda name, w: np.full(w.shape, len(name)))
        for name, w in block.named_linears().items():
            assert np.array_equal(quantized.weights[name], np.full(w.shape, len(name)))

    def test_quantizer_that_runs_a_batched_forward(self, block):
        """A part that fans out again runs its inner forward inline."""
        model = _model("llama-2-7b")
        tokens = _tokens(model, 3, 8)
        want = model.logits(tokens)

        def quantize(_name, w):
            assert np.array_equal(model.logits(tokens), want)
            return w

        quantized = _finishes(lambda: block.apply_quantizer(quantize))
        assert quantized.weights.keys() == block.weights.keys()

    def test_quantizer_exception_propagates(self, block):
        def quantize(name, w):
            if name.endswith("fc1"):
                raise RuntimeError(f"cannot quantize {name}")
            return w

        with pytest.raises(RuntimeError, match="cannot quantize layers.0.fc1"):
            block.apply_quantizer(quantize)
        assert block.apply_quantizer(lambda _n, w: w).weights.keys() == block.weights.keys()


def _forward_in_child(name, tokens):
    threads = fan_out(lambda _: threading.current_thread().name, range(4))
    return _model(name).logits(tokens), threads


def test_forked_child_runs_a_batched_forward():
    """A forked pipeline worker builds its own pool instead of waiting
    on the parent's threads, which do not exist in the child."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork start method on this platform")
    model = _model("opt-1.3b")
    tokens = _tokens(model, 4, 16)
    want = model.logits(tokens)  # the parent's pool is up
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
        got, threads = pool.submit(_forward_in_child, "opt-1.3b", tokens).result(
            timeout=TIMEOUT_S
        )
    assert np.array_equal(got, want)
    assert all(name.startswith("repro-fan-out") for name in threads)
