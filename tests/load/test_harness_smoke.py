"""End-to-end load replays on the modeled clock: a 200-request Poisson
run, sheds, expiries, prefix-cache hits, the byte-identity acceptance
check between the cached and uncached decode paths, and the
determinism and pricing contracts of :func:`repro.load.replay`.

Outcomes are a pure function of (trace digest, engine, batcher
settings), so every count below is exact."""

import time

import pytest

from repro import obs
from repro.load import (
    BurstyArrivals,
    PoissonArrivals,
    SharedPrefixChat,
    Workload,
    replay,
)
from repro.models import CausalLM, get_model_config
from repro.quant.config import QuantConfig
from repro.quant.kv import KVQuantConfig
from repro.serve import InferenceEngine, PrefixKVCache
from repro.serve.artifact import save_artifact


def _chat_workload(n, seed=0, rate=5000.0, **chat_kw):
    chat_kw.setdefault("n_prefixes", 3)
    chat_kw.setdefault("prefix_tokens", 32)
    chat_kw.setdefault("suffix_tokens", (2, 6))
    chat_kw.setdefault("max_new_tokens", (2, 6))
    return Workload(
        arrivals=PoissonArrivals(rate),
        traffic=SharedPrefixChat(**chat_kw),
        n_requests=n,
        seed=seed,
        vocab=512,
    )


class TestPoissonSmoke:
    def test_200_requests_all_accounted(self, tiny_model):
        """Every request resolves as completed/shed/expired — zero
        lost, zero unstructured errors — and shared prefixes hit."""
        engine = InferenceEngine(tiny_model, prefix_cache=PrefixKVCache())
        result = replay(
            engine,
            _chat_workload(200, rate=2000.0),
            max_batch_tokens=256,
        )
        summary = result.summary()
        assert summary["n_requests"] == 200
        assert summary["lost"] == 0
        assert summary["errors"] == 0
        # No admission bound and no deadlines: everything completes.
        assert summary["completed"] == 200
        assert summary["shed"] == 0 and summary["expired"] == 0
        # Three shared prefixes: the first two requests over each miss
        # (the second stores the prefix they share).
        assert summary["prefix_cache"]["hits"] == 194
        assert summary["prefix_cache"]["misses"] == 6
        assert summary["decode_tokens"] == 808
        # The batcher's own accounting agrees with the records.
        assert result.metrics["requests"]["completed"] == 200
        # TTFT/TBT/latency populated for completed requests.
        assert summary["ttft"]["count"] == 200
        assert summary["tbt"]["p50_s"] > 0

    def test_burst_against_tight_queue_sheds_structurally(self, tiny_model):
        """A burst into a tiny admission queue sheds requests as
        Overloaded — recorded as "shed", never a lost request."""
        engine = InferenceEngine(tiny_model)
        workload = Workload(
            arrivals=BurstyArrivals(50_000.0, burst_size=16),
            traffic=SharedPrefixChat(
                n_prefixes=2, prefix_tokens=24, suffix_tokens=(2, 4),
                max_new_tokens=(8, 16), tier="standard",
            ),
            n_requests=120,
            seed=1,
            vocab=512,
        )
        result = replay(
            engine, workload, max_batch_tokens=64, max_waiting=4
        )
        summary = result.summary()
        assert summary["lost"] == 0
        assert summary["errors"] == 0
        assert summary["shed"] == 115
        assert summary["completed"] == 5
        assert result.metrics["requests"]["rejected"] == 115

    def test_tight_deadlines_expire_structurally(self, tiny_model):
        """A 10 ms deadline is shorter than one modeled opt-1.3b pass:
        the first request is evicted after its first token, the rest
        while still queued."""
        engine = InferenceEngine(tiny_model)
        workload = Workload(
            arrivals=PoissonArrivals(5000.0),
            traffic=SharedPrefixChat(
                n_prefixes=2, prefix_tokens=24, suffix_tokens=(2, 4),
                max_new_tokens=(32, 48), deadline_s=0.01,
            ),
            n_requests=30,
            seed=2,
            vocab=512,
        )
        result = replay(engine, workload, max_batch_tokens=128)
        summary = result.summary()
        assert summary["lost"] == 0
        assert summary["errors"] == 0
        assert summary["expired"] == 30
        assert summary["completed"] == 0
        assert [r.n_generated for r in result.records] == [1] + [0] * 29
        assert all(r.tokens is None for r in result.records)


    def test_rejected_submission_recorded_as_error(self, tiny_model):
        """A request the batcher refuses for a reason other than load
        (here a prompt longer than the step budget) is an "error"
        record carrying the exception's repr, never a lost request."""
        result = replay(
            InferenceEngine(tiny_model), _chat_workload(10, seed=4),
            max_batch_tokens=37,
        )
        errors = result.by_outcome("error")
        assert [r.index for r in errors] == [1, 2, 3, 5, 7]
        assert all("38 tokens exceeds the per-step budget" in r.error for r in errors)
        assert result.completed == 5
        assert result.summary()["lost"] == 0


class TestPrefixByteIdentity:
    @pytest.mark.parametrize(
        "kv_quant",
        [None, KVQuantConfig(bits=8), KVQuantConfig(bits=4)],
        ids=lambda kv: "fp" if kv is None else f"int{kv.bits}",
    )
    @pytest.mark.parametrize("model_name", ["opt-1.3b", "llama-2-7b"])
    def test_outputs_byte_identical_with_and_without_cache(
        self, tiny_configs, model_name, kv_quant
    ):
        """The acceptance criterion: shared-prefix traffic served
        through the prefix cache produces decode streams identical to
        the cache-disabled path, request for request, KV-quantized or
        not."""
        config = tiny_configs[model_name]
        workload = _chat_workload(60, seed=5, rate=3000.0)
        with_cache = replay(
            InferenceEngine(
                CausalLM(config, seed=0),
                kv_quant=kv_quant,
                prefix_cache=PrefixKVCache(),
            ),
            workload,
            max_batch_tokens=256,
        )
        without_cache = replay(
            InferenceEngine(CausalLM(config, seed=0), kv_quant=kv_quant),
            workload,
            max_batch_tokens=256,
        )
        assert with_cache.completed == 60 and without_cache.completed == 60
        cached = {r.index: r.tokens for r in with_cache.records}
        plain = {r.index: r.tokens for r in without_cache.records}
        assert cached == plain
        stats = with_cache.prefix_stats
        assert stats["hits"] == 54 and stats["misses"] == 6
        assert without_cache.prefix_stats is None
        # Prefix hits skip modeled prefill work.
        assert with_cache.wall_s < without_cache.wall_s


class TestDeterminism:
    def test_1000_request_trace_replays_to_equal_records(self, tiny_config):
        """Per-request outcomes are a pure function of (trace digest,
        engine, batcher settings): two replays agree record for
        record, and a different seed moves them."""

        def run(seed):
            engine = InferenceEngine(
                CausalLM(tiny_config, seed=0), prefix_cache=PrefixKVCache()
            )
            workload = Workload(
                arrivals=PoissonArrivals(400.0),
                traffic=SharedPrefixChat(),
                n_requests=1000,
                seed=seed,
                vocab=512,
            )
            return replay(engine, workload, max_batch_tokens=256)

        t0 = time.perf_counter()
        first, second = run(0), run(0)
        elapsed = time.perf_counter() - t0
        assert first.summary()["lost"] == 0
        assert first.completed == 1000
        assert first.records == second.records
        assert first.wall_s == second.wall_s
        assert elapsed < 10.0, f"two 1000-request replays took {elapsed:.1f}s"
        assert run(1).records != first.records


class TestTracedReplay:
    def test_request_spans_contain_their_prefill(self, tiny_model):
        """``serve.request`` spans run on host time, like the step and
        prefill spans: each lies inside the replay's host window and
        contains its own ``serve.prefill`` span, while its modeled
        latency rides along as an arg."""
        engine = InferenceEngine(tiny_model, prefix_cache=PrefixKVCache())
        start_ns = time.time_ns()
        with obs.capture(tracing=True) as cap:
            result = replay(engine, _chat_workload(50), max_batch_tokens=256)
        end_ns = time.time_ns()
        requests = {s["args"]["request"]: s for s in cap.spans if s["name"] == "serve.request"}
        prefills = {s["args"]["request"]: s for s in cap.spans if s["name"] == "serve.prefill"}
        assert result.completed == 50
        assert sorted(requests) == sorted(prefills) == list(range(50))
        for rid, req in requests.items():
            pre = prefills[rid]
            assert start_ns <= req["ts_ns"] <= pre["ts_ns"]
            assert pre["ts_ns"] + pre["dur_ns"] <= req["ts_ns"] + req["dur_ns"] <= end_ns
            assert req["args"]["latency_s"] == result.records[rid].latency_s


class TestDerivedPricing:
    def test_bitmod_fp4_artifact_replays_faster_than_fp16(self, tmp_path):
        """Step cost comes from the accelerator model: the same trace
        on a 4-bit BitMoD artifact takes less modeled time than on the
        unquantized model priced on the FP16 baseline."""
        workload = _chat_workload(40, seed=3, rate=2000.0)
        # Artifacts rebuild their model from the zoo config by name.
        model = CausalLM(get_model_config("opt-1.3b"), seed=0)
        artifact = save_artifact(
            tmp_path / "m.rpro", model, QuantConfig(dtype="bitmod_fp4")
        )
        fp16 = replay(InferenceEngine(model), workload, max_batch_tokens=256)
        fp4 = replay(
            InferenceEngine.from_artifact(artifact), workload, max_batch_tokens=256
        )
        assert fp16.completed == fp4.completed == 40
        assert fp4.wall_s < fp16.wall_s
