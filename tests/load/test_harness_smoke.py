"""End-to-end load smoke: a ~200-request Poisson run against a live
server, with sheds, expiries, prefix-cache hits, and the byte-identity
acceptance check between the cached and uncached decode paths."""

import numpy as np
import pytest

from repro.load import (
    BurstyArrivals,
    PoissonArrivals,
    SharedPrefixChat,
    Workload,
    run_load,
)
from repro.serve import InferenceEngine, PrefixKVCache


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
        result = run_load(
            engine,
            _chat_workload(200, rate=2000.0),
            max_batch_tokens=256,
        )
        summary = result.summary()
        assert summary["n_requests"] == 200
        assert summary["lost"] == 0
        assert summary["errors"] == 0
        assert (
            summary["completed"] + summary["shed"] + summary["expired"] == 200
        )
        # No admission bound and no deadlines: everything completes.
        assert summary["completed"] == 200
        assert summary["prefix_cache"]["hits"] > 0
        assert summary["tokens_per_s"] > 0
        # The server's own accounting agrees with the records.
        assert result.metrics["requests"]["completed"] == 200
        # TTFT/TBT/latency populated for completed requests.
        assert summary["ttft"]["count"] == 200
        assert summary["tbt"]["p50_s"] >= 0

    def test_burst_against_tight_queue_sheds_structurally(self, tiny_model):
        """A burst into a tiny admission queue sheds requests as
        Overloaded — recorded as "shed", never a lost task."""
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
        result = run_load(
            engine, workload, max_batch_tokens=64, max_waiting=4
        )
        summary = result.summary()
        assert summary["lost"] == 0
        assert summary["errors"] == 0
        assert summary["shed"] > 0
        assert summary["completed"] > 0
        assert summary["completed"] + summary["shed"] == 120
        assert 0 < summary["shed_rate"] < 1

    def test_tight_deadlines_expire_structurally(self, tiny_model):
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
        result = run_load(engine, workload, max_batch_tokens=128)
        summary = result.summary()
        assert summary["lost"] == 0
        assert summary["errors"] == 0
        assert summary["expired"] > 0
        assert summary["expired"] + summary["completed"] == 30


class TestPrefixByteIdentity:
    def test_outputs_byte_identical_with_and_without_cache(self, tiny_config):
        """The acceptance criterion: shared-prefix traffic served
        through the prefix cache produces decode streams identical to
        the cache-disabled path, request for request."""
        from repro.models import CausalLM

        workload = _chat_workload(60, seed=5, rate=3000.0)
        with_cache = run_load(
            InferenceEngine(
                CausalLM(tiny_config, seed=0), prefix_cache=PrefixKVCache()
            ),
            workload,
            max_batch_tokens=256,
        )
        without_cache = run_load(
            InferenceEngine(CausalLM(tiny_config, seed=0)),
            workload,
            max_batch_tokens=256,
        )
        assert with_cache.completed == 60 and without_cache.completed == 60
        cached = {r.index: r.tokens for r in with_cache.records}
        plain = {r.index: r.tokens for r in without_cache.records}
        assert cached == plain
        stats = with_cache.prefix_stats
        assert stats["hits"] > 0
        assert without_cache.prefix_stats is None
