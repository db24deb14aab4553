"""Prefix-sharing KV cache: LRU/budget mechanics and engine integration."""

import dataclasses

import numpy as np
import pytest

from repro.models import CausalLM, get_model_config
from repro.quant.kv import KVQuantConfig
from repro.serve import InferenceEngine, PrefixKVCache, prefix
from repro.serve.engine import GenerationConfig
from repro.serve.prefix import DEFAULT_BLOCK_TOKENS, SEEN_DIGESTS


class FakeKV:
    """Stands in for a prefilled KVCache: snapshot() of known size, and
    a record of every length it was asked to copy."""

    def __init__(self, bytes_per_token: int = 8):
        self.bytes_per_token = bytes_per_token
        self.copied = []

    def _elements(self) -> int:
        return max(self.bytes_per_token // 2 // 8, 1)  # float64 elements

    def snapshot_nbytes(self, length: int) -> int:
        return 2 * length * self._elements() * 8

    def snapshot(self, length: int):
        self.copied.append(length)
        k = np.zeros((1, 1, length, self._elements()))
        return [(k, k.copy())]


def _prompt(n, start=0):
    return np.arange(start, start + n, dtype=np.int64)


def _offered_twice(cache, prompt, kv=None):
    """Offer ``prompt`` twice: the second offer finds the first's
    digests, so it stores the prompt's longest aligned strict prefix."""
    kv = FakeKV() if kv is None else kv
    assert cache.insert(prompt, kv) == 0
    return cache.insert(prompt, kv)


class TestLookupSemantics:
    def test_insert_stores_block_aligned_length(self):
        cache = PrefixKVCache(block_tokens=16)
        assert _offered_twice(cache, _prompt(40)) == 32
        assert len(cache) == 1

    def test_lookup_returns_longest_strict_prefix(self):
        cache = PrefixKVCache(block_tokens=16)
        _offered_twice(cache, _prompt(40))  # stores the 32-token prefix
        hit = cache.lookup(_prompt(40))
        assert hit is not None
        length, snapshot = hit
        assert length == 32
        assert snapshot[0][0].shape[2] == 32

    def test_strict_prefix_leaves_a_tail_token(self):
        # A 32-token prompt must NOT match a 32-token entry even when
        # one exists: the caller needs at least one tail token to
        # forward itself and sample the first output.
        cache = PrefixKVCache(block_tokens=16)
        assert _offered_twice(cache, _prompt(36)) == 32
        assert cache.insert(_prompt(20), FakeKV()) == 16  # shares 16 with it
        length, _ = cache.lookup(_prompt(32))
        assert length == 16

    def test_short_prompt_stores_nothing(self):
        cache = PrefixKVCache(block_tokens=16)
        assert cache.insert(_prompt(15), FakeKV()) == 0
        assert len(cache) == 0

    def test_different_tokens_never_match(self):
        cache = PrefixKVCache(block_tokens=4)
        assert _offered_twice(cache, _prompt(8)) == 4
        assert cache.lookup(_prompt(8, start=100)) is None
        assert cache.misses == 1

    def test_match_len_is_a_pure_peek(self):
        cache = PrefixKVCache(block_tokens=4)
        _offered_twice(cache, _prompt(9))  # stores the 8-token prefix
        hits, misses = cache.hits, cache.misses
        assert cache.match_len(_prompt(9)) == 8
        assert cache.match_len(_prompt(3)) == 0
        assert (cache.hits, cache.misses) == (hits, misses)

    def test_hit_miss_counters_and_stats(self):
        cache = PrefixKVCache(block_tokens=4)
        _offered_twice(cache, _prompt(9))
        cache.lookup(_prompt(9))  # hit (8)
        cache.lookup(_prompt(4, start=50))  # miss
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["entries"] == 1
        assert stats["inserts"] == 1

    def test_default_block_size_exported(self):
        assert PrefixKVCache().block_tokens == DEFAULT_BLOCK_TOKENS


class TestAdmission:
    """A prefix is stored only once a second prompt shares it."""

    def test_unique_prompts_store_nothing(self):
        cache = PrefixKVCache(block_tokens=16)
        kv = FakeKV()
        for i in range(20):
            assert cache.insert(_prompt(100, start=1000 * i), kv) == 0
        assert cache.total_bytes == 0 and cache.inserts == 0 and len(cache) == 0
        assert kv.copied == []

    def test_second_sharer_stores_the_shared_length_and_the_third_hits(self):
        cache = PrefixKVCache(block_tokens=16)
        shared = _prompt(40)
        first, second, third = (
            np.concatenate([shared, _prompt(n, start=start)])
            for n, start in ((3, 900), (2, 800), (1, 700))
        )
        assert cache.lookup(first) is None
        assert cache.insert(first, FakeKV()) == 0
        assert cache.lookup(second) is None
        kv = FakeKV()
        assert cache.insert(second, kv) == 32  # 40 shared tokens, aligned down
        assert kv.copied == [32]
        assert cache.lookup(third)[0] == 32
        assert (cache.hits, cache.misses, cache.inserts) == (1, 2, 1)

    def test_repeated_identical_prompt_hits(self):
        cache = PrefixKVCache(block_tokens=16)
        prompt = _prompt(48)
        for _ in range(2):
            assert cache.lookup(prompt) is None
            cache.insert(prompt, FakeKV())
        # Strict: the stored prefix leaves the identical prompt a tail.
        assert cache.lookup(prompt)[0] == 32

    def test_multi_turn_extension_hits(self):
        """Each turn's prompt extends the last one; from the third turn
        on, every turn hits what the turn before it shared."""
        cache = PrefixKVCache(block_tokens=16)
        conversation = _prompt(20)
        hits = []
        for turn in range(5):
            hit = cache.lookup(conversation)
            hits.append(0 if hit is None else hit[0])
            cache.insert(conversation, FakeKV())
            conversation = np.concatenate([conversation, _prompt(20, start=100 * (turn + 1))])
        assert hits == [0, 0, 16, 32, 48]

    def test_digest_lru_respects_its_bound(self, monkeypatch):
        cache = PrefixKVCache(block_tokens=4)
        for i in range(SEEN_DIGESTS // 10 + 5):  # 10 digests a prompt
            cache.insert(_prompt(40, start=100 * i), FakeKV())
        assert len(cache._seen) == SEEN_DIGESTS

        monkeypatch.setattr(prefix, "SEEN_DIGESTS", 8)
        cache = PrefixKVCache(block_tokens=4)
        cache.insert(_prompt(20), FakeKV())  # 5 digests
        cache.insert(_prompt(20, start=100), FakeKV())  # 5 more: 2 evicted
        assert len(cache._seen) == 8
        first = cache._block_digests(_prompt(20))
        assert not any(d in cache._seen for d in first[:2])  # oldest two
        assert all(d in cache._seen for d in first[2:])
        cache.insert(_prompt(40, start=200), FakeKV())  # 10 digests: all new
        assert cache.insert(_prompt(20, start=100), FakeKV()) == 0
        assert len(cache._seen) == 8

    def test_lookup_and_match_len_record_nothing(self):
        cache = PrefixKVCache(block_tokens=16)
        prompt = _prompt(40)
        for _ in range(3):
            assert cache.lookup(prompt) is None
            assert cache.match_len(prompt) == 0
        assert len(cache._seen) == 0
        assert cache.insert(prompt, FakeKV()) == 0  # still a first offer

    def test_digest_collision_never_hits_other_tokens(self, monkeypatch):
        """With every prompt's digests colliding, unrelated prompts are
        admitted, but a lookup still matches exact token bytes only."""
        cache = PrefixKVCache(block_tokens=4)
        monkeypatch.setattr(
            cache, "_block_digests", lambda p: [b"same"] * (p.size // 4)
        )
        cache.insert(_prompt(9), FakeKV())
        assert cache.insert(_prompt(9, start=100), FakeKV()) == 8  # extra insert
        assert cache.lookup(_prompt(9, start=500)) is None
        assert cache.lookup(_prompt(9, start=100))[0] == 8


class TestBudgetAndLRU:
    def test_byte_budget_evicts_lru(self):
        kv = FakeKV(bytes_per_token=16)
        per_entry = kv.snapshot_nbytes(4)
        cache = PrefixKVCache(block_tokens=4, budget_bytes=2 * per_entry)
        _offered_twice(cache, _prompt(5, start=0), kv)
        _offered_twice(cache, _prompt(5, start=10), kv)
        _offered_twice(cache, _prompt(5, start=20), kv)  # evicts the oldest
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.total_bytes <= cache.budget_bytes
        assert cache.match_len(_prompt(5, start=0)) == 0  # evicted
        assert cache.match_len(_prompt(5, start=20)) == 4

    def test_lookup_refreshes_lru_position(self):
        kv = FakeKV(bytes_per_token=16)
        per_entry = kv.snapshot_nbytes(4)
        cache = PrefixKVCache(block_tokens=4, budget_bytes=2 * per_entry)
        _offered_twice(cache, _prompt(5, start=0), kv)
        _offered_twice(cache, _prompt(5, start=10), kv)
        cache.lookup(_prompt(5, start=0))  # entry 0 is now most recent
        _offered_twice(cache, _prompt(5, start=20), kv)
        assert cache.match_len(_prompt(5, start=0)) == 4  # survived
        assert cache.match_len(_prompt(5, start=10)) == 0  # evicted

    def test_oversize_snapshot_refused_before_copying(self):
        cache = PrefixKVCache(block_tokens=4, budget_bytes=8)
        kv = FakeKV(bytes_per_token=1024)
        assert _offered_twice(cache, _prompt(5), kv) == 0
        assert len(cache) == 0
        assert cache.oversize == 1
        assert kv.copied == []  # sized from shapes, never copied

    def test_reinsert_refreshes_without_duplicating(self):
        cache = PrefixKVCache(block_tokens=4)
        _offered_twice(cache, _prompt(9))
        before = cache.total_bytes
        kv = FakeKV()
        assert cache.insert(_prompt(9), kv) == 8
        assert len(cache) == 1
        assert cache.total_bytes == before
        assert cache.inserts == 1
        assert kv.copied == []

    def test_clear_resets_storage(self):
        cache = PrefixKVCache(block_tokens=4)
        _offered_twice(cache, _prompt(8))
        cache.clear()
        assert len(cache) == 0
        assert cache.total_bytes == 0
        assert cache.insert(_prompt(8), FakeKV()) == 0  # digests forgotten too

    def test_env_budget_parsed(self, monkeypatch):
        monkeypatch.setenv("REPRO_PREFIX_CACHE_MB", "2")
        assert PrefixKVCache().budget_bytes == 2 * 1024 * 1024
        monkeypatch.setenv("REPRO_PREFIX_CACHE_MB", "garbage")
        assert PrefixKVCache().budget_bytes == 64 * 1024 * 1024

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "1e308"])
    def test_env_budget_non_finite_falls_back(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_PREFIX_CACHE_MB", value)
        assert PrefixKVCache().budget_bytes == 64 * 1024 * 1024

    def test_invalid_block_tokens_rejected(self):
        with pytest.raises(ValueError):
            PrefixKVCache(block_tokens=0)


def _shrunk(model_name):
    return dataclasses.replace(
        get_model_config(model_name),
        sim_layers=2,
        sim_hidden=64,
        sim_heads=4,
        sim_kv_heads=4,
        sim_intermediate=128,
        sim_vocab=512,
    )


@pytest.fixture(scope="module")
def small_model_config():
    return _shrunk("opt-1.3b")


KV_QUANTS = [None, KVQuantConfig(bits=8), KVQuantConfig(bits=4)]


def _kv_id(kv):
    return "fp" if kv is None else f"int{kv.bits}"


class TestEngineIntegration:
    @pytest.mark.parametrize("kv_quant", KV_QUANTS, ids=_kv_id)
    @pytest.mark.parametrize("model_name", ["opt-1.3b", "llama-2-7b"])
    def test_shared_prefix_outputs_byte_identical(self, model_name, kv_quant):
        """The acceptance bar: cached-prefix decode streams equal the
        cache-disabled path token for token, KV-quantized or not."""
        config = _shrunk(model_name)
        rng = np.random.default_rng(0)
        prefix = rng.integers(0, 512, size=48)
        prompts = [
            np.concatenate([prefix, rng.integers(0, 512, size=n)])
            for n in (5, 9, 13, 7, 11)
        ]
        gen = GenerationConfig(max_new_tokens=12)

        plain = InferenceEngine(CausalLM(config, seed=0), kv_quant=kv_quant)
        shared = InferenceEngine(
            CausalLM(config, seed=0), kv_quant=kv_quant, prefix_cache=PrefixKVCache()
        )
        reused = 0
        for prompt in prompts:
            baseline = plain.generate(prompt, gen).generated
            seq = shared.start_sequence(prompt, gen)
            shared.prefill(seq)
            while not seq.done:
                shared.decode([seq])
            assert seq.generated == baseline
            reused += seq.prefix_hit_tokens
        stats = shared.prefix_cache.stats()
        # The first two prompts miss: the second stores the shared prefix.
        assert stats["hits"] >= len(prompts) - 2
        # Later requests actually skipped prefill work.
        assert reused >= 48 * (len(prompts) - 2)

    def test_stored_snapshot_never_written(self, small_model_config):
        """Two sequences seeded from one stored prefix decode past it
        together (in-place appends into their own buffers); the stored
        entry stays byte-identical."""
        engine = InferenceEngine(
            CausalLM(small_model_config, seed=0), prefix_cache=PrefixKVCache()
        )
        prefix = np.arange(32, dtype=np.int64)
        gen = GenerationConfig(max_new_tokens=6)
        for tail in ([40], [41]):  # the second one stores the shared prefix
            engine.prefill(engine.start_sequence(np.concatenate([prefix, tail]), gen))
        _, stored = engine.prefix_cache.lookup(np.concatenate([prefix, [0]]))
        before = [(k.tobytes(), v.tobytes()) for k, v in stored]
        seqs = [
            engine.start_sequence(np.concatenate([prefix, tail]), gen)
            for tail in ([50, 51], [60])
        ]
        for seq in seqs:
            engine.prefill(seq)
            assert seq.prefix_hit_tokens == 32
        while not seqs[0].done:
            engine.decode(seqs)
        assert [(k.tobytes(), v.tobytes()) for k, v in stored] == before

    def test_prefix_hit_tokens_recorded(self, small_model_config):
        engine = InferenceEngine(
            CausalLM(small_model_config, seed=0), prefix_cache=PrefixKVCache()
        )
        prefix = np.arange(32, dtype=np.int64)
        first = engine.start_sequence(np.concatenate([prefix, [40, 41]]))
        engine.prefill(first)
        assert first.prefix_hit_tokens == 0  # cold
        second = engine.start_sequence(np.concatenate([prefix, [50]]))
        engine.prefill(second)
        assert second.prefix_hit_tokens == 0  # stores the shared prefix
        third = engine.start_sequence(np.concatenate([prefix, [60, 61, 62]]))
        engine.prefill(third)
        assert third.prefix_hit_tokens == 32

    def test_snapshot_sized_without_copying(self, small_model_config):
        model = CausalLM(small_model_config, seed=0)
        _, cache = model.prefill(np.arange(40, dtype=np.int64), capacity=64)
        for length in (1, 16, 40):
            copied = cache.snapshot(length)
            assert cache.snapshot_nbytes(length) == sum(
                k.nbytes + v.nbytes for k, v in copied
            )
