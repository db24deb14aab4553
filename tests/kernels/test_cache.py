"""Bounded LRU decode cache: budget, eviction, counters, lifetime."""

import gc
import weakref

import numpy as np
import pytest

from repro.kernels.cache import (
    DecodeCache,
    decode_cache,
    env_budget_bytes,
    reset_decode_cache,
)


class Holder:
    """A weakref-able stand-in for a packed tensor."""


def _arr(n_bytes):
    return np.zeros(n_bytes, dtype=np.uint8)


class TestDecodeCache:
    def test_hit_requires_matching_token(self):
        cache = DecodeCache(budget_bytes=1 << 20)
        obj = Holder()
        cache.put(obj, "terms", "tok-a", _arr(16))
        assert cache.get(obj, "terms", "tok-a") is not None
        assert cache.get(obj, "terms", "tok-b") is None
        assert cache.hits == 1 and cache.misses == 1

    def test_kinds_are_independent(self):
        cache = DecodeCache(budget_bytes=1 << 20)
        obj = Holder()
        a, b = _arr(8), _arr(8)
        cache.put(obj, "terms", "t", a)
        cache.put(obj, "fused", "t", b)
        assert cache.get(obj, "terms", "t") is a
        assert cache.get(obj, "fused", "t") is b
        assert cache.stats()["entries"] == 2

    def test_lru_eviction_under_budget(self):
        cache = DecodeCache(budget_bytes=256)
        objs = [Holder() for _ in range(3)]
        for o in objs:
            cache.put(o, "terms", "t", _arr(100))
        # 3 * 100 > 256: the least recently used entry was evicted.
        assert cache.stats()["entries"] == 2
        assert cache.evictions == 1
        assert cache.get(objs[0], "terms", "t") is None
        assert cache.get(objs[2], "terms", "t") is not None
        assert cache.total_bytes <= 256

    def test_get_refreshes_lru_order(self):
        cache = DecodeCache(budget_bytes=256)
        a, b, c = Holder(), Holder(), Holder()
        cache.put(a, "terms", "t", _arr(100))
        cache.put(b, "terms", "t", _arr(100))
        cache.get(a, "terms", "t")  # a becomes most recent
        cache.put(c, "terms", "t", _arr(100))  # evicts b, not a
        assert cache.get(a, "terms", "t") is not None
        assert cache.get(b, "terms", "t") is None

    def test_oversize_value_passes_through_uncached(self):
        cache = DecodeCache(budget_bytes=64)
        obj = Holder()
        big = _arr(1000)
        assert cache.put(obj, "terms", "t", big) is big
        assert cache.stats()["entries"] == 0
        assert cache.oversize == 1

    def test_entry_dies_with_its_object(self):
        cache = DecodeCache(budget_bytes=1 << 20)
        obj = Holder()
        cache.put(obj, "terms", "t", _arr(64))
        assert cache.stats()["entries"] == 1
        del obj
        gc.collect()
        assert cache.stats()["entries"] == 0
        assert cache.total_bytes == 0

    def test_dropped_cache_is_freed_while_its_object_lives(self):
        cache = DecodeCache(budget_bytes=1 << 20)
        obj = Holder()
        cache.put(obj, "terms", "t", _arr(64))
        cache_ref = weakref.ref(cache)
        del cache
        gc.collect()
        assert cache_ref() is None

    def test_tuple_values_counted_by_total_nbytes(self):
        cache = DecodeCache(budget_bytes=100)
        obj = Holder()
        cache.put(obj, "terms", "t", (_arr(40), _arr(40)))
        assert cache.total_bytes == 80
        obj2 = Holder()
        cache.put(obj2, "terms", "t", (_arr(60), _arr(60)))  # oversize
        assert cache.oversize == 1

    def test_budget_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_CACHE_MB", "2")
        assert DecodeCache().budget_bytes == 2 * 1024 * 1024
        monkeypatch.setenv("REPRO_KERNEL_CACHE_MB", "not-a-number")
        assert DecodeCache().budget_bytes == 256 * 1024 * 1024

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "1e308"])
    def test_budget_from_env_non_finite_falls_back(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_KERNEL_CACHE_MB", value)
        assert DecodeCache().budget_bytes == 256 * 1024 * 1024

    @pytest.mark.parametrize(
        "value,want_mb",
        [
            (None, 8),
            ("", 8),
            ("0", 0),
            ("-3", 0),
            ("0.5", 0.5),
            (" 2 ", 2),
            ("-nan", 8),
            ("inf", 8),
        ],
    )
    def test_env_budget_bytes(self, monkeypatch, value, want_mb):
        """The one parser both cache budgets use: unset, empty,
        unparsable or non-finite means the default; negative clamps."""
        if value is None:
            monkeypatch.delenv("REPRO_TEST_BUDGET_MB", raising=False)
        else:
            monkeypatch.setenv("REPRO_TEST_BUDGET_MB", value)
        got = env_budget_bytes("REPRO_TEST_BUDGET_MB", 8)
        assert isinstance(got, int) and got == int(want_mb * 1024 * 1024)

    def test_process_wide_reset(self):
        first = reset_decode_cache(budget_bytes=123)
        assert decode_cache() is first
        assert first.budget_bytes == 123
        second = reset_decode_cache()
        assert decode_cache() is second
        assert second is not first

    def test_reset_frees_the_replaced_cache(self):
        obj = Holder()
        try:
            old = reset_decode_cache()
            old.put(obj, "fused", "t", _arr(64))
            old_ref = weakref.ref(old)
            del old
            reset_decode_cache()
            gc.collect()
            assert old_ref() is None
        finally:
            reset_decode_cache()

    def test_counters_surface_in_obs_snapshot(self):
        from repro import obs

        obs.reset()
        cache = DecodeCache(budget_bytes=1 << 20)
        obj = Holder()
        cache.get(obj, "terms", "t")
        cache.put(obj, "terms", "t", _arr(8))
        cache.get(obj, "terms", "t")
        snap = obs.snapshot()
        counters = snap["counters"]
        assert counters["kernels.decode.hits{kind=terms}"] >= 1
        assert counters["kernels.decode.misses{kind=terms}"] >= 1
        assert snap["gauges"]["kernels.decode.bytes"] == 8


class TestDecodeCacheIntegration:
    def test_term_decode_budget_zero_disables_caching(self, rng):
        from repro.hw.termtable import decode_packed_terms
        from repro.quant.config import QuantConfig
        from repro.quant.packing import pack_tensor

        cfg = QuantConfig(dtype="bitmod_fp4", group_size=32)
        packed = pack_tensor(rng.standard_normal((2, 64)), cfg)
        try:
            cache = reset_decode_cache(budget_bytes=0)
            decode_packed_terms(packed, cfg.resolve_dtype())
            assert cache.stats()["entries"] == 0
            assert cache.oversize >= 1
        finally:
            reset_decode_cache()
