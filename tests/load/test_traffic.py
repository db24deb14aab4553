"""Traffic models and workload traces: shapes, seeds, digests."""

import numpy as np
import pytest

from repro.load import (
    LongDocSummarization,
    MixedTraffic,
    PoissonArrivals,
    SharedPrefixChat,
    Workload,
)


def _chat(**kw):
    return SharedPrefixChat(
        n_prefixes=3, prefix_tokens=32, suffix_tokens=(2, 6), **kw
    )


class TestSharedPrefixChat:
    def test_prompts_share_prefixes(self):
        specs = _chat().make(50, seed=0, vocab=512)
        prefixes = {s.prompt[:32].tobytes() for s in specs}
        assert len(prefixes) <= 3
        # With 50 draws over 3 prefixes, each recurs.
        assert len(prefixes) == 3

    def test_suffixes_vary(self):
        specs = _chat().make(20, seed=0, vocab=512)
        assert len({s.prompt.tobytes() for s in specs}) > 10

    def test_tier_and_lengths(self):
        specs = _chat().make(20, seed=1, vocab=512)
        for s in specs:
            assert s.tier == "interactive"
            assert 34 <= s.prompt_len <= 38
            assert s.max_new_tokens >= 1

    def test_seeded_reproducibility(self):
        a = _chat().make(30, seed=9, vocab=512)
        b = _chat().make(30, seed=9, vocab=512)
        assert all(
            np.array_equal(x.prompt, y.prompt)
            and x.max_new_tokens == y.max_new_tokens
            for x, y in zip(a, b)
        )

    def test_vocab_respected(self):
        specs = _chat().make(30, seed=0, vocab=17)
        for s in specs:
            assert s.prompt.max() < 17 and s.prompt.min() >= 0


class TestLongDocSummarization:
    def test_shapes_and_tier(self):
        specs = LongDocSummarization(doc_tokens=(40, 60)).make(
            20, seed=0, vocab=512
        )
        for s in specs:
            assert 40 <= s.prompt_len <= 60
            assert s.tier == "batch"

    def test_docs_unique(self):
        specs = LongDocSummarization().make(20, seed=0, vocab=512)
        assert len({s.prompt.tobytes() for s in specs}) == 20


class TestMixedTraffic:
    def test_mixture_contains_both(self):
        mix = MixedTraffic(
            [(0.5, _chat()), (0.5, LongDocSummarization(doc_tokens=(60, 80)))]
        )
        specs = mix.make(60, seed=0, vocab=512)
        tiers = {s.tier for s in specs}
        assert tiers == {"interactive", "batch"}

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            MixedTraffic([])
        with pytest.raises(ValueError):
            MixedTraffic([(0.0, _chat())])

    def test_reproducible(self):
        mix = MixedTraffic([(0.7, _chat()), (0.3, LongDocSummarization())])
        a = mix.make(40, seed=4, vocab=256)
        b = mix.make(40, seed=4, vocab=256)
        assert all(np.array_equal(x.prompt, y.prompt) for x, y in zip(a, b))


class TestWorkload:
    def _workload(self, seed=0, rate=100.0):
        return Workload(
            arrivals=PoissonArrivals(rate),
            traffic=_chat(),
            n_requests=50,
            seed=seed,
            vocab=512,
        )

    def test_build_merges_arrivals(self):
        trace = self._workload().build()
        assert len(trace) == 50
        arrivals = [s.arrival_s for s in trace]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] > 0

    def test_build_is_cached(self):
        wl = self._workload()
        assert wl.build() is wl.build()

    def test_digest_reproducible_across_instances(self):
        assert self._workload().digest() == self._workload().digest()

    def test_digest_sensitive_to_seed_and_scale(self):
        base = self._workload().digest()
        assert self._workload(seed=1).digest() != base
        assert self._workload(rate=200.0).digest() != base

    def test_describe_shape(self):
        d = self._workload().describe()
        assert d["arrivals"]["kind"] == "poisson"
        assert d["n_requests"] == 50
        assert d["tiers"] == {"interactive": 50}
        assert len(d["digest"]) == 64
