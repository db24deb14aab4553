"""Batched decode is batch-invariant: a request's logits and tokens do
not depend on what else shares its decode step.

One scheduler step makes one ``InferenceEngine.decode`` call over every
budgeted sequence, each extending its own ``KVCache``.  Every
projection is a per-row product, so each row must be *bit-identical*
(``np.array_equal``, not allclose) to decoding that sequence alone, for
any batch composition: ragged prompt lengths, sequences joining and
finishing on different steps, OPT and grouped-query Llama layouts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.models import CausalLM, get_model_config
from repro.serve.batching import ContinuousBatcher, Request
from repro.serve.engine import GenerationConfig, InferenceEngine
from repro.serve.prefix import PrefixKVCache

#: LayerNorm + sinusoidal positions, and RMSNorm + RoPE + GQA (2 KV heads).
MODELS = ("opt-1.3b", "llama-3-8b")


@pytest.fixture(scope="module")
def models():
    return {name: CausalLM(get_model_config(name), seed=0) for name in MODELS}


# (prompt length, step it joins on, tokens it decodes)
compositions = st.lists(
    st.tuples(st.integers(1, 24), st.integers(0, 4), st.integers(1, 6)),
    min_size=1,
    max_size=5,
)


@settings(max_examples=10, deadline=None)
@given(name=st.sampled_from(MODELS), specs=compositions, seed=st.integers(0, 2**16))
def test_batched_rows_equal_solo_decode(models, name, specs, seed):
    model = models[name]
    rng = np.random.default_rng(seed)
    seqs = []
    for prompt_len, join, n_new in specs:
        prompt = rng.integers(0, model.config.sim_vocab, size=prompt_len)
        seqs.append({"prompt": prompt, "join": join, "left": n_new})
    step = 0
    while any(s["left"] for s in seqs):
        for s in seqs:
            if s["join"] == step:
                # The batched cache reserves its positions up front; the
                # solo one grows by doubling: both must give equal bits.
                logits, s["cache"] = model.prefill(
                    s["prompt"], capacity=s["prompt"].size + s["left"]
                )
                _, s["solo"] = model.prefill(s["prompt"])
                s["token"] = int(np.argmax(logits[0, -1]))
        active = [s for s in seqs if s["join"] <= step and s["left"]]
        if active:
            rows = model.decode_step(
                np.array([s["token"] for s in active]), [s["cache"] for s in active]
            )
            for s, row in zip(active, rows):
                solo = model.decode_step(np.array([s["token"]]), [s["solo"]])[0]
                assert np.array_equal(row, solo)
                s["token"] = int(np.argmax(row))
                s["left"] -= 1
        step += 1


@settings(max_examples=6, deadline=None)
@given(
    name=st.sampled_from(MODELS),
    specs=st.lists(
        st.tuples(
            st.integers(1, 24),
            st.integers(0, 3),
            st.integers(1, 8),
            st.sampled_from(["interactive", "standard", "batch"]),
        ),
        min_size=1,
        max_size=6,
    ),
    budget=st.integers(24, 48),
    shared_prefix=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_greedy_streams_equal_generate(models, name, specs, budget, shared_prefix, seed):
    """Scheduler streams (tier priority, a budget that cuts the batch,
    prefix-cache hits) equal solo ``generate`` byte for byte."""
    model = models[name]
    rng = np.random.default_rng(seed)
    prefix = rng.integers(0, model.config.sim_vocab, size=8)
    engine = InferenceEngine(model, prefix_cache=PrefixKVCache(block_tokens=4))
    batcher = ContinuousBatcher(engine, max_batch_tokens=budget)
    pending = []
    for rid, (prompt_len, at, n_new, tier) in enumerate(specs):
        prompt = rng.integers(0, model.config.sim_vocab, size=prompt_len)
        if shared_prefix:
            prompt = np.concatenate([prefix, prompt])[:24]
        generation = GenerationConfig(max_new_tokens=n_new)
        pending.append((at, Request(rid, prompt, generation, 1.0, tier=tier)))
    step = 0
    while pending or batcher.has_work:
        for _, request in [p for p in pending if p[0] <= step]:
            batcher.submit(request)
        pending = [p for p in pending if p[0] > step]
        batcher.step()
        step += 1
    solo = InferenceEngine(model)
    for rid in range(len(specs)):
        state = batcher.finished(rid)
        expect = solo.generate(state.seq.prompt, state.seq.generation).generated
        assert state.seq.generated == expect


@pytest.mark.parametrize("name", MODELS)
def test_activation_quant_scales_each_sequence(name):
    """With SmoothQuant-style activation quantization on, a batched
    step scales every sequence by its own absmax, as a solo step does."""
    model = CausalLM(get_model_config(name), seed=0)
    model.act_quant_bits = 8
    prompts = [np.arange(n) % model.config.sim_vocab for n in (3, 11, 6)]
    batched = [model.prefill(p)[1] for p in prompts]
    solo = [model.prefill(p)[1] for p in prompts]
    tokens = np.array([5, 900, 17])
    rows = model.decode_step(tokens, batched)
    for b, cache in enumerate(solo):
        assert np.array_equal(rows[b], model.decode_step(tokens[b : b + 1], [cache])[0])


#: Streams of the scenario below as the per-request decode loop that
#: batched decode replaced produced them: seeded sampling draws from
#: the engine's RNG in pick order, so batching must not move a token.
SAMPLED = {
    ("opt-1.3b", 3): {
        0: [346, 346, 346, 346, 346, 346, 346],
        1: [363, 1020, 371, 886, 1942],
        2: [253, 1476, 869, 832, 832, 832, 832, 832, 832],
        3: [1801, 612, 612, 612, 13, 573],
    },
    ("yi-6b", 4): {
        0: [1943, 1994, 1671, 1836, 2012, 343, 1937],
        1: [1039, 184, 380, 980, 739],
        2: [1246, 1769, 883, 1983, 1226, 1386, 1035, 1010, 1002],
        3: [796, 1103, 1622, 1915, 1430, 261],
    },
}


@pytest.mark.parametrize("name,seed", sorted(SAMPLED))
def test_seeded_sampled_streams_unchanged(name, seed):
    engine = InferenceEngine(CausalLM(get_model_config(name), seed=0), seed=seed)
    batcher = ContinuousBatcher(engine, max_batch_tokens=40)
    rng = np.random.default_rng(5)
    for rid, (prompt_len, n_new) in enumerate([(9, 7), (20, 5), (3, 9), (14, 6)]):
        batcher.submit(
            Request(
                rid,
                rng.integers(0, 2048, size=prompt_len),
                GenerationConfig(max_new_tokens=n_new, temperature=1.3),
                submitted_at=1.0,
            )
        )
        if rid == 1:
            batcher.step()
    batcher.run_until_idle()
    got = {rid: batcher.finished(rid).seq.generated for rid in range(4)}
    assert got == SAMPLED[(name, seed)]


def test_one_decode_call_and_span_per_step(models):
    """A step decodes its whole batch in one engine call, inside one
    ``serve.decode`` span that names every request in it."""
    engine = InferenceEngine(models["opt-1.3b"])
    calls = []
    decode = engine.decode
    engine.decode = lambda seqs: calls.append(len(seqs)) or decode(seqs)
    batcher = ContinuousBatcher(engine, max_batch_tokens=64)
    for rid in range(3):
        batcher.submit(Request(rid, np.arange(4 + rid), GenerationConfig(max_new_tokens=3), 1.0))
    with obs.capture(tracing=True) as cap:
        batcher.step()  # prefills all three
        report = batcher.step()
    assert calls == [3]
    spans = [s for s in cap.spans if s["name"] == "serve.decode"]
    assert [s["args"]["requests"] for s in spans] == [report.decoded] == [[0, 1, 2]]
