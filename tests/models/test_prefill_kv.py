"""A cached prefill computes what its first token needs and caches what
decode needs.

A cached pass over several new positions runs the final layer's query
side (q_proj, attention, o_proj, MLP), the final norm and the LM head
on the last new position only.  Every layer's K/V still covers every
position, and must equal the full forward's projections bit for bit:
decode reads them for the rest of the sequence.  With activation
quantization the pass runs in full (per-sequence scales read every
position), so its row equals the uncached forward's bit for bit.
"""

import copy

import numpy as np
import pytest

from repro.models import CausalLM, KVCache, get_model_config, list_models
from repro.models.layers import apply_rope, linear, rope_cache
from repro.models.transformer import KVBatch


@pytest.fixture(scope="module", params=list_models())
def model(request):
    return CausalLM(get_model_config(request.param), seed=0)


def _prompt(model, size=23, seed=5):
    return np.random.default_rng(seed).integers(0, model.config.sim_vocab, size=size)


def _full_forward_kv(model, prompt, layer):
    """Layer ``layer``'s K/V from the uncached forward's collected
    activations: ``(1, kv_heads, seq, head_dim)``, RoPE applied to K."""
    cfg = model.config
    xn = model.collect_activations(prompt)[f"layers.{layer}.k_proj"]
    out = []
    for name in ("k_proj", "v_proj"):
        t = linear(xn, model.weights[f"layers.{layer}.{name}"])
        t = t.reshape(1, len(prompt), cfg.sim_kv_heads, cfg.sim_head_dim())
        out.append(t.transpose(0, 2, 1, 3))
    k, v = out
    if cfg.family != "opt":
        cos, sin = rope_cache(len(prompt), cfg.sim_head_dim())
        k = apply_rope(k, cos, sin)
    return k, v


def test_cached_kv_equals_full_forward_projections(model):
    prompt = _prompt(model)
    _, cache = model.prefill(prompt)
    assert cache.seq_len == len(prompt)
    for layer, (k, v) in enumerate(cache.snapshot(len(prompt))):
        want_k, want_v = _full_forward_kv(model, prompt, layer)
        assert np.array_equal(k, want_k), f"layer {layer} K"
        assert np.array_equal(v, want_v), f"layer {layer} V"


def test_prefill_returns_the_last_position(model):
    prompt = _prompt(model)
    logits, _ = model.prefill(prompt)
    assert logits.shape == (1, 1, model.config.sim_vocab)
    full = model.logits(prompt)
    np.testing.assert_allclose(logits[0, -1], full[0, -1], rtol=1e-8, atol=1e-8)


def test_prefix_hit_tail_caches_every_position(model):
    """The tail pass after a prefix hit is a multi-position cached pass
    too: it returns one row and caches every tail position.  Its
    products have fewer rows than a cold prefill's, so the tail K/V
    agree with the cold ones to BLAS accumulation order only."""
    prompt = _prompt(model)
    _, cold = model.prefill(prompt)
    _, head = model.prefill(prompt[:16])
    warm = KVCache.from_snapshot(head.snapshot(16))
    logits = model.logits(prompt[16:], cache=warm)
    assert logits.shape == (1, 1, model.config.sim_vocab)
    assert warm.seq_len == len(prompt)
    full = model.logits(prompt)
    np.testing.assert_allclose(logits[0, -1], full[0, -1], rtol=1e-8, atol=1e-8)
    for (k, v), (ck, cv) in zip(warm.snapshot(len(prompt)), cold.snapshot(len(prompt))):
        np.testing.assert_allclose(k, ck, rtol=1e-8, atol=1e-8)
        np.testing.assert_allclose(v, cv, rtol=1e-8, atol=1e-8)


def test_multi_row_pass_returns_one_row_per_sequence(model):
    """A batched multi-position pass returns each row's last position
    and caches each row's positions as a solo pass does."""
    prompts = [_prompt(model, 6, seed=s) for s in (1, 2)]
    solo = [model.prefill(p) for p in prompts]
    caches = [KVCache(model.config.sim_layers) for _ in prompts]
    logits = model.logits(np.stack(prompts), cache=KVBatch(caches))
    assert logits.shape == (2, 1, model.config.sim_vocab)
    for b, (row_logits, row_cache) in enumerate(solo):
        np.testing.assert_allclose(
            logits[b, -1], row_logits[0, -1], rtol=1e-8, atol=1e-8
        )
        for (k, v), (sk, sv) in zip(caches[b].snapshot(6), row_cache.snapshot(6)):
            assert np.array_equal(k, sk) and np.array_equal(v, sv)


def test_act_quant_prefill_row_equals_uncached_forward(model):
    """Per-sequence activation scales read every position, so an
    act-quant prefill runs in full and its row is the uncached one."""
    quant = copy.copy(model)
    quant.act_quant_bits = 8
    prompt = _prompt(model)
    logits, _ = quant.prefill(prompt)
    assert logits.shape == (1, 1, model.config.sim_vocab)
    assert np.array_equal(logits[0, -1], quant.logits(prompt)[0, -1])
