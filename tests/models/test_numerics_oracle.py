"""The in-place norm, activation, RoPE, attention and KL kernels are
bit-identical to their plain one-expression forms.

``layer_norm`` takes its mean once; ``rms_norm``, ``apply_rope``,
``gelu``, ``silu``, ``softmax``, ``causal_attention`` and
``kl_divergence_mean`` reuse their temporaries
(``out=`` and in-place operators, GELU over blocks of rows) and skip
the all-zero causal mask of a one-token step.  The oracles below are the
plain forms they replaced, kept verbatim: every comparison is
``np.array_equal`` (NaN rows included), and no function may write to
its inputs.  The PPL cells close the loop: a whole quantized
perplexity evaluation gives the same float with the oracles patched in.
"""

import numpy as np
import pytest

import repro.eval.perplexity as perplexity
import repro.models.layers as layers
import repro.models.transformer as transformer
from repro.eval.perplexity import PerplexityEvaluator, kl_divergence_mean
from repro.models import get_model_config
from repro.models.layers import (
    GELU_BLOCK_ROWS,
    apply_rope,
    causal_attention,
    gelu,
    layer_norm,
    rms_norm,
    rope_cache,
    silu,
    softmax,
)
from repro.pipeline.context import clear_context
from repro.quant import QuantConfig


def oracle_softmax(x, axis=-1):
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def oracle_gelu(x):
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * (x * x * x))))


def oracle_silu(x):
    return x / (1.0 + np.exp(-x))


def oracle_layer_norm(x, gain, eps=1e-6):
    mu = x.mean(-1, keepdims=True)
    return (x - mu) / np.sqrt(x.var(-1, keepdims=True) + eps) * gain


def oracle_rms_norm(x, gain, eps=1e-6):
    rms = np.sqrt(np.mean(x**2, axis=-1, keepdims=True) + eps)
    return x / rms * gain


def oracle_apply_rope(x, cos, sin):
    x1 = x[..., 0::2]
    x2 = x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = x1 * cos - x2 * sin
    out[..., 1::2] = x1 * sin + x2 * cos
    return out


def oracle_causal_attention(q, k, v, past_len=0):
    head_dim = q.shape[-1]
    scores = q @ np.swapaxes(k, -1, -2) / np.sqrt(head_dim)
    q_len, kv_len = q.shape[-2], k.shape[-2]
    mask = np.triu(np.full((q_len, kv_len), -np.inf), k=1 + past_len)
    probs = oracle_softmax(scores + mask, axis=-1)
    return probs @ v


def oracle_kl_divergence_mean(logits_p, logits_q):
    p = oracle_softmax(logits_p, axis=-1)
    log_p = np.log(np.maximum(p, 1e-30))
    shifted = logits_q - np.max(logits_q, axis=-1, keepdims=True)
    log_q = shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
    kl = np.sum(p * (log_p - log_q), axis=-1)
    return float(np.mean(kl))


def _same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)


def _unchanged(fn, *args, **kwargs):
    """Call ``fn`` and assert it left every array argument untouched."""
    before = [a.copy() for a in args]
    out = fn(*args, **kwargs)
    for a, b in zip(args, before):
        assert np.array_equal(a, b, equal_nan=True), "input array was modified"
    return out


def _qkv(rng, batch, heads, q_len, kv_len, head_dim, scale=3.0):
    q = rng.standard_normal((batch, heads, q_len, head_dim)) * scale
    k = rng.standard_normal((batch, heads, kv_len, head_dim)) * scale
    v = rng.standard_normal((batch, heads, kv_len, head_dim))
    return q, k, v


class TestSoftmax:
    @pytest.mark.parametrize("axis", [-1, 0, 1])
    def test_random(self, rng, axis):
        x = rng.standard_normal((6, 7, 33)) * 20
        _same(_unchanged(softmax, x, axis=axis), oracle_softmax(x, axis=axis))

    def test_all_inf_and_all_equal_rows(self, rng):
        x = rng.standard_normal((5, 16)) * 4
        x[1] = -np.inf
        x[2] = 0.0
        x[3] = 7.25
        x[4, ::2] = -np.inf
        with np.errstate(invalid="ignore"):  # -inf - -inf
            got = _unchanged(softmax, x)
            _same(got, oracle_softmax(x))
        assert np.isnan(got[1]).all()
        assert (got[2] == 1.0 / 16).all()

    def test_float32_and_non_contiguous(self, rng):
        x = (rng.standard_normal((8, 12)) * 9).astype(np.float32)
        _same(_unchanged(softmax, x), oracle_softmax(x))
        xt = rng.standard_normal((12, 8)).T
        _same(_unchanged(softmax, xt), oracle_softmax(xt))


class TestGelu:
    def test_random_and_edge_values(self, rng):
        x = np.concatenate(
            [
                rng.standard_normal(4096) * 4,
                np.linspace(-40, 40, 801),
                [0.0, -0.0, 1e-300, -1e-300, 5e-324, 1e154, -1e154, np.inf, -np.inf, np.nan],
            ]
        )
        with np.errstate(all="ignore"):  # inf/nan inputs
            _same(_unchanged(gelu, x), oracle_gelu(x))

    @pytest.mark.parametrize(
        "shape", [(4, 72, 1024), (4, 128, 1024), (3, 7, 300), (1, 1, 1024), (0, 64)]
    )
    def test_activation_shaped(self, rng, shape):
        """One block, several whole blocks, a ragged last block, a
        decode row and no rows at all."""
        x = rng.standard_normal(shape) * 2
        _same(_unchanged(gelu, x), oracle_gelu(x))

    def test_edge_values_across_blocks(self, rng):
        """Non-finite and signed-zero inputs in every row block."""
        x = rng.standard_normal((2 * GELU_BLOCK_ROWS + 5, 40)) * 4
        x[:, :4] = [np.inf, -np.inf, np.nan, -0.0]
        with np.errstate(all="ignore"):
            _same(_unchanged(gelu, x), oracle_gelu(x))

    def test_non_contiguous(self, rng):
        xt = (rng.standard_normal((3, 50, 90)) * 3).transpose(1, 0, 2)
        _same(_unchanged(gelu, xt), oracle_gelu(xt))


class TestSilu:
    def test_random_and_edge_values(self, rng):
        x = np.concatenate(
            [
                rng.standard_normal(4096) * 4,
                np.linspace(-800, 800, 1601),
                [0.0, -0.0, 1e-300, -1e-300, 5e-324, 1e154, -1e154, np.inf, -np.inf, np.nan],
            ]
        )
        with np.errstate(all="ignore"):  # exp overflow, inf/nan inputs
            _same(_unchanged(silu, x), oracle_silu(x))

    @pytest.mark.parametrize("shape", [(4, 72, 344), (1, 1, 344), (0, 64)])
    def test_activation_shaped(self, rng, shape):
        x = rng.standard_normal(shape) * 2
        _same(_unchanged(silu, x), oracle_silu(x))

    def test_float32_and_non_contiguous(self, rng):
        x = (rng.standard_normal((8, 12)) * 9).astype(np.float32)
        _same(_unchanged(silu, x), oracle_silu(x))
        xt = (rng.standard_normal((3, 50, 90)) * 3).transpose(1, 0, 2)
        _same(_unchanged(silu, xt), oracle_silu(xt))


class TestLayerNorm:
    @pytest.mark.parametrize("shape", [(4, 72, 256), (1, 1, 256), (3, 7, 300), (33,)])
    def test_random(self, rng, shape):
        x = rng.standard_normal(shape) * 5 + 2
        gain = 1.0 + 0.1 * rng.standard_normal(shape[-1])
        _same(_unchanged(layer_norm, x, gain), oracle_layer_norm(x, gain))

    def test_constant_and_non_finite_rows(self, rng):
        x = rng.standard_normal((5, 64)) * 3
        x[1] = 7.25  # zero variance
        x[2] = 0.0
        x[3, 5] = np.inf
        x[4, 9] = np.nan
        gain = np.ones(64)
        with np.errstate(invalid="ignore"):
            _same(_unchanged(layer_norm, x, gain), oracle_layer_norm(x, gain))

    def test_float32_and_non_contiguous(self, rng):
        x = (rng.standard_normal((9, 48)) * 4).astype(np.float32)
        gain = np.ones(48, dtype=np.float32)
        _same(_unchanged(layer_norm, x, gain), oracle_layer_norm(x, gain))
        xt = rng.standard_normal((48, 9)).T
        _same(_unchanged(layer_norm, xt, gain), oracle_layer_norm(xt, gain))


class TestRmsNorm:
    @pytest.mark.parametrize("shape", [(4, 72, 256), (1, 1, 256), (3, 7, 300), (33,)])
    def test_random(self, rng, shape):
        x = rng.standard_normal(shape) * 5 + 2
        gain = 1.0 + 0.1 * rng.standard_normal(shape[-1])
        _same(_unchanged(rms_norm, x, gain), oracle_rms_norm(x, gain))

    def test_zero_tiny_huge_and_non_finite_rows(self, rng):
        x = rng.standard_normal((6, 64)) * 3
        x[1] = 0.0  # rms is sqrt(eps)
        x[2] = 1e-200  # the square underflows
        x[3] = 1e200  # the square overflows
        x[4, 5] = np.inf
        x[5, 9] = np.nan
        gain = np.ones(64)
        with np.errstate(all="ignore"):
            _same(_unchanged(rms_norm, x, gain), oracle_rms_norm(x, gain))

    def test_float32_mixed_and_non_contiguous(self, rng):
        x = (rng.standard_normal((9, 48)) * 4).astype(np.float32)
        gain32 = (1.0 + 0.1 * rng.standard_normal(48)).astype(np.float32)
        _same(_unchanged(rms_norm, x, gain32), oracle_rms_norm(x, gain32))
        gain64 = gain32.astype(np.float64)  # a wider gain widens the result
        _same(_unchanged(rms_norm, x, gain64), oracle_rms_norm(x, gain64))
        xt = rng.standard_normal((48, 9)).T
        _same(_unchanged(rms_norm, xt, gain64), oracle_rms_norm(xt, gain64))


class TestApplyRope:
    @pytest.mark.parametrize(
        "batch,heads,seq,head_dim", [(4, 8, 72, 32), (1, 4, 1, 16), (3, 2, 7, 6)]
    )
    def test_model_shaped(self, rng, batch, heads, seq, head_dim):
        """The model's layout: a transposed projection, per-row
        position tables broadcast over heads."""
        x = rng.standard_normal((batch, seq, heads, head_dim)).transpose(0, 2, 1, 3) * 3
        cos, sin = rope_cache(seq + 40 + batch, head_dim)
        positions = 40 + np.arange(seq)[None] + np.arange(batch)[:, None]
        c, s = cos[positions][:, None], sin[positions][:, None]
        _same(_unchanged(apply_rope, x, c, s), oracle_apply_rope(x, c, s))

    def test_plain_tables_and_edge_values(self, rng):
        x = rng.standard_normal((2, 3, 5, 8)) * 4
        x[0, 0, 0] = [0.0, -0.0, 1e-300, 5e-324, 1e300, -1e300, np.inf, np.nan]
        cos, sin = rope_cache(5, 8)
        with np.errstate(all="ignore"):
            _same(_unchanged(apply_rope, x, cos, sin), oracle_apply_rope(x, cos, sin))

    def test_float32(self, rng):
        x = (rng.standard_normal((1, 2, 6, 8)) * 4).astype(np.float32)
        cos, sin = rope_cache(6, 8)
        _same(_unchanged(apply_rope, x, cos, sin), oracle_apply_rope(x, cos, sin))
        c32, s32 = cos.astype(np.float32), sin.astype(np.float32)
        _same(_unchanged(apply_rope, x, c32, s32), oracle_apply_rope(x, c32, s32))


class TestCausalAttention:
    @pytest.mark.parametrize("past_len", [0, 1, 5, 37, 130])
    def test_one_token_step_ragged_past(self, rng, past_len):
        """Decode steps: q_len 1 over past_len + 1 keys, where the
        rewrite skips the mask entirely."""
        q, k, v = _qkv(rng, 1, 8, 1, past_len + 1, 16)
        got = _unchanged(causal_attention, q, k, v, past_len=past_len)
        _same(got, oracle_causal_attention(q, k, v, past_len=past_len))

    @pytest.mark.parametrize("q_len,past_len", [(2, 0), (9, 0), (9, 4), (5, 123)])
    def test_multi_token(self, rng, q_len, past_len):
        q, k, v = _qkv(rng, 2, 4, q_len, past_len + q_len, 16)
        got = _unchanged(causal_attention, q, k, v, past_len=past_len)
        _same(got, oracle_causal_attention(q, k, v, past_len=past_len))

    def test_one_query_with_extra_keys_is_masked(self, rng):
        """A single query whose keys run past past_len + 1 still gets
        its mask (the skip depends on kv_len, not on q_len alone)."""
        q, k, v = _qkv(rng, 1, 2, 1, 6, 8)
        got = _unchanged(causal_attention, q, k, v, past_len=2)
        _same(got, oracle_causal_attention(q, k, v, past_len=2))

    def test_full_forward_shape(self, rng):
        q, k, v = _qkv(rng, 4, 8, 128, 128, 32)
        q = np.swapaxes(np.swapaxes(q, 1, 2).copy(), 1, 2)  # the model's strided q
        _same(_unchanged(causal_attention, q, k, v), oracle_causal_attention(q, k, v))

    def test_equal_scores(self, rng):
        """Zero queries make every visible score +-0.0: all-equal rows."""
        q, k, v = _qkv(rng, 1, 2, 4, 4, 8)
        q[...] = 0.0
        q[0, 1] = -0.0
        got = _unchanged(causal_attention, q, k, v)
        _same(got, oracle_causal_attention(q, k, v))
        q1, k1, v1 = q[:, :, :1], k, v
        _same(
            _unchanged(causal_attention, q1, k1, v1, past_len=3),
            oracle_causal_attention(q1, k1, v1, past_len=3),
        )


class TestKlDivergence:
    def test_random_logits(self, rng):
        p = rng.standard_normal((256, 2048)) * 3
        q = p + rng.standard_normal(p.shape) * 0.1
        assert _unchanged(kl_divergence_mean, p, q) == oracle_kl_divergence_mean(p, q)

    @pytest.mark.parametrize(
        "shape", [(4, 128, 2048), (5, 7, 64), (3, 64), (1, 5, 64), (64,)], ids=str
    )
    def test_row_slices_of_any_rank(self, rng, shape):
        """The terms are computed over slices of the leading axis (on
        the worker pool), then averaged in one mean."""
        p = rng.standard_normal(shape) * 3
        q = p + rng.standard_normal(shape) * 0.1
        assert _unchanged(kl_divergence_mean, p, q) == oracle_kl_divergence_mean(p, q)

    def test_saturated_rows(self, rng):
        p = rng.standard_normal((6, 64)) * 3
        q = rng.standard_normal((6, 64)) * 3
        p[0, 5] = 800.0  # p underflows to 0 off the peak -> the 1e-30 floor
        q[1] = 0.0  # all-equal row
        p[2] = 4.0
        assert _unchanged(kl_divergence_mean, p, q) == oracle_kl_divergence_mean(p, q)


@pytest.fixture()
def fresh_context():
    clear_context()
    yield
    clear_context()


@pytest.mark.usefixtures("fresh_context")
@pytest.mark.parametrize("model", ["opt-1.3b", "llama-2-7b"], ids=["gelu", "silu"])
def test_quick_ppl_cell_equals_oracles(model, monkeypatch):
    """One quick PPL cell per activation family, FP16 reference logits
    included, is the same float with the oracles patched in."""

    def cell():
        clear_context()
        return PerplexityEvaluator(
            get_model_config(model), "wikitext", seed=0, batch=4, seq=128
        ).evaluate_config(QuantConfig(dtype="bitmod_fp3"))

    got = cell()
    monkeypatch.setattr(layers, "softmax", oracle_softmax)
    monkeypatch.setattr(layers, "gelu", oracle_gelu)
    monkeypatch.setattr(transformer, "gelu", oracle_gelu)
    monkeypatch.setattr(layers, "silu", oracle_silu)
    monkeypatch.setattr(transformer, "silu", oracle_silu)
    monkeypatch.setattr(transformer, "layer_norm", oracle_layer_norm)
    monkeypatch.setattr(transformer, "rms_norm", oracle_rms_norm)
    monkeypatch.setattr(transformer, "apply_rope", oracle_apply_rope)
    monkeypatch.setattr(transformer, "causal_attention", oracle_causal_attention)
    monkeypatch.setattr(perplexity, "softmax", oracle_softmax)
    monkeypatch.setattr(perplexity, "kl_divergence_mean", oracle_kl_divergence_mean)
    want = cell()
    assert (got.ppl, got.divergence) == (want.ppl, want.divergence)
