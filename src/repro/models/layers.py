"""Numpy building blocks for the transformer substrate.

Everything operates on float64 internally (the FP16 activation
behaviour relevant to the paper lives in the hardware model, not
here); shapes follow the ``(batch, seq, features)`` convention.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "linear",
    "rms_norm",
    "layer_norm",
    "softmax",
    "gelu",
    "silu",
    "sinusoidal_positions",
    "rope_cache",
    "apply_rope",
    "causal_attention",
]


def linear(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``x @ weight.T`` — weight stored ``(out_features, in_features)``."""
    return x @ weight.T


def rms_norm(x: np.ndarray, gain: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Root-mean-square layer normalization (Llama-family norm).

    Computes ``x / sqrt(mean(x**2, -1) + eps) * gain`` in one reused
    temporary: ``x**2`` is numpy's ``square``, and every operator is
    the one the expression runs, in the same order, so the result is
    bit-identical to it.
    """
    t = np.square(x)
    rms = np.mean(t, axis=-1, keepdims=True)
    rms += eps
    np.sqrt(rms, out=rms)
    if np.result_type(x, rms, gain) != t.dtype:  # the result is wider than x**2
        return x / rms * gain
    np.divide(x, rms, out=t)
    t *= gain
    return t


def layer_norm(x: np.ndarray, gain: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Standard layer norm with unit bias-free affine gain.

    Takes the mean once and reuses ``x - mu`` for the variance: the
    same reductions and divisions ``np.mean`` and ``np.var`` run, in
    the same order, so the result is bit-identical to
    ``(x - x.mean(-1)) / sqrt(x.var(-1) + eps) * gain``.
    """
    n = x.shape[-1]
    mu = np.add.reduce(x, -1, keepdims=True) / n
    d = x - mu
    var = np.add.reduce(d * d, -1, keepdims=True) / n
    return d / np.sqrt(var + eps) * gain


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax (``x`` is not modified)."""
    return _softmax_inplace(np.subtract(x, np.max(x, axis=axis, keepdims=True)), axis)


def _softmax_inplace(shifted: np.ndarray, axis: int) -> np.ndarray:
    """Finish a softmax in the caller's temporary ``shifted`` (rows
    already shifted by their max): ``exp`` then divide by the row sum,
    the same operators on the same operands as the out-of-place form."""
    np.exp(shifted, out=shifted)
    shifted /= np.sum(shifted, axis=axis, keepdims=True)
    return shifted


#: Rows of a ``(-1, features)`` GELU input processed per block, so
#: the block and its temporary stay in L2 between operators (a sweep
#: on an OPT prefill activation is recorded in CHANGES.md).
GELU_BLOCK_ROWS = 32


def gelu(x: np.ndarray) -> np.ndarray:
    """Tanh-approximated GELU (GPT/OPT/Phi activation).

    Evaluates ``0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 * (x * x * x))))``
    operator by operator in one reused temporary, over blocks of
    :data:`GELU_BLOCK_ROWS` rows so every operator reads data still in
    L2.  Every product and sum is the one the expression computes (IEEE
    ``*`` and ``+`` commute), so float64 results are bit-identical to
    it.  The cube is two multiplies, not ``x**3``: numpy's general
    ``pow`` costs several times more per element and rounds
    differently.
    """
    flat = x.reshape(-1, x.shape[-1] if x.ndim else 1)
    out = np.empty(flat.shape, dtype=np.result_type(x, 0.5))
    tmp = np.empty((min(GELU_BLOCK_ROWS, len(flat)), flat.shape[1]), dtype=out.dtype)
    for start in range(0, len(flat), GELU_BLOCK_ROWS):
        xb = flat[start : start + GELU_BLOCK_ROWS]
        t = tmp[: len(xb)]
        np.multiply(xb, xb, out=t)
        t *= xb
        t *= 0.044715
        t += xb
        t *= np.sqrt(2.0 / np.pi)
        np.tanh(t, out=t)
        t += 1.0
        half = np.multiply(0.5, xb, out=out[start : start + GELU_BLOCK_ROWS])
        half *= t
    return out.reshape(x.shape)


def silu(x: np.ndarray) -> np.ndarray:
    """SiLU / swish (Llama activation), ``x / (1 + exp(-x))`` computed
    in one temporary."""
    t = -x
    np.exp(t, out=t)
    t += 1.0
    return np.divide(x, t, out=t)


def sinusoidal_positions(seq_len: int, hidden: int) -> np.ndarray:
    """Sinusoidal position embedding table ``(seq_len, hidden)`` (the
    OPT-style learned-position stand-in)."""
    pos = np.arange(seq_len)[:, None]
    dim = np.arange(hidden // 2)[None, :]
    angle = pos / 10000 ** (2 * dim / hidden)
    out = np.zeros((seq_len, hidden))
    out[:, 0::2] = np.sin(angle)
    out[:, 1::2] = np.cos(angle)
    return 0.02 * out


def rope_cache(seq_len: int, head_dim: int, base: float = 10000.0):
    """Precompute RoPE cos/sin tables of shape ``(seq_len, head_dim/2)``."""
    if head_dim % 2:
        raise ValueError("RoPE needs an even head dimension")
    inv_freq = base ** (-np.arange(0, head_dim, 2) / head_dim)
    angles = np.outer(np.arange(seq_len), inv_freq)
    return np.cos(angles), np.sin(angles)


def apply_rope(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotary position embedding.

    ``x`` has shape ``(batch, heads, seq, head_dim)``; cos/sin are the
    tables from :func:`rope_cache` for the same sequence length.

    The even lanes get ``x1 * cos - x2 * sin`` and the odd lanes
    ``x1 * sin + x2 * cos``, each product in one of two reused
    temporaries and each sum written straight into its lanes: the
    operators and casts of the plain expressions, so the result is
    bit-identical to them.
    """
    x1 = x[..., 0::2]
    x2 = x[..., 1::2]
    out = np.empty_like(x)
    shape = np.broadcast_shapes(x1.shape, cos.shape, sin.shape)
    dtype = np.result_type(x, cos, sin)
    a, b = np.empty(shape, dtype), np.empty(shape, dtype)
    np.subtract(np.multiply(x1, cos, out=a), np.multiply(x2, sin, out=b), out=out[..., 0::2])
    np.add(np.multiply(x1, sin, out=a), np.multiply(x2, cos, out=b), out=out[..., 1::2])
    return out


def causal_attention(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, past_len: int = 0
) -> np.ndarray:
    """Scaled dot-product attention with a causal mask.

    All of ``q, k, v`` have shape ``(batch, heads, seq, head_dim)``
    (key/value heads already broadcast to the query head count).

    With ``past_len > 0`` the keys/values cover ``past_len`` cached
    positions followed by the new ones, while ``q`` covers only the
    new positions: query ``i`` may attend to keys ``<= past_len + i``.
    """
    head_dim = q.shape[-1]
    scores = q @ np.swapaxes(k, -1, -2)
    scores /= np.sqrt(head_dim)
    q_len, kv_len = q.shape[-2], k.shape[-2]
    # Query 0 sees keys 0..past_len, so the mask is all zero unless
    # there are more keys than that plus one (never in a one-token
    # decode step).  Adding a zero mask only flips -0.0 scores to +0.0,
    # which the max shift and exp treat alike.
    if kv_len > past_len + 1:
        scores += np.triu(np.full((q_len, kv_len), -np.inf), k=1 + past_len)
    scores -= np.max(scores, axis=-1, keepdims=True)
    return _softmax_inplace(scores, -1) @ v
