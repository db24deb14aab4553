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
    """Root-mean-square layer normalization (Llama-family norm)."""
    rms = np.sqrt(np.mean(x**2, axis=-1, keepdims=True) + eps)
    return x / rms * gain


def layer_norm(x: np.ndarray, gain: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Standard layer norm with unit bias-free affine gain."""
    mu = np.mean(x, axis=-1, keepdims=True)
    var = np.var(x, axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain


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


def gelu(x: np.ndarray) -> np.ndarray:
    """Tanh-approximated GELU (GPT/OPT/Phi activation).

    Evaluates ``0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 * x**3)))``
    operator by operator in two temporaries; every product and sum is
    the one the expression computes (IEEE ``*`` and ``+`` commute), so
    float64 results are bit-identical to it.
    """
    t = x**3
    t *= 0.044715
    t += x
    t *= np.sqrt(2.0 / np.pi)
    np.tanh(t, out=t)
    t += 1.0
    half = 0.5 * x
    half *= t
    return half


def silu(x: np.ndarray) -> np.ndarray:
    """SiLU / swish (Llama activation)."""
    return x / (1.0 + np.exp(-x))


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
    """
    x1 = x[..., 0::2]
    x2 = x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = x1 * cos - x2 * sin
    out[..., 1::2] = x1 * sin + x2 * cos
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
