"""KV-cache quantization (paper Section IV-B).

The BitMoD PE keeps one attention operand in FP16, so the key and
value tensors must be low-precision integers.  The paper leans on the
observation (FlexGen, SmoothQuant, Atom) that keys/values tolerate
INT8 — and often INT4 — because softmax normalization bounds their
influence.

Keys and values are quantized with asymmetric integers (the Atom
convention), one scale/zero per **(head, position)**: the min/max run
over ``head_dim`` only.  Every stored value is therefore a function of
its own position alone, so quantizing a concatenation equals
concatenating the quantized parts — a decode step (one position), a
whole-prompt prefill, a prefix-cached prefill (prefix + tail) and a
head-partitioned mesh all store the same bits.

:attr:`~repro.models.transformer.KVCache.memory_bytes` counts the
``bits``-bit elements only; the per-(head, position) scale and zero
are not charged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["KVQuantConfig", "quantize_kv"]


@dataclass(frozen=True)
class KVQuantConfig:
    """How to quantize the KV-cache: ``bits``-bit codes, 1..16."""

    bits: int = 8

    def __post_init__(self):
        # ``bits`` may come from an artifact header on disk.
        is_int = isinstance(self.bits, (int, np.integer)) and not isinstance(self.bits, bool)
        if not (is_int and 1 <= self.bits <= 16):
            raise ValueError(f"KV quantization bits must be an int in 1..16, got {self.bits!r}")


def quantize_kv(kv: np.ndarray, config: KVQuantConfig = KVQuantConfig()) -> np.ndarray:
    """Quantize a key or value tensor.

    ``kv`` has shape ``(batch, heads, seq, head_dim)``.  Returns the
    dequantized tensor (same shape): asymmetric integers with one
    scale/zero per (batch, head, position).
    """
    kv = np.asarray(kv, dtype=np.float64)
    if kv.ndim != 4:
        raise ValueError("KV tensors have shape (batch, heads, seq, head_dim)")
    qmax = 2**config.bits - 1
    lo = kv.min(axis=-1, keepdims=True)
    hi = kv.max(axis=-1, keepdims=True)
    scale = (hi - lo) / qmax
    scale = np.where(scale == 0.0, 1.0, scale)
    zero = np.round(-lo / scale)
    codes = np.clip(np.round(kv / scale) + zero, 0, qmax)
    return (codes - zero) * scale
