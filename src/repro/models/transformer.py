"""The causal-LM transformer substrate.

:class:`CausalLM` instantiates the sim-scale architecture of a
:class:`~repro.models.config.ModelConfig` with synthetic weights and
provides:

* ``logits(tokens)`` — a full forward pass;
* ``prefill(tokens)`` / ``decode_step(tokens, cache)`` — the stateful
  serving path: run the prompt once, then extend one token at a time
  against a :class:`KVCache` (optionally quantized via
  :mod:`repro.quant.kv`) instead of recomputing the whole sequence;
* ``named_linears()`` — the quantizable weight matrices, matching the
  convention of the PTQ literature (decoder-block linears only;
  embeddings and the LM head stay FP16);
* ``apply_quantizer(fn)`` — functional weight replacement, returning a
  quantized *copy* so the FP16 reference model stays intact.

Architecture per family: OPT/Phi use LayerNorm + GELU MLPs and OPT
adds sinusoidal positions at the embedding; Llama/Yi use RMSNorm,
RoPE, gated SiLU MLPs, and (Yi / Llama-3) grouped-query attention.
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.models.config import ModelConfig
from repro.models.layers import (
    apply_rope,
    causal_attention,
    gelu,
    layer_norm,
    linear,
    rms_norm,
    rope_cache,
    silu,
    sinusoidal_positions,
)
from repro.models.synth import generate_model_weights
from repro.quant.kv import KVQuantConfig, quantize_kv

__all__ = ["CausalLM", "KVCache"]

_LN_FAMILIES = ("opt", "phi")


class KVCache:
    """Per-layer key/value cache for incremental decode.

    Entries hold the *pre-GQA-broadcast* key/value tensors of shape
    ``(batch, kv_heads, seq, head_dim)``; the attention layer repeats
    them to the query head count on use.  With ``quant`` set, every
    appended segment is quantized (and stored dequantized) the moment
    it enters the cache — matching a deployment where past KV lives in
    low-precision memory and is never re-quantized.
    """

    def __init__(self, n_layers: int, quant: Optional[KVQuantConfig] = None):
        self.quant = quant
        self._keys: List[Optional[np.ndarray]] = [None] * n_layers
        self._values: List[Optional[np.ndarray]] = [None] * n_layers

    @property
    def n_layers(self) -> int:
        return len(self._keys)

    @property
    def seq_len(self) -> int:
        """Number of cached positions (0 for a fresh cache)."""
        first = self._keys[0]
        return 0 if first is None else first.shape[2]

    def append(
        self, layer: int, k: np.ndarray, v: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Add new-position K/V for ``layer``; return the full tensors."""
        if self.quant is not None:
            k = quantize_kv(k, self.quant)
            v = quantize_kv(v, self.quant)
        if self._keys[layer] is None:
            self._keys[layer] = k
            self._values[layer] = v
        else:
            self._keys[layer] = np.concatenate([self._keys[layer], k], axis=2)
            self._values[layer] = np.concatenate([self._values[layer], v], axis=2)
        return self._keys[layer], self._values[layer]

    @property
    def memory_bytes(self) -> int:
        """Cache footprint at the stored (post-quantization) precision."""
        bits = 16 if self.quant is None else self.quant.bits
        elements = sum(
            k.size + v.size
            for k, v in zip(self._keys, self._values)
            if k is not None
        )
        return elements * bits // 8

    # ------------------------------------------------------------------
    # Prefix sharing (repro.serve.prefix).
    # ------------------------------------------------------------------
    def snapshot(self, length: int) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Copied per-layer K/V slices covering the first ``length``
        positions — the storable form of a shareable prompt prefix."""
        if not (0 < length <= self.seq_len):
            raise ValueError(
                f"snapshot length {length} outside cached range "
                f"(1..{self.seq_len})"
            )
        return [
            (k[:, :, :length, :].copy(), v[:, :, :length, :].copy())
            for k, v in zip(self._keys, self._values)
        ]

    @classmethod
    def from_snapshot(
        cls,
        pairs: List[Tuple[np.ndarray, np.ndarray]],
        quant: Optional[KVQuantConfig] = None,
    ) -> "KVCache":
        """A cache pre-seeded with snapshotted prefix K/V.

        The snapshot arrays are adopted by reference, never mutated:
        :meth:`append` always *concatenates into fresh arrays*, so one
        snapshot can seed any number of caches concurrently.
        """
        cache = cls(len(pairs), quant=quant)
        for layer, (k, v) in enumerate(pairs):
            cache._keys[layer] = k
            cache._values[layer] = v
        return cache


class CausalLM:
    """A numpy causal language model at sim scale."""

    def __init__(self, config: ModelConfig, seed: int = 0, weights: Optional[dict] = None):
        self.config = config
        self.seed = seed
        self.weights = weights if weights is not None else generate_model_weights(config, seed)
        self._use_layernorm = config.family in _LN_FAMILIES
        self._use_rope = config.family != "opt"
        #: RoPE ``(cos, sin)`` or OPT ``(positions,)`` tables, grown on
        #: demand by :meth:`_position_tables`.
        self._pos: Optional[Tuple[np.ndarray, ...]] = None
        #: When set (e.g. 8), inputs of every block linear are
        #: dynamically quantized to this many bits, per-tensor
        #: symmetric — the SmoothQuant INT8-activation mode.
        self.act_quant_bits: Optional[int] = None

    def _maybe_quant_act(self, x: np.ndarray) -> np.ndarray:
        if self.act_quant_bits is None:
            return x
        qmax = 2 ** (self.act_quant_bits - 1) - 1
        absmax = float(np.max(np.abs(x)))
        if absmax == 0.0:
            return x
        scale = absmax / qmax
        return np.clip(np.round(x / scale), -qmax, qmax) * scale

    # ------------------------------------------------------------------
    # Weight access for quantizers.
    # ------------------------------------------------------------------
    def named_linears(self) -> Dict[str, np.ndarray]:
        """Quantizable weight matrices: every decoder-block linear."""
        keys = [
            k
            for k in self.weights
            if k.startswith("layers.") and not k.endswith("_norm")
        ]
        return {k: self.weights[k] for k in keys}

    def apply_quantizer(
        self, quantize: Callable[[str, np.ndarray], np.ndarray]
    ) -> "CausalLM":
        """Return a copy whose block linears are ``quantize(name, w)``."""
        new_weights = dict(self.weights)
        for name, w in self.named_linears().items():
            new_weights[name] = quantize(name, w)
        clone = copy.copy(self)
        clone.weights = new_weights
        return clone

    def apply_plan(self, plan) -> "CausalLM":
        """Return a copy quantized per a
        :class:`~repro.policy.plan.QuantPlan` (layers the plan does not
        name keep their FP16 weights)."""
        return self.apply_quantizer(plan.as_quantizer())

    # ------------------------------------------------------------------
    # Forward pass.
    # ------------------------------------------------------------------
    def _position_tables(self, total: int) -> Tuple[np.ndarray, ...]:
        """Position tables covering at least ``total`` positions.

        Grown with slack so per-token decode doesn't rebuild them every
        step (amortized O(1) per position).  Each row depends only on
        its position, so slices of a grown table equal a fresh one.
        """
        if self._pos is None or self._pos[0].shape[0] < total:
            grown = total if self._pos is None else max(total, 2 * self._pos[0].shape[0])
            cfg = self.config
            self._pos = (
                rope_cache(grown, cfg.sim_head_dim())
                if self._use_rope
                else (sinusoidal_positions(grown, cfg.sim_hidden),)
            )
        return self._pos

    def _linear(self, x: np.ndarray, name: str) -> np.ndarray:
        """Apply the named projection — the one hook every block linear
        and the LM head go through (:mod:`repro.shard` overrides it)."""
        return linear(x, self.weights[name])

    def _norm(self, x: np.ndarray, gain: np.ndarray) -> np.ndarray:
        if self._use_layernorm:
            return layer_norm(x, gain)
        return rms_norm(x, gain)

    def hidden_states(
        self,
        tokens: np.ndarray,
        collect: bool = False,
        cache: Optional[KVCache] = None,
    ):
        """Run the decoder stack; return final hidden states.

        With ``collect=True`` also returns the *input* activations of
        every block linear (used by AWQ/GPTQ/SmoothQuant calibration).

        With ``cache`` set, ``tokens`` are treated as *new* positions
        following the cached context: attention reads the cached K/V,
        the new K/V are appended, and only the new positions are
        computed — the incremental prefill/decode path.
        """
        if collect and cache is not None:
            raise ValueError("calibration collection needs a full forward pass")
        cfg = self.config
        tokens = np.asarray(tokens)
        if tokens.ndim == 1:
            tokens = tokens[None, :]
        batch, seq = tokens.shape
        h = cfg.sim_hidden
        n_heads, n_kv = cfg.sim_heads, cfg.sim_kv_heads
        head_dim = cfg.sim_head_dim()
        past = cache.seq_len if cache is not None else 0
        total = past + seq

        x = self.weights["embed"][tokens] * np.sqrt(h)
        tables = self._position_tables(total)
        if self._use_rope:
            cos, sin = tables[0][past:total], tables[1][past:total]
        else:
            x = x + tables[0][None, past:total]

        acts: Dict[str, np.ndarray] = {}

        def record(name: str, inp: np.ndarray) -> None:
            if collect:
                acts[name] = inp.reshape(-1, inp.shape[-1])

        for layer in range(cfg.sim_layers):
            p = f"layers.{layer}."
            # --- attention ---
            xn = self._maybe_quant_act(self._norm(x, self.weights[p + "attn_norm"]))
            record(p + "q_proj", xn)
            record(p + "k_proj", xn)
            record(p + "v_proj", xn)
            q = self._linear(xn, p + "q_proj").reshape(batch, seq, n_heads, head_dim)
            k = self._linear(xn, p + "k_proj").reshape(batch, seq, n_kv, head_dim)
            v = self._linear(xn, p + "v_proj").reshape(batch, seq, n_kv, head_dim)
            q = q.transpose(0, 2, 1, 3)
            k = k.transpose(0, 2, 1, 3)
            v = v.transpose(0, 2, 1, 3)
            if self._use_rope:
                q = apply_rope(q, cos, sin)
                k = apply_rope(k, cos, sin)
            if cache is not None:
                k, v = cache.append(layer, k, v)
            if n_kv != n_heads:
                rep = n_heads // n_kv
                k = np.repeat(k, rep, axis=1)
                v = np.repeat(v, rep, axis=1)
            attn = causal_attention(q, k, v, past_len=past)
            attn = attn.transpose(0, 2, 1, 3).reshape(batch, seq, h)
            attn = self._maybe_quant_act(attn)
            record(p + "o_proj", attn)
            x = x + self._linear(attn, p + "o_proj")

            # --- MLP ---
            xn = self._maybe_quant_act(self._norm(x, self.weights[p + "mlp_norm"]))
            if cfg.gated_mlp:
                record(p + "gate_proj", xn)
                record(p + "up_proj", xn)
                gate = silu(self._linear(xn, p + "gate_proj"))
                up = self._linear(xn, p + "up_proj")
                inner = self._maybe_quant_act(gate * up)
                record(p + "down_proj", inner)
                x = x + self._linear(inner, p + "down_proj")
            else:
                record(p + "fc1", xn)
                inner = self._maybe_quant_act(gelu(self._linear(xn, p + "fc1")))
                record(p + "fc2", inner)
                x = x + self._linear(inner, p + "fc2")

        x = self._norm(x, self.weights["final_norm"])
        if collect:
            return x, acts
        return x

    def logits(
        self, tokens: np.ndarray, cache: Optional[KVCache] = None
    ) -> np.ndarray:
        """Vocabulary logits, shape ``(batch, seq, vocab)``.

        With ``cache`` set, ``seq`` covers only the new positions
        (incremental decode); the cache is updated in place.
        """
        x = self.hidden_states(tokens, cache=cache)
        return self._linear(x, "lm_head")

    # ------------------------------------------------------------------
    # Stateful serving path.
    # ------------------------------------------------------------------
    def prefill(
        self,
        tokens: np.ndarray,
        kv_quant: Optional[KVQuantConfig] = None,
    ) -> Tuple[np.ndarray, KVCache]:
        """Run the prompt once, filling a fresh :class:`KVCache`.

        Returns ``(logits, cache)`` where ``logits`` covers every
        prompt position (so the caller can sample the first generated
        token from the last row).
        """
        cache = KVCache(self.config.sim_layers, quant=kv_quant)
        return self.logits(tokens, cache=cache), cache

    def decode_step(self, tokens: np.ndarray, cache: KVCache) -> np.ndarray:
        """Logits for one new token per sequence, shape ``(batch, vocab)``.

        ``tokens`` holds the single newest token of each sequence
        (shape ``(batch,)`` or ``(batch, 1)``); the cache provides all
        earlier context, so the cost per step is O(1) forwards instead
        of re-running the full sequence.
        """
        tokens = np.asarray(tokens)
        if tokens.ndim == 0:
            tokens = tokens[None]
        if tokens.ndim == 1:
            tokens = tokens[:, None]
        if tokens.shape[1] != 1:
            raise ValueError("decode_step consumes exactly one new token per sequence")
        return self.logits(tokens, cache=cache)[:, -1]

    def collect_activations(self, tokens: np.ndarray) -> Dict[str, np.ndarray]:
        """Input activations of every block linear (calibration data)."""
        _, acts = self.hidden_states(tokens, collect=True)
        return acts
