"""The causal-LM transformer substrate.

:class:`CausalLM` instantiates the sim-scale architecture of a
:class:`~repro.models.config.ModelConfig` with synthetic weights and
provides:

* ``logits(tokens)`` — a full forward pass;
* ``prefill(tokens)`` / ``decode_step(tokens, caches)`` — the stateful
  serving path: run the prompt once, then extend a batch of sequences
  one token each, every sequence against its own :class:`KVCache`
  (optionally quantized via :mod:`repro.quant.kv`), instead of
  recomputing the whole sequence;
* ``named_linears()`` — the quantizable weight matrices, matching the
  convention of the PTQ literature (decoder-block linears only;
  embeddings and the LM head stay FP16);
* ``apply_quantizer(fn)`` — functional weight replacement, returning a
  quantized *copy* so the FP16 reference model stays intact.

``apply_quantizer`` and, with a single-threaded BLAS, the uncached
forward of a multi-sequence batch run their independent parts (one
linear, one sequence) on the shared :mod:`repro.models.workers` pool;
each part makes the calls it would make on its own, so no result
depends on the fan-out.

Architecture per family: OPT/Phi use LayerNorm + GELU MLPs and OPT
adds sinusoidal positions at the embedding; Llama/Yi use RMSNorm,
RoPE, gated SiLU MLPs, and (Yi / Llama-3) grouped-query attention.
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

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
from repro.models.workers import blas_threads, fan_out
from repro.quant.kv import KVQuantConfig, quantize_kv

__all__ = ["CausalLM", "KVBatch", "KVCache"]

_LN_FAMILIES = ("opt", "phi")


class KVCache:
    """Per-layer key/value cache of one sequence, for incremental decode.

    Entries hold the *pre-GQA-broadcast* key/value tensors of shape
    ``(1, kv_heads, seq, head_dim)``; the attention layer repeats them
    to the query head count on use.  Each layer lives in a buffer of
    ``capacity`` positions (doubling when a write overflows it), so
    :meth:`append` writes in place and returns views — the same trick
    as :meth:`CausalLM._position_tables`.  With ``quant`` set, every
    appended segment is quantized (and stored dequantized) the moment
    it enters the cache — matching a deployment where past KV lives in
    low-precision memory and is never re-quantized.
    """

    def __init__(
        self,
        n_layers: int,
        quant: Optional[KVQuantConfig] = None,
        capacity: int = 0,
    ):
        self.quant = quant
        #: Positions each layer's buffer is first allocated with.
        self.capacity = capacity
        self._keys: List[Optional[np.ndarray]] = [None] * n_layers
        self._values: List[Optional[np.ndarray]] = [None] * n_layers
        self._lens: List[int] = [0] * n_layers

    @property
    def n_layers(self) -> int:
        return len(self._keys)

    @property
    def seq_len(self) -> int:
        """Number of cached positions (0 for a fresh cache)."""
        return self._lens[0]

    def append(
        self, layer: int, k: np.ndarray, v: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Add new-position K/V for ``layer``; return views of the full
        tensors."""
        if self.quant is not None:
            k = quantize_kv(k, self.quant)
            v = quantize_kv(v, self.quant)
        start = self._lens[layer]
        end = start + k.shape[2]
        if self._keys[layer] is None or end > self._keys[layer].shape[2]:
            self._keys[layer] = self._grown(self._keys[layer], start, k, end)
            self._values[layer] = self._grown(self._values[layer], start, v, end)
        self._keys[layer][:, :, start:end] = k
        self._values[layer][:, :, start:end] = v
        self._lens[layer] = end
        return self._keys[layer][:, :, :end], self._values[layer][:, :, :end]

    def _grown(
        self, buf: Optional[np.ndarray], used: int, new: np.ndarray, needed: int
    ) -> np.ndarray:
        """A fresh buffer holding ``buf``'s first ``used`` positions."""
        held = 0 if buf is None else buf.shape[2]
        size = max(needed, self.capacity, 2 * held)
        grown = np.empty(new.shape[:2] + (size,) + new.shape[3:], dtype=new.dtype)
        if used:
            grown[:, :, :used] = buf[:, :, :used]
        return grown

    @property
    def memory_bytes(self) -> int:
        """Footprint of the stored positions (not the reserved
        capacity) at the stored (post-quantization) precision: element
        bits only, without the per-(head, position) KV scales."""
        bits = 16 if self.quant is None else self.quant.bits
        elements = sum(
            2 * k[:, :, :n].size
            for k, n in zip(self._keys, self._lens)
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

    def snapshot_nbytes(self, length: int) -> int:
        """Bytes :meth:`snapshot` would copy for ``length`` positions,
        read from the buffers' shapes without copying anything."""
        return sum(
            k[:, :, :length].nbytes + v[:, :, :length].nbytes
            for k, v in zip(self._keys, self._values)
        )

    @classmethod
    def from_snapshot(
        cls,
        pairs: List[Tuple[np.ndarray, np.ndarray]],
        quant: Optional[KVQuantConfig] = None,
        capacity: int = 0,
    ) -> "KVCache":
        """A cache pre-seeded with snapshotted prefix K/V.

        The snapshot arrays are adopted by reference, never written:
        each fills its layer's buffer exactly, so the first
        :meth:`append` moves the layer into a fresh buffer of
        ``capacity`` positions.  One snapshot can therefore seed any
        number of caches concurrently.
        """
        cache = cls(len(pairs), quant=quant, capacity=capacity)
        for layer, (k, v) in enumerate(pairs):
            cache._keys[layer] = k
            cache._values[layer] = v
            cache._lens[layer] = k.shape[2]
        return cache


class KVBatch:
    """The per-sequence caches one batched forward pass extends.

    Row ``b`` of the pass's tokens continues ``caches[b]``; contexts
    may differ in length.  ``seq_len`` is the longest context and
    ``memory_bytes`` the sum over the batch.
    """

    def __init__(self, caches: Sequence[KVCache]):
        self.caches = list(caches)
        if not self.caches:
            raise ValueError("a KV batch needs at least one cache")
        if len({id(c) for c in self.caches}) != len(self.caches):
            raise ValueError("a KV cache appears twice in one batch")

    @property
    def seq_len(self) -> int:
        return max(c.seq_len for c in self.caches)

    @property
    def memory_bytes(self) -> int:
        return sum(c.memory_bytes for c in self.caches)


def _attend(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, past_len: int
) -> np.ndarray:
    """Causal attention with the key/value heads broadcast to the query
    head count (grouped-query attention)."""
    rep = q.shape[1] // k.shape[1]
    if rep != 1:
        k = np.repeat(k, rep, axis=1)
        v = np.repeat(v, rep, axis=1)
    return causal_attention(q, k, v, past_len=past_len)


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

    def _maybe_quant_act(self, x: np.ndarray, per_seq: bool = False) -> np.ndarray:
        """SmoothQuant-style activation quantization.  ``per_seq``
        scales each row of the batch on its own, so a batched decode
        step quantizes every sequence exactly as a solo step would."""
        if self.act_quant_bits is None:
            return x
        if per_seq and len(x) > 1:
            return np.stack([self._maybe_quant_act(row) for row in x])
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
        """Return a copy whose block linears are ``quantize(name, w)``.

        The linears are quantized on the worker pool, largest first so
        the last one to start is a small one; ``quantize`` must not
        depend on the order of its calls and must be safe to call from
        several threads at once.
        """
        linears = self.named_linears()
        names = sorted(linears, key=lambda n: linears[n].size, reverse=True)
        new_weights = dict(self.weights)
        new_weights.update(
            zip(names, fan_out(lambda n: quantize(n, linears[n]), names))
        )
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

    def _norm(self, x: np.ndarray, gain: np.ndarray) -> np.ndarray:
        if self._use_layernorm:
            return layer_norm(x, gain)
        return rms_norm(x, gain)

    def hidden_states(
        self,
        tokens: np.ndarray,
        collect: bool = False,
        cache: Union[KVCache, KVBatch, None] = None,
    ):
        """Run the decoder stack; return final hidden states.

        With ``collect=True`` also returns the *input* activations of
        every block linear (used by AWQ/GPTQ/SmoothQuant calibration).

        With ``cache`` set, ``tokens`` are treated as *new* positions
        following the cached context: attention reads the cached K/V,
        the new K/V are appended, and only the new positions are
        computed — the incremental prefill/decode path.  When the
        pass adds more than one position, every layer caches K/V for
        all of them, but the final layer runs its query side (q_proj,
        attention, o_proj, MLP) on the last new position only and the
        result covers that position alone, ``(batch, 1, hidden)`` —
        unless ``act_quant_bits`` is set, whose activation scales read
        every position.  A
        :class:`KVCache` extends one sequence; a :class:`KVBatch`
        extends one sequence per token row, each against its own
        cache.  Norms, MLPs and residuals run once over all rows, every
        projection is a per-row product (numpy's stacked matmul over
        ``(rows, seq, features)``) and attention runs per sequence, so
        a row's logits do not depend on the other rows.
        """
        if collect and cache is not None:
            raise ValueError("calibration collection needs a full forward pass")
        cfg = self.config
        w = self.weights
        tokens = np.asarray(tokens)
        if tokens.ndim == 1:
            tokens = tokens[None, :]
        batch, seq = tokens.shape
        h = cfg.sim_hidden
        n_heads, n_kv = cfg.sim_heads, cfg.sim_kv_heads
        head_dim = cfg.sim_head_dim()
        caches = None
        if cache is not None:
            caches = cache.caches if isinstance(cache, KVBatch) else [cache]
            if len(caches) != batch:
                raise ValueError(
                    f"{batch} token rows for {len(caches)} KV caches "
                    "(each cached row needs its own cache)"
                )
        per_seq = caches is not None
        starts = np.array([c.seq_len for c in caches] if per_seq else [0])
        positions = starts[:, None] + np.arange(seq)

        x = w["embed"][tokens] * np.sqrt(h)
        tables = self._position_tables(int(positions.max()) + 1)
        if self._use_rope:
            cos, sin = tables[0][positions][:, None], tables[1][positions][:, None]
        else:
            x = x + tables[0][positions]

        acts: Dict[str, np.ndarray] = {}

        def record(name: str, inp: np.ndarray) -> None:
            if collect:
                acts[name] = inp.reshape(-1, inp.shape[-1])

        # A cached pass over several new positions (a prefill, or the
        # tail of a prefix hit) is read at its last position only, so
        # the final layer computes K/V for every position but its query
        # side for the last one.  Per-sequence activation scales read
        # every position, so act-quant passes run in full.
        last_only = per_seq and seq > 1 and self.act_quant_bits is None
        q_len, past = seq, starts
        for layer in range(cfg.sim_layers):
            p = f"layers.{layer}."
            # --- attention ---
            xn = self._maybe_quant_act(self._norm(x, w[p + "attn_norm"]), per_seq)
            record(p + "q_proj", xn)
            record(p + "k_proj", xn)
            record(p + "v_proj", xn)
            k = linear(xn, w[p + "k_proj"]).reshape(batch, seq, n_kv, head_dim)
            v = linear(xn, w[p + "v_proj"]).reshape(batch, seq, n_kv, head_dim)
            k = k.transpose(0, 2, 1, 3)
            v = v.transpose(0, 2, 1, 3)
            if self._use_rope:
                k = apply_rope(k, cos, sin)
            if last_only and layer == cfg.sim_layers - 1:
                xn, x = xn[:, -1:], x[:, -1:]
                if self._use_rope:
                    cos, sin = cos[:, :, -1:], sin[:, :, -1:]
                q_len, past = 1, starts + seq - 1
            q = linear(xn, w[p + "q_proj"]).reshape(batch, q_len, n_heads, head_dim)
            q = q.transpose(0, 2, 1, 3)
            if self._use_rope:
                q = apply_rope(q, cos, sin)
            if caches is None:
                attn = _attend(q, k, v, past_len=0)
            else:
                attn = np.empty_like(q)
                for b, c in enumerate(caches):
                    kb, vb = c.append(layer, k[b : b + 1], v[b : b + 1])
                    attn[b : b + 1] = _attend(q[b : b + 1], kb, vb, int(past[b]))
            attn = attn.transpose(0, 2, 1, 3).reshape(batch, q_len, h)
            attn = self._maybe_quant_act(attn, per_seq)
            record(p + "o_proj", attn)
            x = x + linear(attn, w[p + "o_proj"])

            # --- MLP ---
            xn = self._maybe_quant_act(self._norm(x, w[p + "mlp_norm"]), per_seq)
            if cfg.gated_mlp:
                record(p + "gate_proj", xn)
                record(p + "up_proj", xn)
                gate = silu(linear(xn, w[p + "gate_proj"]))
                up = linear(xn, w[p + "up_proj"])
                gate *= up  # silu's output is a fresh array
                inner = self._maybe_quant_act(gate, per_seq)
                record(p + "down_proj", inner)
                x = x + linear(inner, w[p + "down_proj"])
            else:
                record(p + "fc1", xn)
                inner = self._maybe_quant_act(gelu(linear(xn, w[p + "fc1"])), per_seq)
                record(p + "fc2", inner)
                x = x + linear(inner, w[p + "fc2"])

        x = self._norm(x, w["final_norm"])
        if collect:
            return x, acts
        return x

    def logits(
        self, tokens: np.ndarray, cache: Union[KVCache, KVBatch, None] = None
    ) -> np.ndarray:
        """Vocabulary logits, shape ``(batch, seq, vocab)``.

        With ``cache`` set (incremental prefill/decode), the caches are
        updated in place with every new position and the logits cover
        the last new position of each row only: ``(batch, 1, vocab)``.

        Without a cache, and with a single-threaded BLAS, a batch of
        several sequences runs one sequence per part on the worker pool.
        Every projection is a per-sequence product of numpy's stacked
        matmul and every other operator works per row or per sequence,
        so each part makes the calls the batched pass makes for that
        sequence and the logits are bit-identical to it.  Act-quant
        passes stay whole: their activation scales read the whole batch.
        """
        if cache is not None:
            return self._forward(tokens, cache)[:, -1:]
        tokens = np.asarray(tokens)
        if (
            tokens.ndim != 2
            or len(tokens) < 2
            or self.act_quant_bits is not None
            or blas_threads() > 1
        ):
            return self._forward(tokens)
        self._position_tables(tokens.shape[1])  # grown once, before the parts read it
        return np.concatenate(fan_out(self._forward, [row[None] for row in tokens]))

    def _forward(
        self, tokens: np.ndarray, cache: Union[KVCache, KVBatch, None] = None
    ) -> np.ndarray:
        """The decoder stack and LM head over every returned position."""
        return linear(self.hidden_states(tokens, cache=cache), self.weights["lm_head"])

    # ------------------------------------------------------------------
    # Stateful serving path.
    # ------------------------------------------------------------------
    def prefill(
        self,
        tokens: np.ndarray,
        kv_quant: Optional[KVQuantConfig] = None,
        capacity: int = 0,
    ) -> Tuple[np.ndarray, KVCache]:
        """Run one prompt, filling a fresh :class:`KVCache` whose
        buffers reserve ``capacity`` positions up front.

        Returns ``(logits, cache)`` where ``logits`` covers the last
        prompt position only, shape ``(1, 1, vocab)``: the row the
        first generated token is sampled from.  The cache holds K/V
        for every prompt position.
        """
        cache = KVCache(self.config.sim_layers, quant=kv_quant, capacity=capacity)
        return self.logits(tokens, cache=cache), cache

    def decode_step(self, tokens: np.ndarray, caches: Sequence[KVCache]) -> np.ndarray:
        """Logits for one new token per sequence, shape ``(batch, vocab)``.

        ``tokens`` holds the single newest token of each sequence
        (shape ``(batch,)`` or ``(batch, 1)``) and ``caches`` each
        sequence's own :class:`KVCache`; contexts may differ in
        length.  The caches provide all earlier context, so a step
        costs one single-position forward pass for the whole batch,
        and each row is bit-identical to decoding its sequence alone.
        """
        tokens = np.asarray(tokens)
        if tokens.ndim == 0:
            tokens = tokens[None]
        if tokens.ndim == 1:
            tokens = tokens[:, None]
        if tokens.shape[1] != 1:
            raise ValueError("decode_step consumes exactly one new token per sequence")
        return self.logits(tokens, cache=KVBatch(caches))[:, -1]

    def collect_activations(self, tokens: np.ndarray) -> Dict[str, np.ndarray]:
        """Input activations of every block linear (calibration data)."""
        _, acts = self.hidden_states(tokens, collect=True)
        return acts
