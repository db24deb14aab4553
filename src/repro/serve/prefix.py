"""Prefix-sharing KV reuse: a block-aligned prompt-prefix cache.

Shared-prefix traffic — chat turns over one system prompt, few-shot
templates, retrieval headers — re-prefills the same leading tokens on
every request.  :class:`PrefixKVCache` stores the per-layer K/V
tensors of *block-aligned* prompt prefixes so a later request whose
prompt starts with a cached prefix seeds its
:class:`~repro.models.transformer.KVCache` from the snapshot and runs
prefill only over the uncached tail (radix-style lookup: longest
cached block chain wins).

Correctness contract
    Chunked prefill (cached prefix + tail) reproduces the full-prompt
    forward up to float64 rounding (~1e-15, from BLAS shape-dependent
    accumulation order), which leaves greedy *decode outputs
    byte-identical* to the cache-disabled path — the same tolerance
    class the incremental KV decode path already stands on.  It holds
    for KV-quantized engines too: :mod:`repro.quant.kv` scales each
    (head, position) on its own, so a quantized snapshot plus a
    quantized tail stores what quantizing the whole prompt would.

Admission
    A prefix is stored only once a second prompt shares it (the
    TinyLFU idea — admit on reuse — applied at RadixAttention's
    granularity, the shared part of a prompt).  :meth:`insert`
    remembers the block-chain digests of every prompt it is offered —
    16-byte BLAKE2b digests of ``prompt[:16]``, ``prompt[:32]``, …,
    computed incrementally — in an LRU of at most
    :data:`SEEN_DIGESTS` digests (about 0.75 MB when full).  It stores
    the longest block-aligned *strict* prefix (at most
    ``len(prompt) - 1`` tokens, so an identical prompt can still hit
    it) whose digest an earlier prompt left there.  A prompt that
    shares no leading block with recent traffic stores nothing and
    copies nothing; the cost is one extra miss per distinct shared
    prefix, on the second prompt that carries it.  Entries stay keyed
    by exact token bytes, so a digest collision can only cause an
    extra insert, never a wrong hit.  :meth:`lookup` and
    :meth:`match_len` record nothing.

Memory
    Entries hold copied slices and share nothing with live sequences:
    :meth:`KVCache.from_snapshot` adopts a snapshot that fills each
    layer exactly, so the sequence's first in-place append moves it
    into a buffer of its own and the stored arrays are never written.
    The cache is a byte-budgeted LRU like the kernel decode cache:
    ``$REPRO_PREFIX_CACHE_MB`` (default 64) bounds it, a prefix whose
    snapshot would exceed the whole budget is refused before anything
    is copied, and hit/miss/insert/eviction counts mirror into
    :mod:`repro.obs` (``serve.prefix_cache.*`` counters +
    ``serve.prefix_cache.bytes``).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.kernels.cache import env_budget_bytes

__all__ = ["PrefixKVCache", "DEFAULT_BUDGET_MB", "DEFAULT_BLOCK_TOKENS", "SEEN_DIGESTS"]

#: Default byte budget when ``$REPRO_PREFIX_CACHE_MB`` is unset.
DEFAULT_BUDGET_MB = 64.0
#: Prefix lengths are quantized to multiples of this many tokens.
DEFAULT_BLOCK_TOKENS = 16
#: Block-chain digests of recently offered prompts kept for admission.
SEEN_DIGESTS = 4096

Snapshot = List[Tuple[np.ndarray, np.ndarray]]


class PrefixKVCache:
    """LRU of block-aligned prompt prefixes → per-layer K/V snapshots.

    Keys are the exact token bytes of the prefix, so a hit can only
    ever replay KV that belongs to the same leading tokens; different
    models/engines must not share one instance (token bytes alone
    don't cover the weights).
    """

    def __init__(
        self,
        block_tokens: int = DEFAULT_BLOCK_TOKENS,
        budget_bytes: Optional[int] = None,
    ):
        if block_tokens < 1:
            raise ValueError("block_tokens must be at least 1")
        self.block_tokens = int(block_tokens)
        self.budget_bytes = (
            env_budget_bytes("REPRO_PREFIX_CACHE_MB", DEFAULT_BUDGET_MB)
            if budget_bytes is None
            else int(budget_bytes)
        )
        # key -> (snapshot, nbytes); insertion order is LRU order.
        self._entries: "OrderedDict[bytes, Tuple[Snapshot, int]]" = OrderedDict()
        # Block-chain digests of offered prompts; insertion order is LRU order.
        self._seen: "OrderedDict[bytes, None]" = OrderedDict()
        self.total_bytes = 0
        self.hits = 0
        self.misses = 0
        self.inserts = 0
        self.evictions = 0
        self.oversize = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def _key(prompt: np.ndarray, length: int) -> bytes:
        return np.ascontiguousarray(prompt[:length], dtype=np.int64).tobytes()

    def _aligned_lengths(self, max_len: int) -> List[int]:
        """Block-aligned candidate lengths ≤ ``max_len``, longest first."""
        longest = (max_len // self.block_tokens) * self.block_tokens
        return list(range(longest, 0, -self.block_tokens))

    # ------------------------------------------------------------------
    def match_len(self, prompt: np.ndarray) -> int:
        """Longest cached block-aligned strict prefix of ``prompt``
        (0 = none).  A peek: no counters, no LRU reordering."""
        prompt = np.asarray(prompt).reshape(-1)
        for length in self._aligned_lengths(int(prompt.size) - 1):
            if self._key(prompt, length) in self._entries:
                return length
        return 0

    def lookup(self, prompt: np.ndarray) -> Optional[Tuple[int, Snapshot]]:
        """The longest cached prefix of ``prompt`` and its snapshot.

        Matches only *strict* prefixes (at least one prompt token is
        left to prefill, so the caller can still sample a first token
        from its own forward pass).  Counts a hit or miss and
        refreshes the entry's LRU position.
        """
        prompt = np.asarray(prompt).reshape(-1)
        for length in self._aligned_lengths(int(prompt.size) - 1):
            key = self._key(prompt, length)
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                obs.counter("serve.prefix_cache.hits").inc()
                return length, entry[0]
        self.misses += 1
        obs.counter("serve.prefix_cache.misses").inc()
        return None

    def _block_digests(self, prompt: np.ndarray) -> List[bytes]:
        """Digests of ``prompt[:b]``, ``prompt[:2b]``, … for every
        whole block ``b`` of the prompt, shortest first."""
        data = memoryview(np.ascontiguousarray(prompt, dtype=np.int64).tobytes())
        step = self.block_tokens * 8
        chain = hashlib.blake2b(digest_size=16)
        digests = []
        for start in range(0, (len(data) // step) * step, step):
            chain.update(data[start : start + step])
            digests.append(chain.digest())
        return digests

    def _remember(self, digests: List[bytes]) -> None:
        for digest in digests:
            self._seen[digest] = None
            self._seen.move_to_end(digest)
        while len(self._seen) > SEEN_DIGESTS:
            self._seen.popitem(last=False)

    def insert(self, prompt: np.ndarray, cache) -> int:
        """Snapshot the longest block-aligned strict prefix of
        ``prompt`` that an earlier offered prompt also began with, out
        of its just-prefilled ``cache``; returns the stored length
        (0 = nothing stored).  Re-inserting an existing prefix only
        refreshes its LRU position."""
        prompt = np.asarray(prompt).reshape(-1)
        digests = self._block_digests(prompt)
        length = 0
        for blocks in range((int(prompt.size) - 1) // self.block_tokens, 0, -1):
            if digests[blocks - 1] in self._seen:
                length = blocks * self.block_tokens
                break
        self._remember(digests)
        if length == 0:
            return 0
        key = self._key(prompt, length)
        if key in self._entries:
            self._entries.move_to_end(key)
            return length
        nbytes = cache.snapshot_nbytes(length)
        if nbytes > self.budget_bytes:
            self.oversize += 1
            obs.counter("serve.prefix_cache.oversize").inc()
            return 0
        while self._entries and self.total_bytes + nbytes > self.budget_bytes:
            self._evict_lru()
        self._entries[key] = (cache.snapshot(length), nbytes)
        self.total_bytes += nbytes
        self.inserts += 1
        obs.counter("serve.prefix_cache.inserts").inc()
        obs.gauge("serve.prefix_cache.bytes").set(self.total_bytes)
        return length

    def clear(self) -> None:
        self._entries.clear()
        self._seen.clear()
        self.total_bytes = 0
        obs.gauge("serve.prefix_cache.bytes").set(0)

    # ------------------------------------------------------------------
    def _evict_lru(self) -> None:
        _, (_, nbytes) = self._entries.popitem(last=False)
        self.total_bytes -= nbytes
        self.evictions += 1
        obs.counter("serve.prefix_cache.evictions").inc()
        obs.gauge("serve.prefix_cache.bytes").set(self.total_bytes)

    def stats(self) -> Dict[str, float]:
        total = self.hits + self.misses
        return {
            "entries": len(self._entries),
            "bytes": self.total_bytes,
            "budget_bytes": self.budget_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / total if total else 0.0,
            "inserts": self.inserts,
            "evictions": self.evictions,
            "oversize": self.oversize,
        }
