"""Bounded LRU cache for per-tensor decoded/prepared kernel arrays.

PR 2 pinned each packed tensor's decoded term arrays directly on the
tensor object — fast, but *unbounded across tensors*: replaying a
large model kept every layer's decode alive for the life of the
artifact.  This module replaces that with one process-wide LRU keyed
by ``(tensor identity, kind)`` under a byte budget
(``$REPRO_KERNEL_CACHE_MB``, default 256), shared by every consumer:

* ``kind="terms"`` — the dense ``(n_groups, g, n_terms)`` term arrays
  of :func:`repro.hw.termtable.decode_packed_terms`;
* ``kind="fused"`` — the transposed layout the ``fused`` backend
  precomputes per weight image.

Entries die with their tensor (a ``weakref.finalize`` per entry, which
holds the cache only weakly), so the cache cannot resurrect or outlive
packed tensors, a dropped or reset cache frees its arrays, and the stored
``token`` (e.g. the identity of the memoized term tables) guards
against content aliasing the way the old per-tensor key did.

Hit/miss/eviction counts are mirrored into :mod:`repro.obs`
(``kernels.decode.hits`` / ``.misses`` / ``.evictions`` and the
``kernels.decode.bytes`` gauge) so a serving replay's decode behaviour
is observable.
"""

from __future__ import annotations

import math
import os
import weakref
from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional, Tuple

import numpy as np

from repro import obs

__all__ = ["DecodeCache", "decode_cache", "env_budget_bytes", "reset_decode_cache"]

#: Default byte budget when ``$REPRO_KERNEL_CACHE_MB`` is unset.
DEFAULT_BUDGET_MB = 256.0


def env_budget_bytes(var: str, default_mb: float) -> int:
    """The byte budget ``$var`` names in MiB.

    Unset, unparsable or non-finite values (``nan``, ``inf``, ``1e400``)
    fall back to ``default_mb``; negative ones clamp to 0.
    """
    try:
        mb = float(os.environ.get(var) or default_mb)
    except ValueError:
        mb = default_mb
    nbytes = mb * 1024 * 1024
    if not math.isfinite(nbytes):
        nbytes = default_mb * 1024 * 1024
    return max(0, int(nbytes))


def _nbytes(value: Any) -> int:
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (tuple, list)):
        return sum(_nbytes(v) for v in value)
    return 0


class DecodeCache:
    """LRU of prepared arrays keyed by (object identity, kind)."""

    def __init__(self, budget_bytes: Optional[int] = None):
        self.budget_bytes = (
            env_budget_bytes("REPRO_KERNEL_CACHE_MB", DEFAULT_BUDGET_MB)
            if budget_bytes is None
            else int(budget_bytes)
        )
        # key -> (token, value, nbytes); insertion order is LRU order.
        self._entries: "OrderedDict[Tuple[int, str], Tuple[Hashable, Any, int]]" = (
            OrderedDict()
        )
        self._finalizers: Dict[Tuple[int, str], weakref.finalize] = {}
        self.total_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.oversize = 0

    # ------------------------------------------------------------------
    def get(self, obj: Any, kind: str, token: Hashable) -> Optional[Any]:
        """The cached value for ``(obj, kind)`` if its token matches."""
        key = (id(obj), kind)
        entry = self._entries.get(key)
        if entry is not None and entry[0] == token:
            self._entries.move_to_end(key)
            self.hits += 1
            obs.counter("kernels.decode.hits", kind=kind).inc()
            return entry[1]
        self.misses += 1
        obs.counter("kernels.decode.misses", kind=kind).inc()
        return None

    def put(self, obj: Any, kind: str, token: Hashable, value: Any) -> Any:
        """Insert and return ``value`` (oversize values pass through
        uncached so one huge layer cannot flush the whole cache)."""
        nbytes = _nbytes(value)
        if nbytes > self.budget_bytes:
            self.oversize += 1
            obs.counter("kernels.decode.oversize", kind=kind).inc()
            return value
        key = (id(obj), kind)
        self._discard(key)
        while self._entries and self.total_bytes + nbytes > self.budget_bytes:
            self._evict_lru()
        self._entries[key] = (token, value, nbytes)
        self.total_bytes += nbytes
        # Entries die with their tensor: no resurrection, and a reused
        # id() can never alias a dead object's entry.  The finalizer
        # holds the cache weakly, so a dropped or reset cache frees its
        # arrays even while its tensors live on.
        self._finalizers[key] = weakref.finalize(
            obj, _discard_if_alive, weakref.ref(self), key
        )
        obs.gauge("kernels.decode.bytes").set(self.total_bytes)
        return value

    def contains(self, obj: Any, kind: str) -> bool:
        return (id(obj), kind) in self._entries

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._entries),
            "bytes": self.total_bytes,
            "budget_bytes": self.budget_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "oversize": self.oversize,
        }

    # ------------------------------------------------------------------
    def _evict_lru(self) -> None:
        key, (_, _, nbytes) = next(iter(self._entries.items()))
        self._remove(key)
        self.evictions += 1
        obs.counter("kernels.decode.evictions").inc()

    def _discard(self, key: Tuple[int, str]) -> None:
        if key in self._entries:
            self._remove(key)

    def _remove(self, key: Tuple[int, str]) -> None:
        _, _, nbytes = self._entries.pop(key)
        self.total_bytes -= nbytes
        fin = self._finalizers.pop(key, None)
        if fin is not None:
            fin.detach()
        obs.gauge("kernels.decode.bytes").set(self.total_bytes)


def _discard_if_alive(cache_ref: weakref.ref, key: Tuple[int, str]) -> None:
    """Per-entry finalizer: a no-op once its cache is gone."""
    cache = cache_ref()
    if cache is not None:
        cache._discard(key)


# ----------------------------------------------------------------------
# Process-wide instance.
# ----------------------------------------------------------------------

_CACHE: Optional[DecodeCache] = None


def decode_cache() -> DecodeCache:
    """The process-wide cache (budget read from the env on first use)."""
    global _CACHE
    if _CACHE is None:
        _CACHE = DecodeCache()
    return _CACHE


def reset_decode_cache(budget_bytes: Optional[int] = None) -> DecodeCache:
    """Fresh process-wide cache (tests, or after changing the env)."""
    global _CACHE
    _CACHE = DecodeCache(budget_bytes)
    return _CACHE
