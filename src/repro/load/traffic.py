"""Seeded request-mix models: what each load-test request looks like.

A :class:`TrafficModel` turns ``(n, seed, vocab)`` into ``n``
:class:`RequestSpec` entries — prompt tokens, decode length, SLO tier,
optional deadline.  Two concrete mixes bracket the serving workloads
the paper's deployment path cares about, plus a weighted mixture:

* :class:`SharedPrefixChat` — many short requests over a small pool of
  long shared system prompts.  This is the prefix-cache workload: the
  first request over each prefix pays full prefill, later ones should
  hit :class:`~repro.serve.prefix.PrefixKVCache`.
* :class:`LongDocSummarization` — few long-prompt, short-decode
  requests in the ``batch`` tier; stresses the per-step token budget
  and admission shedding.
* :class:`MixedTraffic` — a seeded weighted blend of other models.

:class:`Workload` binds a traffic model to an arrival process and a
request count; :meth:`Workload.build` materializes the full trace and
:meth:`Workload.digest` hashes it, so "same seed → same trace" is a
checkable equality, not a hope.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.load.arrivals import ArrivalProcess

__all__ = [
    "RequestSpec",
    "TrafficModel",
    "SharedPrefixChat",
    "LongDocSummarization",
    "MixedTraffic",
    "Workload",
]


@dataclass
class RequestSpec:
    """One scripted request in a load trace."""

    arrival_s: float
    prompt: np.ndarray
    max_new_tokens: int
    tier: str = "standard"
    deadline_s: Optional[float] = None

    @property
    def prompt_len(self) -> int:
        return int(self.prompt.size)


class TrafficModel:
    """Base: a seeded generator of request shapes (no arrival times)."""

    def make(self, n: int, seed: int, vocab: int) -> List[RequestSpec]:
        """``n`` request specs with ``arrival_s=0`` (set by the workload)."""
        if n < 0:
            raise ValueError("n must be non-negative")
        if vocab < 2:
            raise ValueError("vocab must be at least 2")
        return self._make(n, np.random.default_rng(seed), vocab)

    def _make(
        self, n: int, rng: np.random.Generator, vocab: int
    ) -> List[RequestSpec]:
        raise NotImplementedError


class SharedPrefixChat(TrafficModel):
    """Chat turns over a small pool of shared system prompts.

    ``n_prefixes`` distinct prefixes of ``prefix_tokens`` tokens each;
    every request picks one uniformly and appends a fresh suffix of
    ``suffix_tokens`` (inclusive range) tokens.  With the default pool
    size the same prefix recurs quickly, so a prefix cache warms
    within the first few requests.
    """

    def __init__(
        self,
        n_prefixes: int = 4,
        prefix_tokens: int = 48,
        suffix_tokens: Tuple[int, int] = (4, 12),
        max_new_tokens: Tuple[int, int] = (4, 16),
        tier: str = "interactive",
        deadline_s: Optional[float] = None,
    ):
        if n_prefixes < 1:
            raise ValueError("n_prefixes must be at least 1")
        if prefix_tokens < 1:
            raise ValueError("prefix_tokens must be at least 1")
        if suffix_tokens[0] < 1 or suffix_tokens[0] > suffix_tokens[1]:
            raise ValueError("suffix_tokens must be a (lo, hi) range with lo >= 1")
        if max_new_tokens[0] < 1 or max_new_tokens[0] > max_new_tokens[1]:
            raise ValueError("max_new_tokens must be a (lo, hi) range with lo >= 1")
        self.n_prefixes = int(n_prefixes)
        self.prefix_tokens = int(prefix_tokens)
        self.suffix_tokens = (int(suffix_tokens[0]), int(suffix_tokens[1]))
        self.max_new_tokens = (int(max_new_tokens[0]), int(max_new_tokens[1]))
        self.tier = tier
        self.deadline_s = deadline_s

    def _make(
        self, n: int, rng: np.random.Generator, vocab: int
    ) -> List[RequestSpec]:
        prefixes = [
            rng.integers(0, vocab, size=self.prefix_tokens, dtype=np.int64)
            for _ in range(self.n_prefixes)
        ]
        specs = []
        for _ in range(n):
            prefix = prefixes[int(rng.integers(0, self.n_prefixes))]
            suffix_len = int(
                rng.integers(self.suffix_tokens[0], self.suffix_tokens[1] + 1)
            )
            suffix = rng.integers(0, vocab, size=suffix_len, dtype=np.int64)
            specs.append(
                RequestSpec(
                    arrival_s=0.0,
                    prompt=np.concatenate([prefix, suffix]),
                    max_new_tokens=int(
                        rng.integers(
                            self.max_new_tokens[0], self.max_new_tokens[1] + 1
                        )
                    ),
                    tier=self.tier,
                    deadline_s=self.deadline_s,
                )
            )
        return specs


class LongDocSummarization(TrafficModel):
    """Long unique prompts, short decodes, batch tier."""

    def __init__(
        self,
        doc_tokens: Tuple[int, int] = (64, 128),
        max_new_tokens: Tuple[int, int] = (4, 8),
        tier: str = "batch",
        deadline_s: Optional[float] = None,
    ):
        if doc_tokens[0] < 1 or doc_tokens[0] > doc_tokens[1]:
            raise ValueError("doc_tokens must be a (lo, hi) range with lo >= 1")
        if max_new_tokens[0] < 1 or max_new_tokens[0] > max_new_tokens[1]:
            raise ValueError("max_new_tokens must be a (lo, hi) range with lo >= 1")
        self.doc_tokens = (int(doc_tokens[0]), int(doc_tokens[1]))
        self.max_new_tokens = (int(max_new_tokens[0]), int(max_new_tokens[1]))
        self.tier = tier
        self.deadline_s = deadline_s

    def _make(
        self, n: int, rng: np.random.Generator, vocab: int
    ) -> List[RequestSpec]:
        specs = []
        for _ in range(n):
            doc_len = int(rng.integers(self.doc_tokens[0], self.doc_tokens[1] + 1))
            specs.append(
                RequestSpec(
                    arrival_s=0.0,
                    prompt=rng.integers(0, vocab, size=doc_len, dtype=np.int64),
                    max_new_tokens=int(
                        rng.integers(
                            self.max_new_tokens[0], self.max_new_tokens[1] + 1
                        )
                    ),
                    tier=self.tier,
                    deadline_s=self.deadline_s,
                )
            )
        return specs


class MixedTraffic(TrafficModel):
    """A seeded weighted mixture of other traffic models.

    Each request draws its model from ``components`` with the given
    weights; the per-model request shapes come from independent
    deterministic sub-seeds, so the mixture is as reproducible as its
    parts.
    """

    def __init__(self, components: Sequence[Tuple[float, TrafficModel]]):
        if not components:
            raise ValueError("components must be non-empty")
        weights = np.array([w for w, _ in components], dtype=np.float64)
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        self.models = [m for _, m in components]
        self.weights = weights / weights.sum()

    def _make(
        self, n: int, rng: np.random.Generator, vocab: int
    ) -> List[RequestSpec]:
        choices = rng.choice(len(self.models), size=n, p=self.weights)
        # Each component generates its own requests from a derived
        # seed, then the mixture interleaves them in choice order.
        pools = []
        for i, model in enumerate(self.models):
            count = int(np.sum(choices == i))
            sub_seed = int(rng.integers(0, 2**31 - 1))
            pools.append(iter(model.make(count, sub_seed, vocab)))
        return [next(pools[int(c)]) for c in choices]


@dataclass
class Workload:
    """An arrival process × traffic model × request count: one trace.

    :meth:`build` materializes the scripted requests (arrival offsets
    merged into the specs) and :meth:`digest` fingerprints the whole trace — prompts, arrival
    times, decode lengths, tiers — as a sha256 hex string.  Two
    workloads with equal digests will drive a server identically.
    """

    arrivals: ArrivalProcess
    traffic: TrafficModel
    n_requests: int
    seed: int = 0
    vocab: int = 2048
    _trace: Optional[List[RequestSpec]] = field(
        default=None, repr=False, compare=False
    )

    def build(self) -> List[RequestSpec]:
        """The scripted trace (cached; same object on repeat calls)."""
        if self._trace is None:
            offsets = self.arrivals.offsets(self.n_requests, self.seed)
            specs = self.traffic.make(self.n_requests, self.seed + 1, self.vocab)
            for offset, spec in zip(offsets, specs):
                spec.arrival_s = float(offset)
            self._trace = specs
        return self._trace

    def digest(self) -> str:
        """sha256 over the full trace; equal digests → identical runs."""
        h = hashlib.sha256()
        for spec in self.build():
            h.update(np.float64(spec.arrival_s).tobytes())
            h.update(np.ascontiguousarray(spec.prompt, dtype=np.int64).tobytes())
            h.update(np.int64(spec.max_new_tokens).tobytes())
            h.update(spec.tier.encode())
            h.update(
                b"none"
                if spec.deadline_s is None
                else np.float64(spec.deadline_s).tobytes()
            )
        return h.hexdigest()

    def describe(self) -> Dict:
        """A loggable summary of the workload configuration."""
        trace = self.build()
        return {
            "arrivals": self.arrivals.to_spec(),
            "n_requests": self.n_requests,
            "seed": self.seed,
            "vocab": self.vocab,
            "prompt_tokens_total": int(sum(s.prompt_len for s in trace)),
            "max_new_tokens_total": int(sum(s.max_new_tokens for s in trace)),
            "tiers": {
                tier: sum(1 for s in trace if s.tier == tier)
                for tier in sorted({s.tier for s in trace})
            },
            "digest": self.digest(),
        }
