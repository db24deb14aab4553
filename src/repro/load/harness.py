"""Deterministic load replay: a scripted trace on a modeled clock.

:func:`replay` runs a :class:`~repro.load.traffic.Workload` through a
:class:`~repro.serve.batching.ContinuousBatcher` whose clock advances
by the modeled accelerator time of each forward pass, so per-request
outcomes are a pure function of (trace digest, engine, batcher
settings).  Every outcome is recorded, including the structured
failures:

* ``"completed"`` — tokens came back, with modeled TTFT, TBT and
  end-to-end latency from the scripted arrival;
* ``"shed"`` — admission control raised
  :class:`~repro.serve.errors.Overloaded`;
* ``"expired"`` — the deadline passed and the scheduler evicted it;
* ``"error"`` — anything else (kept, never swallowed: the record holds
  the repr).

:meth:`LoadResult.summary` folds everything into one dict, with a hard
``lost`` accounting check: every submitted request must come back as
completed, shed, expired, or errored.  The real-time path is
:class:`~repro.serve.server.ServeServer` itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional

from repro.hw.baselines import make_accelerator
from repro.hw.simulator import one_pass
from repro.serve.batching import ContinuousBatcher, Request
from repro.serve.engine import GenerationConfig
from repro.serve.errors import Overloaded
from repro.serve.metrics import LatencyStats

from repro.load.traffic import Workload

__all__ = ["RequestRecord", "LoadResult", "replay"]


@dataclass
class RequestRecord:
    """Outcome of one scripted request."""

    index: int
    outcome: str  # completed | shed | expired | error
    tier: str
    prompt_len: int
    arrival_s: float
    ttft_s: Optional[float] = None
    latency_s: Optional[float] = None
    #: Mean time between output tokens after the first.
    tbt_s: Optional[float] = None
    n_generated: int = 0
    tokens: Optional[List[int]] = None
    error: Optional[str] = None


@dataclass
class LoadResult:
    """Everything one load run produced."""

    records: List[RequestRecord]
    metrics: Dict
    prefix_stats: Optional[Dict] = None
    wall_s: float = 0.0
    workload: Optional[Dict] = None

    def by_outcome(self, outcome: str) -> List[RequestRecord]:
        return [r for r in self.records if r.outcome == outcome]

    @property
    def completed(self) -> int:
        return len(self.by_outcome("completed"))

    @property
    def shed(self) -> int:
        return len(self.by_outcome("shed"))

    @property
    def expired(self) -> int:
        return len(self.by_outcome("expired"))

    @property
    def errors(self) -> int:
        return len(self.by_outcome("error"))

    @property
    def lost(self) -> int:
        """Requests unaccounted for — the invariant is zero."""
        return len(self.records) - (
            self.completed + self.shed + self.expired + self.errors
        )

    def summary(self) -> Dict:
        """The rollup of this run."""
        n = len(self.records)
        done = self.by_outcome("completed")
        ttft = LatencyStats([r.ttft_s for r in done if r.ttft_s is not None])
        tbt = LatencyStats([r.tbt_s for r in done if r.tbt_s is not None])
        latency = LatencyStats(
            [r.latency_s for r in done if r.latency_s is not None]
        )
        decode_tokens = sum(r.n_generated for r in done)
        return {
            "n_requests": n,
            "completed": self.completed,
            "shed": self.shed,
            "expired": self.expired,
            "errors": self.errors,
            "lost": self.lost,
            "shed_rate": self.shed / n if n else 0.0,
            "wall_s": self.wall_s,
            "ttft": ttft.summary(),
            "tbt": tbt.summary(),
            "latency": latency.summary(),
            "decode_tokens": decode_tokens,
            "tokens_per_s": decode_tokens / self.wall_s if self.wall_s > 0 else 0.0,
            "prefix_cache": self.prefix_stats,
            "workload": self.workload,
        }


class _ModeledEngine:
    """``engine`` as the replay's batcher sees it: each prefill or
    decode call advances ``now`` by its pass's modeled seconds, so the
    batcher's first-token and finish stamps land where the pass ends.
    Accelerator and bits follow :func:`~repro.serve.bridge.hardware_report`."""

    def __init__(self, engine):
        self.engine, self.now = engine, 0.0
        cfg, mesh = engine.model.config, getattr(engine.model, "mesh", None)
        if engine.artifact is not None:
            accel, bits = make_accelerator("bitmod"), engine.artifact.mean_bits_per_weight
        else:
            accel, bits = make_accelerator("fp16"), 16.0
        kw = {}
        if mesh is not None:
            kw = dict(shards=mesh.tp, stages=mesh.pp, topology=mesh.topology,
                      link=engine.model.collective.link)
        hz = accel.arch.frequency_ghz * 1e9
        self._seconds = lru_cache(maxsize=None)(
            lambda m, context: one_pass(cfg, accel, bits, m, context, **kw)[0] / hz
        )

    def start_sequence(self, prompt, generation):
        return self.engine.start_sequence(prompt, generation)

    def prefill(self, seq) -> int:
        token = self.engine.prefill(seq)
        self.now += self._seconds(len(seq.prompt) - seq.prefix_hit_tokens, len(seq.prompt))
        return token

    def decode(self, seqs) -> List[int]:
        # KV length after the pass: every row appends its last token.
        context = round(sum(seq.total_len for seq in seqs) / len(seqs))
        tokens = self.engine.decode(seqs)
        self.now += self._seconds(len(seqs), context)
        return tokens


def replay(engine, workload: Workload, **batcher_kwargs) -> LoadResult:
    """Replay ``workload`` through ``engine`` on the modeled clock.

    ``batcher_kwargs`` pass through to
    :class:`~repro.serve.batching.ContinuousBatcher`
    (``max_batch_tokens``, ``max_running``, ``max_waiting``,
    ``soft_admit_ratio``).  A request is submitted once the clock
    reaches its arrival, stamped with that arrival; an idle clock jumps
    to the next arrival.  Each prefill costs one
    :func:`~repro.hw.simulator.one_pass` over the tokens the prefix
    cache did not supply; each batched decode one pass of ``m`` = rows
    at the rows' mean context.  ``wall_s`` and every timing in the
    records and ``metrics`` are modeled seconds from the trace start,
    not host time.
    """
    trace = workload.build()
    modeled = _ModeledEngine(engine)
    batcher = ContinuousBatcher(modeled, clock=lambda: modeled.now, **batcher_kwargs)
    records = [
        RequestRecord(i, "error", spec.tier, spec.prompt_len, spec.arrival_s)
        for i, spec in enumerate(trace)
    ]
    due = 0
    while due < len(trace) or batcher.has_work:
        if not batcher.has_work:  # idle: jump to the next arrival
            modeled.now = max(modeled.now, trace[due].arrival_s)
        while due < len(trace) and trace[due].arrival_s <= modeled.now:
            spec = trace[due]
            try:
                batcher.submit(Request(
                    due, spec.prompt, GenerationConfig(spec.max_new_tokens),
                    spec.arrival_s, spec.deadline_s, spec.tier,
                ))
            except Overloaded:
                records[due].outcome = "shed"
            except Exception as exc:  # noqa: BLE001 — recorded, counted, surfaced
                records[due].error = repr(exc)
            due += 1
        if not batcher.has_work:
            continue
        report = batcher.step()
        for rid in report.finished:
            state, record = batcher.finished(rid), records[rid]
            record.outcome = "completed"
            record.tokens = list(state.seq.generated)
            record.n_generated = len(record.tokens)
            record.ttft_s = state.first_token_at - record.arrival_s
            record.latency_s = state.finished_at - record.arrival_s
            record.tbt_s = (record.latency_s - record.ttft_s) / max(len(record.tokens) - 1, 1)
        for rid in report.expired:
            records[rid].outcome = "expired"
            records[rid].n_generated = len(batcher.expired(rid).seq.generated)
    batcher.metrics.stop(modeled.now)
    return LoadResult(
        records=records,
        metrics=batcher.metrics.snapshot(),
        prefix_stats=None if engine.prefix_cache is None else engine.prefix_cache.stats(),
        wall_s=modeled.now,
        workload=workload.describe(),
    )
