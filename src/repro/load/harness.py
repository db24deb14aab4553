"""Asyncio load driver: fire a scripted trace at a live ServeServer.

:func:`drive` replays a :class:`~repro.load.traffic.Workload` against
a running :class:`~repro.serve.server.ServeServer` — one asyncio task
per scripted request, sleeping until its arrival offset, then calling
``server.generate`` with the scripted prompt/tier/deadline.  Every
outcome is recorded, including the structured failures:

* ``"completed"`` — tokens came back; TTFT, TBT, and end-to-end
  latency are taken from the server's per-request timings;
* ``"shed"`` — admission control raised
  :class:`~repro.serve.errors.Overloaded`;
* ``"expired"`` — the deadline passed mid-flight
  (:class:`~repro.serve.errors.DeadlineExceeded`);
* ``"error"`` — anything else (kept, never swallowed: the summary
  re-raises visibility by counting it, and the record holds the repr).

When the trace is done, the driver takes one
:meth:`~repro.serve.server.ServeServer.metrics_snapshot`.
:meth:`LoadResult.summary` folds everything into one dict, with a hard
``lost`` accounting check: every submitted request must come back as
completed, shed, expired, or errored.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.serve.errors import DeadlineExceeded, Overloaded
from repro.serve.metrics import LatencyStats
from repro.serve.server import ServeServer

from repro.load.traffic import RequestSpec, Workload

__all__ = ["RequestRecord", "LoadResult", "drive", "run_load"]


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


async def _fire(
    server: ServeServer,
    spec: RequestSpec,
    index: int,
    start: float,
) -> RequestRecord:
    from repro.serve.engine import GenerationConfig

    delay = start + spec.arrival_s - time.monotonic()
    if delay > 0:
        await asyncio.sleep(delay)
    record = RequestRecord(
        index=index,
        outcome="error",
        tier=spec.tier,
        prompt_len=spec.prompt_len,
        arrival_s=spec.arrival_s,
    )
    try:
        result = await server.generate(
            spec.prompt,
            GenerationConfig(max_new_tokens=spec.max_new_tokens),
            deadline_s=spec.deadline_s,
            tier=spec.tier,
        )
    except Overloaded:
        record.outcome = "shed"
    except DeadlineExceeded as exc:
        record.outcome = "expired"
        record.n_generated = exc.to_dict().get("generated_tokens", 0)
    except Exception as exc:  # noqa: BLE001 — recorded, counted, surfaced
        record.outcome = "error"
        record.error = repr(exc)
    else:
        record.outcome = "completed"
        record.ttft_s = result.ttft_s
        record.latency_s = result.latency_s
        record.n_generated = result.n_generated
        record.tokens = list(result.tokens)
        record.tbt_s = (result.latency_s - result.ttft_s) / max(
            result.n_generated - 1, 1
        )
    return record


async def drive(server: ServeServer, workload: Workload) -> LoadResult:
    """Replay ``workload`` against a started ``server``.

    The server must already be running (``await server.start()``); the
    caller keeps ownership and stops it afterwards.  Returns once
    every scripted request has resolved one way or another.
    """
    trace = workload.build()
    start = time.monotonic()
    tasks = [
        asyncio.create_task(_fire(server, spec, i, start))
        for i, spec in enumerate(trace)
    ]
    records = list(await asyncio.gather(*tasks))
    wall_s = time.monotonic() - start

    engine = server.batcher.engine
    prefix_stats = (
        engine.prefix_cache.stats() if engine.prefix_cache is not None else None
    )
    return LoadResult(
        records=records,
        metrics=server.metrics_snapshot(),
        prefix_stats=prefix_stats,
        wall_s=wall_s,
        workload=workload.describe(),
    )


def run_load(engine, workload: Workload, **server_kwargs) -> LoadResult:
    """Synchronous one-call path: build a server, drive, tear down.

    ``server_kwargs`` pass through to
    :class:`~repro.serve.server.ServeServer` (``max_batch_tokens``,
    ``max_waiting``, ``soft_admit_ratio``, ...).
    """

    async def main() -> LoadResult:
        server = ServeServer(engine, **server_kwargs)
        await server.start()
        try:
            return await drive(server, workload)
        finally:
            await server.stop()

    return asyncio.run(main())
