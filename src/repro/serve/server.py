"""Asyncio serving front-end over the continuous batcher.

:class:`ServeServer` runs the scheduler loop as a background task.
Clients ``await submit()`` to enqueue a prompt and get a request id,
or ``await generate()`` to block until their tokens come back; any
number of callers can be in flight at once, and the batcher packs
their prefills and decodes into shared token-budgeted steps.

The server degrades gracefully instead of falling over (errors are
the structured kind from :mod:`repro.serve.errors`):

* ``deadline_s`` on a request caps its end-to-end time — an expired
  request's future fails with :class:`DeadlineExceeded`;
* ``max_waiting`` bounds the admission queue, and a draining server
  rejects new work — both surface :class:`Overloaded`;
* :meth:`ServeServer.reload_artifact` hot-swaps new weights under
  live traffic: in-flight requests finish on the engine they started
  on, so the swap drops zero requests.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.serve.batching import ContinuousBatcher, Request, RequestState
from repro.serve.engine import GenerationConfig, InferenceEngine
from repro.serve.errors import DeadlineExceeded, Overloaded
from repro.serve.metrics import ServeMetrics
from repro.serve.prefix import PrefixKVCache

__all__ = ["GenerationResult", "ServeServer"]


@dataclass
class GenerationResult:
    """Completed request: tokens plus per-request timings."""

    request_id: int
    prompt: np.ndarray
    tokens: List[int]
    ttft_s: float
    latency_s: float

    @property
    def prompt_len(self) -> int:
        return int(self.prompt.size)

    @property
    def n_generated(self) -> int:
        return len(self.tokens)


class ServeServer:
    """An in-process async LLM server."""

    def __init__(
        self,
        engine: InferenceEngine,
        max_batch_tokens: int = 512,
        max_running: int = 64,
        max_waiting: Optional[int] = None,
        soft_admit_ratio: float = 0.5,
    ):
        self.metrics = ServeMetrics()
        self._reloads = self.metrics.registry.counter("serve.artifact_reloads")
        self.batcher = ContinuousBatcher(
            engine,
            max_batch_tokens=max_batch_tokens,
            max_running=max_running,
            max_waiting=max_waiting,
            soft_admit_ratio=soft_admit_ratio,
            metrics=self.metrics,
        )
        self._ids = itertools.count()
        self._futures: Dict[int, asyncio.Future] = {}
        self._results: Dict[int, GenerationResult] = {}
        self._wake: Optional[asyncio.Event] = None
        self._loop_task: Optional[asyncio.Task] = None
        self._stop_requested = False
        self._drain_on_stop = True

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._loop_task is not None:
            raise RuntimeError("server already started")
        self._wake = asyncio.Event()
        self._stop_requested = False
        self._loop_task = asyncio.create_task(self._loop())

    async def stop(self, drain: bool = True) -> None:
        """Shut the scheduler loop down.

        With ``drain=True`` (default) outstanding requests finish
        first; with ``drain=False`` the loop exits immediately and
        every unresolved future fails with :class:`RuntimeError`.
        """
        if self._loop_task is None:
            return
        self._stop_requested = True
        self._drain_on_stop = drain
        self._wake.set()
        task, self._loop_task = self._loop_task, None
        await task
        for future in self._futures.values():
            if not future.done():
                future.set_exception(
                    RuntimeError("server stopped before request completed")
                )
        self.metrics.stop()

    # ------------------------------------------------------------------
    # Client API.
    # ------------------------------------------------------------------
    async def submit(
        self,
        prompt: np.ndarray,
        generation: GenerationConfig = GenerationConfig(),
        deadline_s: Optional[float] = None,
        tier: str = "standard",
    ) -> int:
        """Enqueue a prompt; returns the request id immediately.

        ``deadline_s`` caps the request's end-to-end time: once it
        passes, the scheduler cancels the request and its future fails
        with :class:`DeadlineExceeded`.  ``tier`` is the SLO class
        (see :data:`~repro.serve.batching.SLO_TIERS`): it sets decode
        priority and how early the scheduler sheds this request under
        queue pressure.  Raises :class:`Overloaded` when the admission
        queue is full for the tier or the server is draining.
        """
        # Checked before _loop_task: stop() clears the task handle while
        # the drain is still in flight, and a draining server owes the
        # client a structured rejection, not "not started".
        if self._stop_requested:
            self.metrics.rejected += 1
            raise Overloaded("server is draining; not accepting new requests")
        if self._loop_task is None:
            raise RuntimeError("server not started")
        request_id = next(self._ids)
        request = Request(
            request_id=request_id,
            prompt=np.asarray(prompt),
            generation=generation,
            submitted_at=time.monotonic(),
            deadline_s=deadline_s,
            tier=tier,
        )
        self.batcher.submit(request)
        self._futures[request_id] = asyncio.get_running_loop().create_future()
        self._wake.set()
        return request_id

    async def result(self, request_id: int) -> GenerationResult:
        """Wait for a previously submitted request to finish."""
        if request_id in self._results:
            return self._results[request_id]
        return await self._futures[request_id]

    async def generate(
        self,
        prompt: np.ndarray,
        generation: GenerationConfig = GenerationConfig(),
        deadline_s: Optional[float] = None,
        tier: str = "standard",
    ) -> GenerationResult:
        """Submit and wait: the one-call client path."""
        request_id = await self.submit(
            prompt, generation, deadline_s=deadline_s, tier=tier
        )
        return await self.result(request_id)

    # ------------------------------------------------------------------
    # Hot swap.
    # ------------------------------------------------------------------
    def reload_artifact(
        self,
        source: Union[str, Path, InferenceEngine],
        seed: int = 0,
        verify: bool = True,
        mesh=None,
    ) -> InferenceEngine:
        """Swap a new model in under live traffic; returns the old engine.

        ``source`` is an artifact path (loaded with checksum
        verification unless ``verify=False``) or a pre-built
        :class:`InferenceEngine`.  With a
        :class:`~repro.shard.mesh.DeviceMesh` the artifact is served
        over that mesh.  An artifact swapped in behind a prefix-cached
        engine gets a fresh :class:`~repro.serve.prefix.PrefixKVCache`
        of the same block size and budget (the old one's snapshots
        belong to the old weights).  The load happens *before* the
        swap, so a corrupt artifact raises
        :class:`~repro.serve.artifact.ArtifactIntegrityError` and the
        running engine keeps serving.  In-flight requests finish on
        the engine they started on — zero dropped requests.
        """
        if isinstance(source, InferenceEngine):
            engine = source
        else:
            from repro.serve.artifact import load_artifact

            artifact = load_artifact(source, verify=verify)
            old_cache = self.batcher.engine.prefix_cache
            prefix_cache = None
            if old_cache is not None:
                prefix_cache = PrefixKVCache(
                    block_tokens=old_cache.block_tokens,
                    budget_bytes=old_cache.budget_bytes,
                )
            engine = InferenceEngine.from_artifact(
                artifact, seed=seed, prefix_cache=prefix_cache, mesh=mesh
            )
        old = self.batcher.swap_engine(engine)
        self._reloads.inc()
        return old

    # ------------------------------------------------------------------
    # Scheduler loop.
    # ------------------------------------------------------------------
    async def _loop(self) -> None:
        while True:
            if self._stop_requested and not (
                self._drain_on_stop and self.batcher.has_work
            ):
                return
            if not self.batcher.has_work:
                self._wake.clear()
                await self._wake.wait()
                continue
            report = self.batcher.step()
            for request_id in report.finished:
                self._resolve(self.batcher.finished(request_id))
            for request_id in report.expired:
                self._resolve_expired(self.batcher.expired(request_id))
            # Yield so submitters/waiters run between steps.
            await asyncio.sleep(0)

    def _resolve(self, state: RequestState) -> None:
        result = GenerationResult(
            request_id=state.request_id,
            prompt=state.request.prompt,
            tokens=list(state.seq.generated),
            ttft_s=state.first_token_at - state.request.submitted_at,
            latency_s=state.finished_at - state.request.submitted_at,
        )
        self._results[state.request_id] = result
        future = self._futures.pop(state.request_id, None)
        if future is not None and not future.done():
            future.set_result(result)

    def _resolve_expired(self, state: RequestState) -> None:
        future = self._futures.pop(state.request_id, None)
        if future is not None and not future.done():
            future.set_exception(
                DeadlineExceeded(
                    f"request {state.request_id} exceeded its "
                    f"{state.request.deadline_s:.3f}s deadline",
                    request_id=state.request_id,
                    deadline_s=state.request.deadline_s,
                    generated_tokens=len(state.seq.generated),
                )
            )
