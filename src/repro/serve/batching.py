"""Continuous batching: token-budgeted prefill/decode interleaving.

The scheduler follows the vLLM iteration model: every :meth:`step`
spends a ``max_batch_tokens`` budget, decoding each running sequence
(one token apiece, all in one batched engine call — Orca's
iteration-level batching) first and admitting waiting prompts into
the batch with whatever budget remains.  Sequences join and leave the
batch at step granularity — a finished request frees its slot
immediately, and a newly admitted one starts decoding on the very next
step, so the batch never drains to refill (the "continuous" part).

Requests carry an SLO *tier* (:data:`SLO_TIERS`: ``interactive`` >
``standard`` > ``batch``).  The scheduler is strict-priority across
tiers and round-robin within one: decode budget goes to the highest
tier first (a scarce budget can therefore never starve latency-critical
decodes behind batch work), and admission prefers the
earliest-submitted request of the highest waiting tier.

Degradation is explicit (see :mod:`repro.serve.errors`):

* ``max_waiting`` bounds the admission queue — an overfull queue sheds
  the new request with :class:`~repro.serve.errors.Overloaded` instead
  of growing without limit; queue-depth-aware shedding rejects
  ``batch``-tier work earlier (at ``soft_admit_ratio`` of the bound)
  so background traffic is the first to back off under pressure;
* a request's ``deadline_s`` is checked every step; an expired request
  is cancelled and evicted from whichever queue holds it, surfacing as
  a structured :class:`~repro.serve.errors.DeadlineExceeded`;
* each request pins the engine it started on, so
  :meth:`ContinuousBatcher.swap_engine` hot-swaps a new artifact into
  the scheduler while in-flight sequences (whose KV caches belong to
  the old weights) finish where they began — zero dropped requests.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

import numpy as np

from repro.obs.trace import NOOP_SPAN, TRACER
from repro.resilience import faults
from repro.serve.engine import GenerationConfig, InferenceEngine, SequenceState
from repro.serve.errors import Overloaded
from repro.serve.metrics import ServeMetrics

__all__ = ["Request", "RequestState", "StepReport", "ContinuousBatcher", "SLO_TIERS"]

#: Latency tiers, highest priority first.  ``interactive`` is the
#: chat-style low-TTFT class, ``standard`` the default, ``batch`` the
#: throughput class that is shed first and decoded last.
SLO_TIERS = {"interactive": 2, "standard": 1, "batch": 0}


@dataclass
class Request:
    """One generation request as submitted by a client."""

    request_id: int
    prompt: np.ndarray
    generation: GenerationConfig = field(default_factory=GenerationConfig)
    submitted_at: float = 0.0
    #: Seconds (on the scheduler clock, from submission) this request
    #: may take end-to-end; ``None`` = no deadline.
    deadline_s: Optional[float] = None
    #: SLO class (a :data:`SLO_TIERS` key); governs decode priority,
    #: admission order, and how early the request is shed under load.
    tier: str = "standard"

    @property
    def priority(self) -> int:
        return SLO_TIERS[self.tier]


@dataclass
class RequestState:
    """Scheduler-side bookkeeping for one request."""

    request: Request
    seq: SequenceState
    first_token_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Absolute scheduler-clock instant the request expires at.
    deadline_at: Optional[float] = None
    #: The engine this request prefills/decodes on (pinned at submit
    #: so artifact hot swaps never touch an in-flight KV cache).
    engine: Optional[InferenceEngine] = None
    expired: bool = False
    #: Host wall time (``time.time_ns()``) at submit: the start of the
    #: request's trace span, on the same clock as the step spans.
    submitted_wall_ns: int = 0

    @property
    def request_id(self) -> int:
        return self.request.request_id

    @property
    def priority(self) -> int:
        return self.request.priority


@dataclass
class StepReport:
    """What one scheduler step executed."""

    step: int
    prefilled: List[int] = field(default_factory=list)
    decoded: List[int] = field(default_factory=list)
    finished: List[int] = field(default_factory=list)
    expired: List[int] = field(default_factory=list)
    prefill_tokens: int = 0
    decode_tokens: int = 0
    #: Prompt tokens served from the engine's prefix cache instead of
    #: being recomputed by this step's prefills.
    prefix_reused_tokens: int = 0

    @property
    def batch_tokens(self) -> int:
        """Budget spent this step (prompt tokens + decode passes)."""
        return self.prefill_tokens + self.decode_tokens

    @property
    def generated_tokens(self) -> int:
        """New tokens produced: one per decode pass, plus the first
        token each prefill samples from its own forward pass."""
        return self.decode_tokens + len(self.prefilled)


class ContinuousBatcher:
    """Queue + step executor over an :class:`InferenceEngine`."""

    def __init__(
        self,
        engine: InferenceEngine,
        max_batch_tokens: int = 512,
        max_running: int = 64,
        max_waiting: Optional[int] = None,
        soft_admit_ratio: float = 0.5,
        clock: Callable[[], float] = time.monotonic,
        metrics: Optional[ServeMetrics] = None,
    ):
        if max_batch_tokens < 1:
            raise ValueError("max_batch_tokens must be at least 1")
        if max_waiting is not None and max_waiting < 1:
            raise ValueError("max_waiting must be at least 1 (or None)")
        if not (0.0 < soft_admit_ratio <= 1.0):
            raise ValueError("soft_admit_ratio must be in (0, 1]")
        self.engine = engine
        self.max_batch_tokens = max_batch_tokens
        self.max_running = max_running
        self.max_waiting = max_waiting
        #: Fraction of ``max_waiting`` past which the lowest SLO tier
        #: (``batch``) is shed; higher tiers admit up to the full bound.
        self.soft_admit_ratio = soft_admit_ratio
        self.clock = clock
        self.metrics = metrics if metrics is not None else ServeMetrics()
        #: One FIFO queue per SLO tier, highest priority first.
        self._waiting: Dict[int, Deque[RequestState]] = {
            priority: deque()
            for priority in sorted(set(SLO_TIERS.values()), reverse=True)
        }
        self._running: Deque[RequestState] = deque()
        self._finished: Dict[int, RequestState] = {}
        self._expired: Dict[int, RequestState] = {}
        self._step = 0

    # ------------------------------------------------------------------
    def admit_limit(self, tier: str) -> Optional[int]:
        """Queue depth at which ``tier`` stops being admitted.

        The lowest tier sheds at ``soft_admit_ratio * max_waiting`` so
        background work backs off before the queue saturates; every
        other tier admits up to the full ``max_waiting`` bound.
        """
        if self.max_waiting is None:
            return None
        if SLO_TIERS[tier] <= min(SLO_TIERS.values()):
            return max(1, int(self.max_waiting * self.soft_admit_ratio))
        return self.max_waiting

    def submit(self, request: Request) -> RequestState:
        """Queue a request; it enters the batch on a later step.

        Raises :class:`Overloaded` when the admission queue is full
        for the request's SLO tier — the request is shed, not silently
        queued behind work the server cannot keep up with.
        """
        if request.tier not in SLO_TIERS:
            raise ValueError(
                f"unknown SLO tier {request.tier!r}; "
                f"known: {', '.join(SLO_TIERS)}"
            )
        limit = self.admit_limit(request.tier)
        n_waiting = self.n_waiting
        if limit is not None and n_waiting >= limit:
            self.metrics.rejected += 1
            self.metrics.registry.counter(
                "serve.requests.shed", tier=request.tier
            ).inc()
            raise Overloaded(
                f"admission queue full for tier {request.tier!r} "
                f"({n_waiting} waiting, limit {limit})",
                request_id=request.request_id,
                waiting=n_waiting,
                tier=request.tier,
            )
        if not request.submitted_at:
            # Stamp with the scheduler clock so TTFT/latency are sane
            # for callers that leave the dataclass default in place.
            request.submitted_at = self.clock()
        prompt_len = int(np.asarray(request.prompt).size)
        if prompt_len > self.max_batch_tokens:
            raise ValueError(
                f"prompt of {prompt_len} tokens exceeds the per-step "
                f"budget of {self.max_batch_tokens}"
            )
        seq = self.engine.start_sequence(request.prompt, request.generation)
        state = RequestState(
            request=request,
            seq=seq,
            engine=self.engine,
            submitted_wall_ns=time.time_ns(),
        )
        if request.deadline_s is not None:
            state.deadline_at = request.submitted_at + request.deadline_s
        self._waiting[request.priority].append(state)
        self.metrics.submitted += 1
        self.metrics.queue_waiting.set(n_waiting + 1)
        self.metrics.start(self.clock())
        return state

    @property
    def has_work(self) -> bool:
        return bool(self._running) or self.n_waiting > 0

    @property
    def n_waiting(self) -> int:
        return sum(map(len, self._waiting.values()))

    @property
    def n_running(self) -> int:
        return len(self._running)

    def finished(self, request_id: int) -> RequestState:
        return self._finished[request_id]

    def expired(self, request_id: int) -> RequestState:
        return self._expired[request_id]

    # ------------------------------------------------------------------
    def swap_engine(self, engine: InferenceEngine) -> InferenceEngine:
        """Replace the engine for *future* work; return the old one.

        In-flight requests (waiting or running) pinned the engine they
        started on and finish there — their KV caches belong to the old
        weights — so a hot swap drops nothing.
        """
        old, self.engine = self.engine, engine
        return old

    # ------------------------------------------------------------------
    def step(self) -> StepReport:
        """Run one continuous-batching iteration."""
        traced = TRACER.enabled
        step_span = (
            TRACER.span("serve.step", step=self._step) if traced else NOOP_SPAN
        )
        with step_span as sp:
            report = StepReport(step=self._step)
            budget = self.max_batch_tokens
            self._expire_overdue(report)

            # Decode pass: one token per running sequence, highest SLO
            # tier first so a scarce budget never starves
            # latency-critical decodes behind batch work.  Within one
            # tier the queue rotates so the budget round-robins fairly
            # instead of starving the tail.
            classes: Dict[int, List[RequestState]] = {}
            for state in self._running:
                classes.setdefault(state.priority, []).append(state)
            tiers = []
            picked: List[RequestState] = []
            for priority in sorted(classes, reverse=True):
                queue = classes[priority]
                take = min(budget, len(queue))
                budget -= take
                picked.extend(queue[:take])
                tiers.append((queue[:take], queue[take:]))
            self._decode(picked, traced)
            self._running = deque()
            for decoded, skipped in tiers:
                still_running: Deque[RequestState] = deque()
                for state in decoded:
                    report.decoded.append(state.request_id)
                    report.decode_tokens += 1
                    if state.seq.done:
                        self._finish(state, report)
                    else:
                        still_running.append(state)
                still_running.extend(skipped)
                if skipped and still_running:
                    still_running.rotate(-1)
                self._running.extend(still_running)

            # Admission pass: prefill waiting prompts with leftover
            # budget, earliest request of the highest waiting tier
            # first (strict priority: a blocked high-tier head also
            # blocks lower tiers, so they cannot jump the class).
            while len(self._running) < self.max_running:
                queue = next((q for q in self._waiting.values() if q), None)
                if queue is None or queue[0].seq.prompt.size > budget:
                    break
                state = queue.popleft()
                budget -= state.seq.prompt.size
                with (
                    TRACER.span(
                        "serve.prefill",
                        request=state.request_id,
                        prompt_tokens=int(state.seq.prompt.size),
                    )
                    if traced
                    else NOOP_SPAN
                ):
                    (state.engine or self.engine).prefill(state.seq)
                state.first_token_at = self.clock()
                self.metrics.ttft.record(
                    state.first_token_at - state.request.submitted_at
                )
                report.prefilled.append(state.request_id)
                report.prefill_tokens += state.seq.prompt.size
                report.prefix_reused_tokens += state.seq.prefix_hit_tokens
                self.metrics.prefill_reused += state.seq.prefix_hit_tokens
                if state.seq.done:
                    self._finish(state, report)
                else:
                    self._running.append(state)

            self._step += 1
            self.metrics.steps += 1
            self.metrics.prefill_tokens += report.prefill_tokens
            self.metrics.decode_tokens += report.generated_tokens
            self.metrics.queue_waiting.set(self.n_waiting)
            self.metrics.queue_running.set(len(self._running))
            if sp is not None:
                sp.args.update(
                    prefilled=len(report.prefilled),
                    decoded=len(report.decoded),
                    finished=len(report.finished),
                    expired=len(report.expired),
                )
            return report

    def _decode(self, picked: List[RequestState], traced: bool) -> None:
        """One batched decode call per engine over ``picked``, in order.

        A request pins the engine it started on, so after a hot swap
        the step can span two engines; each samples its own rows in
        pick order, keeping seeded sampling's RNG draws unchanged.
        """
        by_engine: Dict[int, List[RequestState]] = {}
        for state in picked:
            by_engine.setdefault(id(state.engine or self.engine), []).append(state)
        for group in by_engine.values():
            ids = [state.request_id for state in group]
            with TRACER.span("serve.decode", requests=ids) if traced else NOOP_SPAN:
                if faults.enabled():
                    for rid in ids:
                        faults.fire("serve.decode", request=rid)
                (group[0].engine or self.engine).decode([s.seq for s in group])

    def run_until_idle(self, max_steps: int = 100_000) -> List[StepReport]:
        """Drive :meth:`step` until every request completes."""
        reports = []
        while self.has_work:
            if len(reports) >= max_steps:
                raise RuntimeError(f"scheduler did not drain in {max_steps} steps")
            reports.append(self.step())
        self.metrics.stop(self.clock())
        return reports

    # ------------------------------------------------------------------
    def _expire_overdue(self, report: StepReport) -> None:
        """Cancel every queued/running request whose deadline passed.

        Runs at the top of each step so an expired request costs no
        further decode budget; the server maps the eviction onto the
        request's future as :class:`~repro.serve.errors.DeadlineExceeded`.
        """
        now = self.clock()
        for queue in (*self._waiting.values(), self._running):
            overdue = [
                s
                for s in queue
                if s.deadline_at is not None and now >= s.deadline_at
            ]
            for state in overdue:
                queue.remove(state)
                state.seq.cache = None  # release the KV memory now
                state.expired = True
                state.finished_at = now
                self._expired[state.request_id] = state
                report.expired.append(state.request_id)
                self.metrics.expired += 1

    # ------------------------------------------------------------------
    def _finish(self, state: RequestState, report: StepReport) -> None:
        state.seq.cache = None  # release the KV memory now
        state.finished_at = self.clock()
        self.metrics.completed += 1
        latency = state.finished_at - state.request.submitted_at
        self.metrics.latency.record(latency)
        self._finished[state.request_id] = state
        report.finished.append(state.request_id)
        if TRACER.enabled:
            # The request lifecycle cannot be a lexical block — submit
            # and completion land on different steps — so emit it with
            # explicit host timestamps, the clock every other serve span
            # uses; the scheduler-clock timings ride along as args.
            TRACER.add_span(
                "serve.request",
                start_wall_ns=state.submitted_wall_ns,
                dur_ns=time.time_ns() - state.submitted_wall_ns,
                request=state.request_id,
                prompt_tokens=int(state.seq.prompt.size),
                generated_tokens=len(state.seq.generated),
                latency_s=latency,
                ttft_s=(
                    None
                    if state.first_token_at is None
                    else state.first_token_at - state.request.submitted_at
                ),
            )
