"""Property-based stress tests for the continuous-batching scheduler.

A deterministic :class:`FakeEngine` (token *i* of a request is a pure
function of its prompt) makes thousands of randomized scheduler steps
cheap and every output stream checkable.  The invariants, checked on
seeded-random and hypothesis-generated schedules:

* **no request lost** — every submit ends as completed or rejected
  (with deadlines: or expired), and the metrics counters agree;
* **no token out of order** — each finished stream equals the
  request's deterministic expected stream exactly;
* **budget respected** — no step spends more than ``max_batch_tokens``;
* **no priority starvation** — if a running request was skipped in a
  step's decode pass, no strictly-lower-tier request was decoded in
  that same step (strict priority holds step by step, so a high tier
  can never wait on ``batch`` work).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.batching import SLO_TIERS, ContinuousBatcher, Request
from repro.serve.engine import GenerationConfig, SequenceState
from repro.serve.errors import Overloaded

MOD = 997
_PREFILLED = object()


def _token(prompt_sum: int, i: int) -> int:
    return int((prompt_sum * 31 + i) % MOD)


class FakeEngine:
    """Deterministic token source satisfying the batcher's engine API."""

    def start_sequence(self, prompt, generation=GenerationConfig()):
        prompt = np.asarray(prompt, dtype=np.int64).reshape(-1)
        if prompt.size == 0:
            raise ValueError("empty prompt")
        return SequenceState(prompt=prompt, generation=generation)

    def prefill(self, seq):
        seq.cache = _PREFILLED
        seq.generated.append(_token(int(seq.prompt.sum()), 0))

    def decode(self, seqs):
        for seq in seqs:
            seq.generated.append(_token(int(seq.prompt.sum()), len(seq.generated)))


def expected_stream(prompt, max_new):
    s = int(np.asarray(prompt).sum())
    return [_token(s, i) for i in range(max_new)]


def drive_schedule(specs, max_batch_tokens, seed, max_waiting=8):
    """Submit ``specs`` on a seeded random schedule, checking step
    invariants throughout; returns (batcher, accepted, expected)."""
    rng = np.random.default_rng(seed)
    batcher = ContinuousBatcher(
        FakeEngine(), max_batch_tokens=max_batch_tokens, max_waiting=max_waiting
    )
    pending = list(specs)
    accepted, expected = [], {}
    rejected = 0
    rid = 0
    guard = 0
    while pending or batcher.has_work:
        guard += 1
        assert guard < 10_000, "scheduler failed to drain"
        for _ in range(int(rng.integers(0, 4))):
            if not pending:
                break
            prompt_len, max_new, tier = pending.pop()
            prompt = rng.integers(0, 100, size=prompt_len)
            request = Request(
                request_id=rid,
                prompt=prompt,
                generation=GenerationConfig(max_new_tokens=max_new),
                tier=tier,
                submitted_at=1.0,
            )
            try:
                batcher.submit(request)
            except Overloaded:
                rejected += 1
            else:
                accepted.append(rid)
                expected[rid] = expected_stream(prompt, max_new)
            rid += 1

        pre_running = [(s.request_id, s.priority) for s in batcher._running]
        report = batcher.step()

        # Budget respected.
        assert report.batch_tokens <= max_batch_tokens

        # Strict priority: a skipped running request implies nothing
        # lower-tier was decoded this step.
        decoded = set(report.decoded)
        for req_id, priority in pre_running:
            if req_id not in decoded:
                lower_decoded = [
                    r for r, p in pre_running if p < priority and r in decoded
                ]
                assert not lower_decoded, (
                    f"request {req_id} (priority {priority}) starved while "
                    f"lower-tier {lower_decoded} decoded"
                )

    # Accounting: nothing lost.
    assert batcher.metrics.submitted == len(accepted)
    assert batcher.metrics.completed == len(accepted)
    assert batcher.metrics.rejected == rejected
    assert batcher.metrics.expired == 0

    # Streams exact and in order.
    for req_id in accepted:
        state = batcher.finished(req_id)
        assert state.seq.generated == expected[req_id], f"request {req_id}"
    return batcher, accepted, expected


request_specs = st.lists(
    st.tuples(
        st.integers(1, 10),  # prompt length
        st.integers(1, 5),  # max_new_tokens
        st.sampled_from(sorted(SLO_TIERS)),
    ),
    min_size=1,
    max_size=30,
)


class TestSchedulerProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        specs=request_specs,
        max_batch_tokens=st.integers(10, 48),
        seed=st.integers(0, 2**16),
    )
    def test_invariants_hold_on_random_schedules(
        self, specs, max_batch_tokens, seed
    ):
        drive_schedule(specs, max_batch_tokens, seed)

    def test_large_seeded_stress(self):
        """300 mixed-tier requests through a tight budget."""
        rng = np.random.default_rng(42)
        tiers = sorted(SLO_TIERS)
        specs = [
            (
                int(rng.integers(1, 12)),
                int(rng.integers(1, 6)),
                tiers[int(rng.integers(0, len(tiers)))],
            )
            for _ in range(300)
        ]
        batcher, accepted, _ = drive_schedule(
            specs, max_batch_tokens=24, seed=7, max_waiting=16
        )
        assert len(accepted) > 100  # the run wasn't all sheds

    def test_interactive_decodes_before_batch_every_step(self):
        """The decode pass serves the interactive request ahead of
        batch work on every step, even though it was submitted last."""
        batcher = ContinuousBatcher(FakeEngine(), max_batch_tokens=4)
        for rid, tier in enumerate(["batch", "batch", "interactive"]):
            batcher.submit(
                Request(
                    request_id=rid,
                    prompt=np.array([rid + 1]),
                    generation=GenerationConfig(max_new_tokens=8),
                    tier=tier,
                    submitted_at=1.0,
                )
            )
        first = batcher.step()  # all three admitted (3 prompt tokens)
        assert set(first.prefilled) == {0, 1, 2}
        interactive_steps = 0
        while 2 not in batcher._finished:
            report = batcher.step()
            assert report.decoded[0] == 2
            interactive_steps += 1
        assert interactive_steps > 0
        batcher.run_until_idle()
        assert batcher.metrics.completed == 3


class TestAdmissionShedding:
    def test_batch_tier_sheds_before_standard(self):
        batcher = ContinuousBatcher(
            FakeEngine(), max_batch_tokens=64, max_waiting=4, soft_admit_ratio=0.5
        )
        assert batcher.admit_limit("batch") == 2
        assert batcher.admit_limit("standard") == 4
        assert batcher.admit_limit("interactive") == 4
        for rid in range(2):
            batcher.submit(
                Request(request_id=rid, prompt=np.arange(1, 3), tier="standard",
                        submitted_at=1.0)
            )
        with pytest.raises(Overloaded):
            batcher.submit(
                Request(request_id=2, prompt=np.arange(1, 3), tier="batch",
                        submitted_at=1.0)
            )
        # Standard still admits up to the full bound.
        batcher.submit(
            Request(request_id=3, prompt=np.arange(1, 3), tier="standard",
                    submitted_at=1.0)
        )
        shed = batcher.metrics.registry.counter(
            "serve.requests.shed", tier="batch"
        )
        assert shed.value == 1

    def test_unknown_tier_rejected_loudly(self):
        batcher = ContinuousBatcher(FakeEngine())
        with pytest.raises(ValueError, match="unknown SLO tier"):
            batcher.submit(
                Request(request_id=0, prompt=np.arange(1, 3), tier="platinum")
            )

    def test_invalid_soft_admit_ratio(self):
        with pytest.raises(ValueError):
            ContinuousBatcher(FakeEngine(), soft_admit_ratio=0.0)
        with pytest.raises(ValueError):
            ContinuousBatcher(FakeEngine(), soft_admit_ratio=1.5)

    def test_admission_prefers_highest_waiting_tier(self):
        batcher = ContinuousBatcher(FakeEngine(), max_batch_tokens=4)
        order = [("batch", 0), ("standard", 1), ("interactive", 2)]
        for tier, rid in order:
            batcher.submit(
                Request(
                    request_id=rid,
                    prompt=np.arange(1, 4),
                    generation=GenerationConfig(max_new_tokens=1),
                    tier=tier,
                    submitted_at=1.0,
                )
            )
        first = batcher.step()
        assert first.prefilled == [2]  # interactive first despite FIFO order
        second = batcher.step()
        assert second.prefilled[0] == 1

    def test_admission_fifo_after_expiry_and_blocked_head(self):
        """Within a tier admission stays FIFO after an expiry removes a
        middle request, and a high-tier head that does not fit the
        leftover budget blocks every lower tier that would."""
        now = [1.0]
        batcher = ContinuousBatcher(
            FakeEngine(), max_batch_tokens=4, clock=lambda: now[0]
        )
        for rid, tier, prompt_len, deadline in [
            (0, "standard", 2, None),
            (1, "standard", 2, 0.5),
            (2, "standard", 2, None),
            (3, "interactive", 3, None),
            (4, "batch", 1, None),
        ]:
            batcher.submit(
                Request(
                    request_id=rid,
                    prompt=np.arange(1, prompt_len + 1),
                    generation=GenerationConfig(max_new_tokens=1),
                    deadline_s=deadline,
                    tier=tier,
                )
            )
        now[0] = 2.0
        first = batcher.step()
        assert first.expired == [1]
        # Interactive leaves 1 token; the standard head needs 2, so the
        # 1-token batch request may not jump it.
        assert first.prefilled == [3]
        assert batcher.step().prefilled == [0, 2]
        assert batcher.step().prefilled == [4]
        assert not batcher.has_work

    def test_waiting_count_spans_tiers(self):
        """The admission limit, ``n_waiting`` and the ``queue_waiting``
        gauge count every tier's queue together: waiting interactive and
        standard requests fill the bound that sheds a batch request."""
        batcher = ContinuousBatcher(
            FakeEngine(), max_batch_tokens=64, max_waiting=4, soft_admit_ratio=0.5
        )

        def submit(rid, tier):
            return batcher.submit(
                Request(request_id=rid, prompt=np.arange(1, 3), tier=tier,
                        submitted_at=1.0)
            )

        submit(0, "interactive")
        submit(1, "standard")
        assert batcher.n_waiting == 2
        assert batcher.metrics.queue_waiting.value == 2
        assert batcher.has_work
        with pytest.raises(Overloaded) as shed:
            submit(2, "batch")
        assert shed.value.details["waiting"] == 2
        submit(3, "standard")
        submit(4, "interactive")
        with pytest.raises(Overloaded) as full:
            submit(5, "interactive")
        assert full.value.details["waiting"] == 4
        assert batcher.n_waiting == 4
        assert batcher.metrics.queue_waiting.value == 4
        assert batcher.step().prefilled == [0, 4, 1, 3]
        assert batcher.n_waiting == 0
        assert batcher.metrics.queue_waiting.value == 0
        while batcher.has_work:
            batcher.step()
        assert batcher.metrics.completed == 4
