"""Continuous-batching scheduler behavior."""

import weakref

import numpy as np
import pytest

from repro.models import CausalLM, get_model_config
from repro.serve.batching import ContinuousBatcher, Request
from repro.serve.engine import GenerationConfig, InferenceEngine


@pytest.fixture(scope="module")
def engine():
    return InferenceEngine(CausalLM(get_model_config("opt-1.3b"), seed=0))


def _mk_request(rid, prompt_len, max_new=4, t0=0.0):
    rng = np.random.default_rng(rid)
    return Request(
        request_id=rid,
        prompt=rng.integers(0, 2048, size=prompt_len),
        generation=GenerationConfig(max_new_tokens=max_new),
        submitted_at=t0,
    )


class TestScheduling:
    def test_drains_all_requests(self, engine):
        batcher = ContinuousBatcher(engine, max_batch_tokens=32)
        for rid in range(6):
            batcher.submit(_mk_request(rid, prompt_len=8, max_new=3))
        reports = batcher.run_until_idle()
        assert not batcher.has_work
        assert batcher.metrics.completed == 6
        for rid in range(6):
            assert len(batcher.finished(rid).seq.generated) == 3
        assert sum(r.prefill_tokens for r in reports) == 6 * 8

    def test_token_budget_respected(self, engine):
        batcher = ContinuousBatcher(engine, max_batch_tokens=16)
        for rid in range(8):
            batcher.submit(_mk_request(rid, prompt_len=8, max_new=4))
        for report in batcher.run_until_idle():
            assert report.batch_tokens <= 16

    def test_continuous_admission(self, engine):
        """New prompts join the batch while earlier ones still decode —
        some step must mix prefill and decode work."""
        batcher = ContinuousBatcher(engine, max_batch_tokens=24)
        for rid in range(5):
            batcher.submit(_mk_request(rid, prompt_len=12, max_new=6))
        mixed = [
            r for r in batcher.run_until_idle() if r.prefilled and r.decoded
        ]
        assert mixed, "prefill never overlapped decode"

    def test_decode_priority_over_admission(self, engine):
        """Running sequences decode before new prompts are admitted:
        with the budget filled by decodes, admission waits."""
        batcher = ContinuousBatcher(engine, max_batch_tokens=8)
        for rid in range(8):
            batcher.submit(_mk_request(rid, prompt_len=8, max_new=8))
        batcher.step()  # admits exactly one prompt (budget 8 = prompt)
        assert batcher.n_running == 1
        report = batcher.step()
        # 1 decode + no room for an 8-token prefill? budget 8 - 1 = 7 < 8.
        assert report.decoded and not report.prefilled

    def test_small_budget_round_robins(self, engine):
        """A budget smaller than the running batch still lets every
        sequence make progress across steps."""
        batcher = ContinuousBatcher(engine, max_batch_tokens=4)
        for rid in range(4):
            batcher.submit(_mk_request(rid, prompt_len=4, max_new=8))
        batcher.run_until_idle()
        assert batcher.metrics.completed == 4

    def test_oversized_prompt_rejected(self, engine):
        batcher = ContinuousBatcher(engine, max_batch_tokens=16)
        with pytest.raises(ValueError, match="exceeds"):
            batcher.submit(_mk_request(0, prompt_len=17))

    def test_max_running_caps_batch(self, engine):
        batcher = ContinuousBatcher(engine, max_batch_tokens=64, max_running=2)
        for rid in range(4):
            batcher.submit(_mk_request(rid, prompt_len=4, max_new=8))
        batcher.step()
        assert batcher.n_running == 2
        assert batcher.n_waiting == 2

    def test_metrics_populated(self, engine):
        clock_value = [0.0]

        def clock():
            clock_value[0] += 0.25
            return clock_value[0]

        batcher = ContinuousBatcher(engine, max_batch_tokens=32, clock=clock)
        for rid in range(3):
            batcher.submit(_mk_request(rid, prompt_len=6, max_new=2))
        batcher.run_until_idle()
        m = batcher.metrics
        assert m.submitted == m.completed == 3
        assert m.ttft.count == 3 and m.latency.count == 3
        assert m.decode_tokens == 3 * 2
        assert m.prefill_tokens == 3 * 6
        assert m.elapsed_s > 0
        d = m.to_dict()
        assert d["requests"] == {
            "submitted": 3,
            "completed": 3,
            "expired": 0,
            "rejected": 0,
        }
        assert d["latency"]["p95_s"] >= d["latency"]["p50_s"] >= 0

    def test_unstamped_submit_gets_sane_latency(self, engine):
        """A Request left at submitted_at=0.0 is stamped on submit, so
        TTFT is step-scale, not absolute-clock-scale."""
        batcher = ContinuousBatcher(engine, max_batch_tokens=32)
        batcher.submit(_mk_request(0, prompt_len=6, max_new=2, t0=0.0))
        batcher.run_until_idle()
        assert 0 <= batcher.metrics.ttft.percentile(50) < 60.0


class TestKVRelease:
    def test_finished_request_drops_its_cache(self, engine):
        batcher = ContinuousBatcher(engine, max_batch_tokens=32)
        state = batcher.submit(_mk_request(0, prompt_len=8, max_new=3))
        batcher.step()  # prefill
        ref = weakref.ref(state.seq.cache)
        batcher.run_until_idle()
        assert batcher.finished(0) is state
        assert ref() is None
        with pytest.raises(RuntimeError, match="already prefilled"):
            engine.prefill(state.seq)

    def test_expired_request_drops_its_cache(self, engine):
        clock = [0.0]
        batcher = ContinuousBatcher(
            engine, max_batch_tokens=32, clock=lambda: clock[0]
        )
        request = _mk_request(0, prompt_len=8, max_new=8)
        request.deadline_s = 0.5
        state = batcher.submit(request)
        batcher.step()  # prefill; now running
        ref = weakref.ref(state.seq.cache)
        clock[0] = 1.0
        assert batcher.step().expired == [0]
        assert batcher.expired(0) is state
        assert ref() is None
        with pytest.raises(RuntimeError, match="already prefilled"):
            engine.prefill(state.seq)
        with pytest.raises(RuntimeError, match="released"):
            engine.decode([state.seq])
