"""Asyncio front-end and the hardware bridge."""

import asyncio

import numpy as np
import pytest

from repro.models import CausalLM, get_model_config
from repro.serve import (
    GenerationConfig,
    InferenceEngine,
    RequestTrace,
    ServeServer,
    hardware_report,
)


@pytest.fixture(scope="module")
def engine():
    return InferenceEngine(CausalLM(get_model_config("opt-1.3b"), seed=0))


def _run(coro):
    return asyncio.run(coro)


class TestServer:
    def test_eight_concurrent_requests(self, engine):
        async def main():
            server = ServeServer(engine, max_batch_tokens=48)
            await server.start()
            rng = np.random.default_rng(0)
            prompts = [rng.integers(0, 2048, size=6 + i) for i in range(8)]
            results = await asyncio.gather(
                *[
                    server.generate(p, GenerationConfig(max_new_tokens=4))
                    for p in prompts
                ]
            )
            await server.stop()
            return server, results, prompts

        server, results, prompts = _run(main())
        assert len(results) == 8
        for res, prompt in zip(results, prompts):
            assert res.n_generated == 4
            assert res.prompt_len == prompt.size
            assert 0 <= res.ttft_s <= res.latency_s
        assert server.metrics.completed == 8
        assert server.metrics.decode_tokens_per_s > 0

    def test_submit_then_result(self, engine):
        async def main():
            server = ServeServer(engine, max_batch_tokens=32)
            await server.start()
            rid = await server.submit(
                np.arange(5), GenerationConfig(max_new_tokens=3)
            )
            result = await server.result(rid)
            # A second await returns the cached result.
            again = await server.result(rid)
            await server.stop()
            return rid, result, again

        rid, result, again = _run(main())
        assert result.request_id == rid
        assert result is again
        assert len(result.tokens) == 3

    def test_greedy_results_match_engine(self, engine):
        """Serving must not change the tokens: batched greedy decode
        equals the engine's synchronous generation."""

        async def main():
            server = ServeServer(engine, max_batch_tokens=64)
            await server.start()
            out = await asyncio.gather(
                *[
                    server.generate(
                        np.arange(4 + i), GenerationConfig(max_new_tokens=5)
                    )
                    for i in range(4)
                ]
            )
            await server.stop()
            return out

        results = _run(main())
        for i, res in enumerate(results):
            ref = engine.generate(
                np.arange(4 + i), GenerationConfig(max_new_tokens=5)
            )
            assert res.tokens == ref.generated

    def test_submit_before_start_rejected(self, engine):
        async def main():
            server = ServeServer(engine)
            with pytest.raises(RuntimeError, match="not started"):
                await server.submit(np.arange(4))

        _run(main())

    def test_refused_request_leaves_the_loop_serving(self, engine):
        """A NaN temperature is refused before it is queued, so it never
        reaches sampling inside the serve loop: a valid request
        submitted alongside still completes."""

        async def main():
            server = ServeServer(engine, max_batch_tokens=32)
            await server.start()
            rid = await server.submit(
                np.arange(6), GenerationConfig(max_new_tokens=3)
            )
            with pytest.raises(ValueError, match="temperature"):
                await server.submit(
                    np.arange(5),
                    GenerationConfig(max_new_tokens=3, temperature=float("nan")),
                )
            result = await asyncio.wait_for(server.result(rid), timeout=60)
            await server.stop()
            return result

        result = _run(main())
        assert len(result.tokens) == 3

    def test_stop_is_idempotent(self, engine):
        async def main():
            server = ServeServer(engine)
            await server.start()
            await server.stop()
            await server.stop()

        _run(main())

    def test_stop_drains_in_flight_requests(self, engine):
        """Default stop() finishes outstanding work before returning."""

        async def main():
            server = ServeServer(engine, max_batch_tokens=32)
            await server.start()
            rid = await server.submit(
                np.arange(6), GenerationConfig(max_new_tokens=4)
            )
            await server.stop()
            return await server.result(rid)

        result = _run(main())
        assert len(result.tokens) == 4

    def test_stop_without_drain_fails_pending_futures(self, engine):
        async def main():
            server = ServeServer(engine, max_batch_tokens=32)
            await server.start()
            rid = await server.submit(
                np.arange(6), GenerationConfig(max_new_tokens=64)
            )
            await server.stop(drain=False)
            with pytest.raises(RuntimeError, match="stopped before"):
                await server.result(rid)

        _run(main())


class TestHardwareBridge:
    def test_traces_from_results(self, engine):
        async def main():
            server = ServeServer(engine, max_batch_tokens=48)
            await server.start()
            results = await asyncio.gather(
                *[
                    server.generate(
                        np.arange(8), GenerationConfig(max_new_tokens=4)
                    )
                    for _ in range(3)
                ]
            )
            await server.stop()
            return results

        results = _run(main())
        report = hardware_report("opt-1.3b", results, weight_bits=4.0)
        assert report.n_requests == 3
        assert report.total_energy_uj > 0
        assert report.energy_per_request_uj == pytest.approx(
            report.total_energy_uj / 3
        )

    def test_lower_precision_costs_less(self):
        traces = [RequestTrace(prompt_len=64, gen_len=32)]
        e4 = hardware_report("llama-2-7b", traces, weight_bits=4.0)
        e8 = hardware_report("llama-2-7b", traces, weight_bits=8.0)
        assert e4.total_energy_uj < e8.total_energy_uj
        assert e4.total_time_ms < e8.total_time_ms

    def test_identical_requests_cost_the_same(self):
        trace = RequestTrace(prompt_len=32, gen_len=16)
        one = hardware_report("opt-1.3b", [trace], weight_bits=4.125)
        eight = hardware_report("opt-1.3b", [trace] * 8, weight_bits=4.125)
        assert eight.n_requests == 8
        assert eight.energy_per_request_uj == pytest.approx(one.total_energy_uj)
        assert eight.total_time_ms == pytest.approx(8 * one.total_time_ms)

    def test_requires_bits_for_name(self):
        with pytest.raises(ValueError, match="weight_bits"):
            hardware_report("opt-1.3b", [RequestTrace(8, 4)])

    def test_requires_generated_tokens(self):
        with pytest.raises(ValueError, match="generated token"):
            hardware_report(
                "opt-1.3b", [RequestTrace(prompt_len=8, gen_len=0)], weight_bits=4.0
            )

    def test_report_dict_shape(self):
        report = hardware_report(
            "opt-1.3b", [RequestTrace(16, 8)] * 2, weight_bits=4.0
        )
        d = report.to_dict()
        assert d["n_requests"] == 2
        assert len(d["per_request"]) == 2
        assert d["per_request"][0]["energy_uj"] > 0
