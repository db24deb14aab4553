"""Graceful serve degradation: deadlines, shedding, drain, hot swap,
artifact integrity."""

import asyncio

import numpy as np
import pytest

from repro.models import CausalLM, get_model_config
from repro.quant import QuantConfig
from repro.resilience import faults
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.serve import (
    ArtifactIntegrityError,
    ContinuousBatcher,
    DeadlineExceeded,
    GenerationConfig,
    InferenceEngine,
    Overloaded,
    Request,
    ServeServer,
    load_artifact,
    save_artifact,
)


@pytest.fixture(scope="module")
def engine():
    return InferenceEngine(CausalLM(get_model_config("opt-1.3b"), seed=0))


def _run(coro):
    return asyncio.run(coro)


def _req(rid, prompt_len=6, max_new=4, **kw):
    return Request(
        request_id=rid,
        prompt=np.arange(prompt_len) % 100,
        generation=GenerationConfig(max_new_tokens=max_new),
        **kw,
    )


@pytest.fixture(autouse=True)
def no_ambient_faults(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    faults.clear_fault_plan()
    yield
    faults.clear_fault_plan()


class TestDeadlines:
    def test_expired_request_fails_with_structured_error(self, engine):
        async def main():
            server = ServeServer(engine, max_batch_tokens=32)
            await server.start()
            with pytest.raises(DeadlineExceeded) as e:
                await server.generate(
                    np.arange(5),
                    GenerationConfig(max_new_tokens=64),
                    deadline_s=1e-9,
                )
            await server.stop()
            return server, e.value

        server, err = _run(main())
        body = err.to_dict()
        assert body["error"] == "deadline_exceeded"
        assert body["deadline_s"] == 1e-9
        assert "request_id" in body and "message" in body
        assert server.metrics.expired == 1
        assert server.metrics.completed == 0

    def test_generous_deadline_completes(self, engine):
        async def main():
            server = ServeServer(engine, max_batch_tokens=32)
            await server.start()
            result = await server.generate(
                np.arange(5), GenerationConfig(max_new_tokens=3), deadline_s=60.0
            )
            await server.stop()
            return result

        assert _run(main()).n_generated == 3

    def test_injected_decode_stall_expires_midstream(self, engine):
        """A serve.decode delay fault stalls the scheduler until the
        request's deadline passes mid-generation."""
        faults.set_fault_plan(
            FaultPlan(
                [FaultSpec(site="serve.decode", action="delay", delay_s=0.05,
                           times=10)]
            )
        )

        async def main():
            server = ServeServer(engine, max_batch_tokens=32)
            await server.start()
            with pytest.raises(DeadlineExceeded) as e:
                await server.generate(
                    np.arange(5),
                    GenerationConfig(max_new_tokens=64),
                    deadline_s=0.08,
                )
            await server.stop()
            return e.value

        err = _run(main())
        assert err.to_dict()["error"] == "deadline_exceeded"

    def test_mixed_deadlines_only_expired_cancelled(self, engine):
        clock = [0.0]
        batcher = ContinuousBatcher(engine, max_batch_tokens=64, clock=lambda: clock[0])
        batcher.submit(_req(0, max_new=2, deadline_s=0.5))
        batcher.submit(_req(1, max_new=2))  # no deadline
        clock[0] = 1.0  # past request 0's deadline before any step ran
        reports = batcher.run_until_idle()
        assert [r for rep in reports for r in rep.expired] == [0]
        assert batcher.finished(1).seq.done
        assert batcher.expired(0).expired
        assert batcher.metrics.expired == 1
        assert batcher.metrics.completed == 1


class TestAdmissionControl:
    def test_bounded_queue_sheds_with_overloaded(self, engine):
        batcher = ContinuousBatcher(engine, max_batch_tokens=32, max_waiting=2)
        batcher.submit(_req(0))
        batcher.submit(_req(1))
        with pytest.raises(Overloaded) as e:
            batcher.submit(_req(2))
        assert e.value.to_dict() == {
            "error": "overloaded",
            "message": "admission queue full for tier 'standard' "
            "(2 waiting, limit 2)",
            "request_id": 2,
            "waiting": 2,
            "tier": "standard",
        }
        assert batcher.metrics.rejected == 1
        # The shed request cost nothing; the queued ones still finish.
        batcher.run_until_idle()
        assert batcher.metrics.completed == 2

    def test_invalid_max_waiting_rejected(self, engine):
        with pytest.raises(ValueError):
            ContinuousBatcher(engine, max_waiting=0)

    def test_draining_server_rejects_new_submits(self, engine):
        async def main():
            server = ServeServer(engine, max_batch_tokens=32)
            await server.start()
            rid = await server.submit(
                np.arange(5), GenerationConfig(max_new_tokens=8)
            )
            stop_task = asyncio.create_task(server.stop(drain=True))
            await asyncio.sleep(0)  # let stop() mark the server draining
            with pytest.raises(Overloaded):
                await server.submit(np.arange(5))
            # Drain still completes the in-flight request.
            result = await server.result(rid)
            await stop_task
            return server, result

        server, result = _run(main())
        assert result.n_generated == 8
        assert server.metrics.rejected == 1
        assert server.metrics.completed == 1


class TestHotSwap:
    def test_reload_drops_zero_requests(self):
        async def main():
            old = InferenceEngine(CausalLM(get_model_config("opt-1.3b"), seed=0))
            new = InferenceEngine(CausalLM(get_model_config("opt-1.3b"), seed=1))
            server = ServeServer(old, max_batch_tokens=32)
            await server.start()
            first = await server.submit(
                np.arange(5), GenerationConfig(max_new_tokens=16)
            )
            # Let the request enter the batch before swapping weights.
            while server.batcher.n_running == 0:
                await asyncio.sleep(0)
            swapped_out = server.reload_artifact(new)
            second = await server.submit(
                np.arange(5), GenerationConfig(max_new_tokens=4)
            )
            results = [await server.result(first), await server.result(second)]
            await server.stop()
            return server, old, new, swapped_out, first, second, results

        server, old, new, swapped_out, first, second, results = _run(main())
        assert swapped_out is old
        assert server.batcher.engine is new
        assert [r.n_generated for r in results] == [16, 4]
        # The in-flight request finished on the engine it started on;
        # the post-swap one ran on the new engine.
        assert server.batcher.finished(first).engine is old
        assert server.batcher.finished(second).engine is new
        assert server.metrics.completed == 2
        assert server.metrics.registry.counter("serve.artifact_reloads").value == 1


class TestArtifactIntegrity:
    def _save(self, tmp_path):
        model = CausalLM(get_model_config("opt-1.3b"), seed=0)
        path = tmp_path / "m.rprosrv"
        save_artifact(path, model, QuantConfig(dtype="int4_asym"))
        return path

    def test_clean_artifact_verifies(self, tmp_path):
        path = self._save(tmp_path)
        art = load_artifact(path)
        assert art.packed  # checksum verified on the way in

    def test_truncated_artifact_detected(self, tmp_path):
        path = self._save(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 100])
        with pytest.raises(ArtifactIntegrityError, match="truncated"):
            load_artifact(path)

    @pytest.mark.parametrize("keep", [9, 11, 40])
    def test_truncated_header_detected(self, tmp_path, keep):
        path = self._save(tmp_path)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ArtifactIntegrityError, match="unreadable header"):
            load_artifact(path)

    def test_bit_flip_detected(self, tmp_path):
        path = self._save(tmp_path)
        data = bytearray(path.read_bytes())
        data[-50] ^= 0xFF  # deep in the blob section
        path.write_bytes(bytes(data))
        with pytest.raises(ArtifactIntegrityError, match="sha256 mismatch"):
            load_artifact(path)

    def test_verify_false_skips_checks(self, tmp_path):
        path = self._save(tmp_path)
        data = bytearray(path.read_bytes())
        data[-50] ^= 0xFF
        path.write_bytes(bytes(data))
        load_artifact(path, verify=False)  # caller opted out

    def test_reload_of_corrupt_artifact_keeps_old_engine(self, tmp_path):
        path = self._save(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 100])

        async def main():
            engine = InferenceEngine(CausalLM(get_model_config("opt-1.3b"), seed=0))
            server = ServeServer(engine, max_batch_tokens=32)
            await server.start()
            with pytest.raises(ArtifactIntegrityError):
                server.reload_artifact(path)
            # The swap never happened; the server still serves.
            result = await server.generate(
                np.arange(5), GenerationConfig(max_new_tokens=2)
            )
            await server.stop()
            return server, engine, result

        server, engine, result = _run(main())
        assert server.batcher.engine is engine
        assert result.n_generated == 2
        assert server.metrics.registry.counter("serve.artifact_reloads").value == 0
