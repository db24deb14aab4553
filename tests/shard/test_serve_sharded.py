"""The serving stack over a mesh engine: server, batcher, hot swap."""

import asyncio

import numpy as np
import pytest

from repro.models import get_model_config
from repro.models.transformer import CausalLM
from repro.quant.config import QuantConfig
from repro.serve.artifact import save_artifact
from repro.serve.engine import GenerationConfig, InferenceEngine
from repro.serve.prefix import PrefixKVCache
from repro.serve.server import ServeServer
from repro.shard import DeviceMesh, ShardedCausalLM

GEN = GenerationConfig(max_new_tokens=5)
CFG = get_model_config("opt-1.3b")


@pytest.fixture(scope="module")
def artifact_path(tmp_path_factory):
    d = tmp_path_factory.mktemp("serve")
    path = d / "m.rpro"
    save_artifact(path, CausalLM(CFG, seed=0), QuantConfig(dtype="int4_sym"))
    return path


def _prompts(n, seed=21):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, CFG.sim_vocab, size=int(rng.integers(4, 12)))
        for _ in range(n)
    ]


def _run(coro):
    return asyncio.run(coro)


class TestServerOverMesh:
    def test_server_serves_identical_tokens(self, artifact_path):
        from repro.serve.artifact import load_artifact

        art = load_artifact(artifact_path)
        ref = InferenceEngine.from_artifact(art)
        prompts = _prompts(6)
        expected = [ref.generate(p, GEN).generated for p in prompts]

        async def serve():
            eng = InferenceEngine.from_artifact(art, mesh=DeviceMesh(tp=2))
            server = ServeServer(eng, max_batch_tokens=64)
            await server.start()
            ids = [await server.submit(p, GEN) for p in prompts]
            results = [await server.result(i) for i in ids]
            await server.stop()
            return results

        results = _run(serve())
        assert [r.tokens for r in results] == expected

    def test_hot_swap_to_sharded(self, artifact_path):
        """reload_artifact(mesh=...) brings the same weights up sharded;
        token streams are unchanged across the swap."""
        from repro.serve.artifact import load_artifact

        art = load_artifact(artifact_path)
        prompts = _prompts(4, seed=5)

        async def serve():
            server = ServeServer(InferenceEngine.from_artifact(art))
            await server.start()
            before = [(await server.generate(p, GEN)).tokens for p in prompts]
            old = server.reload_artifact(artifact_path, mesh=DeviceMesh(tp=2))
            assert not isinstance(old.model, ShardedCausalLM)
            assert isinstance(server.batcher.engine.model, ShardedCausalLM)
            after = [(await server.generate(p, GEN)).tokens for p in prompts]
            await server.stop()
            return before, after

        before, after = _run(serve())
        assert before == after

    def test_hot_swap_keeps_prefix_reuse(self, artifact_path):
        """A prefix-cached server swapped onto a mesh comes back with a
        fresh cache of the same shape that still hits; streams hold."""
        from repro.serve.artifact import load_artifact

        art = load_artifact(artifact_path)
        rng = np.random.default_rng(9)
        shared = rng.integers(0, CFG.sim_vocab, size=16)
        prompts = [
            np.concatenate([shared, rng.integers(0, CFG.sim_vocab, size=4)])
            for _ in range(4)
        ]
        old_cache = PrefixKVCache(block_tokens=8, budget_bytes=1 << 20)

        async def serve():
            server = ServeServer(
                InferenceEngine.from_artifact(art, prefix_cache=old_cache)
            )
            await server.start()
            before = [(await server.generate(p, GEN)).tokens for p in prompts]
            server.reload_artifact(artifact_path, mesh=DeviceMesh(tp=2))
            after = [(await server.generate(p, GEN)).tokens for p in prompts]
            await server.stop()
            return before, after, server.batcher.engine.prefix_cache

        before, after, new_cache = _run(serve())
        assert before == after
        assert new_cache is not None and new_cache is not old_cache
        assert new_cache.block_tokens == 8
        assert new_cache.budget_bytes == 1 << 20
        assert new_cache.hits > 0
