"""The sharding acceptance bar: sharded == single-device, byte for byte.

Parametrized over datatypes, mixed-precision plans, KV quantization,
1/2/4-shard meshes and pipeline depths, asserting that a mesh engine's
greedy token streams and every logit row are byte-identical to the
single-device engine built from the same artifact — with and without
prompt-prefix KV reuse.
"""

import numpy as np
import pytest

from repro.hw.multichip import pass_collectives
from repro.models import get_model_config
from repro.models.transformer import CausalLM
from repro.policy import QuantPlan, layer_names
from repro.quant.config import QuantConfig
from repro.quant.kv import KVQuantConfig
from repro.serve.artifact import save_artifact
from repro.serve.engine import GenerationConfig, InferenceEngine
from repro.serve.prefix import PrefixKVCache
from repro.shard import DeviceMesh, ShardError, ShardedCausalLM

GEN = GenerationConfig(max_new_tokens=6)
MESHES = [
    DeviceMesh(tp=1),
    DeviceMesh(tp=2),
    DeviceMesh(tp=4),
    DeviceMesh(tp=2, pp=2),
]


def _mesh_id(mesh):
    return f"tp{mesh.tp}pp{mesh.pp}"


def _prompt(cfg, n=12, seed=7):
    rng = np.random.default_rng(seed)
    return rng.integers(0, cfg.sim_vocab, size=n)


def _artifact(tmp_path, model_name, quant, kv_quant=None, seed=0):
    cfg = get_model_config(model_name)
    model = CausalLM(cfg, seed=seed)
    return save_artifact(tmp_path / "a.rpro", model, quant, kv_quant=kv_quant)


@pytest.fixture(scope="module")
def uniform_artifacts(tmp_path_factory):
    """(model, dtype) -> artifact, built once for the whole module."""
    cache = {}

    def build(model_name, dtype):
        key = (model_name, dtype)
        if key not in cache:
            d = tmp_path_factory.mktemp("uniform")
            cache[key] = _artifact(d, model_name, QuantConfig(dtype=dtype))
        return cache[key]

    return build


class TestUniformArtifacts:
    @pytest.mark.parametrize("model", ["opt-1.3b", "llama-2-7b"])
    @pytest.mark.parametrize("dtype", ["int4_sym", "int3_asym", "bitmod_fp4"])
    @pytest.mark.parametrize("mesh", MESHES, ids=_mesh_id)
    def test_gather_mode_byte_identical(self, uniform_artifacts, model, dtype, mesh):
        art = uniform_artifacts(model, dtype)
        cfg = get_model_config(model)
        prompt = _prompt(cfg)
        ref = InferenceEngine.from_artifact(art)
        sharded = InferenceEngine.from_artifact(art, mesh=mesh)

        assert sharded.generate(prompt, GEN).generated == ref.generate(prompt, GEN).generated
        np.testing.assert_array_equal(
            sharded.model.logits(prompt), ref.model.logits(prompt)
        )

    def test_gqa_model_at_tp2(self, tmp_path):
        """GQA head groups (sim_kv_heads=2) shard without straddling."""
        art = _artifact(tmp_path, "llama-3-8b", QuantConfig(dtype="int4_sym"))
        cfg = get_model_config("llama-3-8b")
        prompt = _prompt(cfg)
        ref = InferenceEngine.from_artifact(art)
        sharded = InferenceEngine.from_artifact(art, mesh=DeviceMesh(tp=2))
        assert sharded.generate(prompt, GEN).generated == ref.generate(prompt, GEN).generated
        np.testing.assert_array_equal(
            sharded.model.logits(prompt), ref.model.logits(prompt)
        )

    def test_gqa_model_rejects_tp4(self, tmp_path):
        art = _artifact(tmp_path, "llama-3-8b", QuantConfig(dtype="int4_sym"))
        with pytest.raises(ShardError, match="KV heads"):
            InferenceEngine.from_artifact(art, mesh=DeviceMesh(tp=4))


class TestKVQuantization:
    @pytest.mark.parametrize("mesh", MESHES[1:], ids=_mesh_id)
    def test_per_head_kv_quant_byte_identical(self, tmp_path, mesh):
        """Per-(head, position) KV scales commute with head partitioning."""
        kv = KVQuantConfig(bits=8)
        art = _artifact(
            tmp_path, "llama-2-7b", QuantConfig(dtype="int4_sym"), kv_quant=kv
        )
        cfg = get_model_config("llama-2-7b")
        prompt = _prompt(cfg)
        ref = InferenceEngine.from_artifact(art)
        sharded = InferenceEngine.from_artifact(art, mesh=mesh)
        assert (
            sharded.generate(prompt, GEN).generated
            == ref.generate(prompt, GEN).generated
        )

    @pytest.mark.parametrize("mesh", MESHES[1:], ids=_mesh_id)
    def test_prefix_cached_kv_quant_matches_cache_off(self, tmp_path, mesh):
        """A prefix-cached, KV-quantized mesh engine streams what the
        cache-off single-device engine streams."""
        art = _artifact(
            tmp_path, "llama-2-7b", QuantConfig(dtype="int4_sym"),
            kv_quant=KVQuantConfig(bits=4),
        )
        cfg = get_model_config("llama-2-7b")
        rng = np.random.default_rng(3)
        shared = rng.integers(0, cfg.sim_vocab, size=16)
        prompts = [
            np.concatenate([shared, rng.integers(0, cfg.sim_vocab, size=4)])
            for _ in range(4)
        ]
        ref = InferenceEngine.from_artifact(art)
        eng = InferenceEngine.from_artifact(
            art, prefix_cache=PrefixKVCache(), mesh=mesh
        )
        seqs = [eng.generate(p, GEN) for p in prompts]
        assert [s.generated for s in seqs] == [
            ref.generate(p, GEN).generated for p in prompts
        ]
        assert sum(s.prefix_hit_tokens for s in seqs) > 0


class TestMixedPrecisionPlans:
    @pytest.fixture(scope="class")
    def plan_artifact(self, tmp_path_factory):
        cfg = get_model_config("opt-1.3b")
        names = layer_names(cfg)
        ladder = (
            QuantConfig(dtype="bitmod_fp3"),
            QuantConfig(dtype="bitmod_fp4", granularity="channel"),
            QuantConfig(dtype="int6_sym"),
            QuantConfig(dtype="int8_sym", group_size=64),
        )
        # Heterogeneous assignment, one layer deliberately FP16.
        mapping = {n: ladder[i % len(ladder)] for i, n in enumerate(names[:-1])}
        plan = QuantPlan.from_mapping(mapping, name="shard-mixed")
        d = tmp_path_factory.mktemp("plan")
        model = CausalLM(cfg, seed=0)
        return save_artifact(d / "mixed.rpro", model, plan)

    @pytest.mark.parametrize("mesh", MESHES, ids=_mesh_id)
    def test_plan_artifact_byte_identical(self, plan_artifact, mesh):
        cfg = get_model_config("opt-1.3b")
        prompt = _prompt(cfg)
        ref = InferenceEngine.from_artifact(plan_artifact)
        sharded = InferenceEngine.from_artifact(plan_artifact, mesh=mesh)
        assert (
            sharded.generate(prompt, GEN).generated
            == ref.generate(prompt, GEN).generated
        )
        np.testing.assert_array_equal(
            sharded.model.logits(prompt), ref.model.logits(prompt)
        )


class TestPrefixCache:
    """Prefix KV reuse on a mesh: the whole-model cache snapshot adopts
    unchanged (a deployed rank would cache its own head slice under
    the same token key)."""

    @pytest.fixture(scope="class")
    def setup(self, tmp_path_factory):
        art = _artifact(
            tmp_path_factory.mktemp("prefix"), "opt-1.3b", QuantConfig(dtype="int4_sym")
        )
        cfg = get_model_config("opt-1.3b")
        rng = np.random.default_rng(3)
        shared = rng.integers(0, cfg.sim_vocab, size=16)
        prompts = [
            np.concatenate([shared, rng.integers(0, cfg.sim_vocab, size=4)])
            for _ in range(4)
        ]
        cached = InferenceEngine.from_artifact(art, prefix_cache=PrefixKVCache())
        return art, prompts, [cached.generate(p, GEN) for p in prompts]

    @pytest.mark.parametrize("mesh", MESHES[1:], ids=_mesh_id)
    def test_matches_prefix_cached_single_device(self, setup, mesh):
        art, prompts, ref = setup
        eng = InferenceEngine.from_artifact(
            art, prefix_cache=PrefixKVCache(), mesh=mesh
        )
        seqs = [eng.generate(p, GEN) for p in prompts]
        assert [s.generated for s in seqs] == [s.generated for s in ref]
        assert [s.prefix_hit_tokens for s in seqs] == [
            s.prefix_hit_tokens for s in ref
        ]
        assert sum(s.prefix_hit_tokens for s in seqs) > 0

    @pytest.mark.parametrize("mesh", MESHES[1:], ids=_mesh_id)
    def test_hit_charges_only_the_tail(self, setup, mesh):
        """A hit of L tokens on a P-token prompt bills a (P-L)-token pass."""
        art, prompts, _ref = setup
        eng = InferenceEngine.from_artifact(
            art, prefix_cache=PrefixKVCache(), mesh=mesh
        )
        for prompt in prompts[:2]:  # the second one stores the shared prefix
            eng.prefill(eng.start_sequence(prompt, GEN))
        eng.model.collective.reset()
        seq = eng.start_sequence(prompts[2], GEN)
        eng.prefill(seq)
        hit = seq.prefix_hit_tokens
        assert hit > 0
        cfg = eng.model.config
        tail = pass_collectives(
            cfg.sim_layers, cfg.sim_hidden, cfg.sim_vocab,
            prompts[2].size - hit, mesh.tp, mesh.pp,
        )
        assert eng.model.collective.snapshot()["total_wire_bytes"] == sum(
            c.wire_bytes(mesh.topology) for c in tail
        )


class TestEngineSurface:
    def test_inference_engine_from_artifact_dispatches_on_mesh(self, tmp_path):
        art = _artifact(tmp_path, "opt-1.3b", QuantConfig(dtype="int4_sym"))
        eng = InferenceEngine.from_artifact(art, mesh=DeviceMesh(tp=2))
        assert type(eng) is InferenceEngine
        assert isinstance(eng.model, ShardedCausalLM)
        assert eng.model.mesh == DeviceMesh(tp=2)
        # A 1x1 mesh stays single-device.
        eng1 = InferenceEngine.from_artifact(art, mesh=DeviceMesh())
        assert not isinstance(eng1.model, ShardedCausalLM)

    def test_collective_ledger_populated(self, tmp_path):
        art = _artifact(tmp_path, "opt-1.3b", QuantConfig(dtype="int4_sym"))
        eng = InferenceEngine.from_artifact(art, mesh=DeviceMesh(tp=2))
        cfg = get_model_config("opt-1.3b")
        eng.generate(_prompt(cfg), GEN)
        collective = eng.model.collective
        snap = collective.snapshot()
        assert snap["tp"] == 2
        assert snap["ops"]["all_gather"]["calls"] > 0
        assert snap["total_wire_bytes"] > 0
        collective.reset()
        assert collective.snapshot()["total_wire_bytes"] == 0
