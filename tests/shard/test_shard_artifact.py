"""Sharded artifact sets on disk: round trips, digests, loud failures."""

import numpy as np
import pytest

from repro.models import get_model_config
from repro.models.transformer import CausalLM
from repro.quant.config import QuantConfig
from repro.serve.artifact import load_artifact, save_artifact
from repro.serve.engine import GenerationConfig, InferenceEngine
from repro.serve.artifact import write_artifact
from repro.shard import (
    DeviceMesh,
    ShardError,
    ShardTopologyError,
    load_sharded_artifact,
    merge_shards,
    mesh_digest,
    save_sharded_artifact,
    shard_artifact,
    shard_paths,
)

GEN = GenerationConfig(max_new_tokens=5)


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    cfg = get_model_config("llama-2-7b")
    model = CausalLM(cfg, seed=0)
    d = tmp_path_factory.mktemp("full")
    return save_artifact(d / "full.rpro", model, QuantConfig(dtype="int4_sym"))


def _prompt(n=10, seed=11):
    cfg = get_model_config("llama-2-7b")
    return np.random.default_rng(seed).integers(0, cfg.sim_vocab, size=n)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "mesh",
        [DeviceMesh(tp=2), DeviceMesh(tp=2, pp=2)],
        ids=["tp2", "tp2pp2"],
    )
    def test_disk_round_trip_byte_identical(self, artifact, tmp_path, mesh):
        paths = save_sharded_artifact(tmp_path / "set", artifact, mesh)
        assert paths == shard_paths(tmp_path / "set", mesh.n_devices)
        assert all(p.exists() for p in paths)

        shards, loaded_mesh = load_sharded_artifact(tmp_path / "set")
        assert loaded_mesh == mesh
        eng = InferenceEngine.from_artifact(merge_shards(shards), mesh=mesh)
        ref = InferenceEngine.from_artifact(artifact)
        prompt = _prompt()
        assert eng.generate(prompt, GEN).generated == ref.generate(prompt, GEN).generated
        np.testing.assert_array_equal(
            eng.model.logits(prompt), ref.model.logits(prompt)
        )

    def test_headers_describe_topology(self, artifact, tmp_path):
        mesh = DeviceMesh(tp=2, pp=2)
        paths = save_sharded_artifact(tmp_path / "set", artifact, mesh)
        digest = mesh_digest(artifact, mesh)
        for i, path in enumerate(paths):
            h = load_artifact(path).shard_header
            assert h["shard_index"] == i
            assert h["n_shards"] == 4
            assert h["mesh_digest"] == digest
            assert h["mesh"] == mesh.to_dict()
            lo, hi = h["layers"]
            assert 0 <= lo < hi

    def test_digest_binds_mesh_and_source(self, artifact, tmp_path):
        d1 = mesh_digest(artifact, DeviceMesh(tp=2))
        assert d1 == mesh_digest(artifact, DeviceMesh(tp=2))
        assert d1 != mesh_digest(artifact, DeviceMesh(tp=4))
        assert d1 != mesh_digest(artifact, DeviceMesh(tp=2, topology="fully_connected"))
        cfg = get_model_config("llama-2-7b")
        other = save_artifact(
            tmp_path / "o.rpro", CausalLM(cfg, seed=1), QuantConfig(dtype="int4_sym")
        )
        assert d1 != mesh_digest(other, DeviceMesh(tp=2))


class TestLoadFailures:
    def test_empty_directory(self, tmp_path):
        with pytest.raises(ShardTopologyError, match="no shard containers"):
            load_sharded_artifact(tmp_path)

    def test_missing_shard(self, artifact, tmp_path):
        paths = save_sharded_artifact(tmp_path / "set", artifact, DeviceMesh(tp=4))
        paths[2].unlink()
        with pytest.raises(ShardTopologyError) as err:
            load_sharded_artifact(tmp_path / "set")
        assert err.value.to_dict()["missing"] == [2]
        assert err.value.to_dict()["error"] == "shard_topology_mismatch"

    def test_mixed_shard_sets(self, artifact, tmp_path):
        """A shard from a different pack poisons the directory."""
        save_sharded_artifact(tmp_path / "set", artifact, DeviceMesh(tp=2))
        cfg = get_model_config("llama-2-7b")
        other = save_artifact(
            tmp_path / "o.rpro", CausalLM(cfg, seed=1), QuantConfig(dtype="int4_sym")
        )
        foreign = save_sharded_artifact(tmp_path / "other", other, DeviceMesh(tp=2))
        (tmp_path / "set" / foreign[0].name).write_bytes(foreign[0].read_bytes())
        with pytest.raises(ShardTopologyError, match="different packs"):
            load_sharded_artifact(tmp_path / "set")

    def test_single_device_artifact_in_shard_dir(self, artifact, tmp_path):
        d = tmp_path / "set"
        d.mkdir()
        cfg = get_model_config("llama-2-7b")
        save_artifact(
            d / "shard-00-of-01.rpro", CausalLM(cfg, seed=0),
            QuantConfig(dtype="int4_sym"),
        )
        with pytest.raises(ShardTopologyError, match="no shard header"):
            load_sharded_artifact(d)

    def test_header_with_reduce_key_rejected(self, artifact, tmp_path):
        """Sets written when meshes carried a reduce mode fail loudly."""
        d = tmp_path / "set"
        d.mkdir()
        shards = shard_artifact(artifact, DeviceMesh(tp=2))
        for sub, path in zip(shards, shard_paths(d, len(shards))):
            sub.shard_header["mesh"]["reduce"] = "gather"
            write_artifact(path, sub)
        with pytest.raises(ShardError, match="unknown mesh keys: reduce"):
            load_sharded_artifact(d)


class TestShardSubArtifacts:
    def test_instantiate_guard(self, artifact, tmp_path):
        paths = save_sharded_artifact(tmp_path / "set", artifact, DeviceMesh(tp=2))
        sub = load_artifact(paths[0])
        with pytest.raises(ValueError, match="shard 0 of 2"):
            sub.instantiate()

    def test_shard_set_engine_runs_functional_replay(self, artifact, tmp_path):
        save_sharded_artifact(tmp_path / "set", artifact, DeviceMesh(tp=2))
        shards, mesh = load_sharded_artifact(tmp_path / "set")
        eng = InferenceEngine.from_artifact(merge_shards(shards), mesh=mesh)
        want = InferenceEngine.from_artifact(artifact)
        layers = ["layers.0.q_proj", "layers.3.down_proj"]
        got = eng.functional_replay(2, layers=layers)
        assert got == want.functional_replay(2, layers=layers)
        assert [r.layer for r in got] == layers

    def test_merge_shards_rejects_bad_sets(self, artifact):
        shards = shard_artifact(artifact, DeviceMesh(tp=2))
        with pytest.raises(ShardTopologyError, match="empty"):
            merge_shards([])
        with pytest.raises(ShardTopologyError, match="no shard header"):
            merge_shards([shards[0], artifact])
        foreign = shard_artifact(artifact, DeviceMesh(tp=2, topology="fully_connected"))
        with pytest.raises(ShardTopologyError, match="different packs"):
            merge_shards([shards[0], foreign[1]])
        with pytest.raises(ShardTopologyError) as err:
            merge_shards(shards[:1])
        assert err.value.to_dict()["missing"] == [1]
        # Order does not matter; the validator sorts by shard index.
        assert merge_shards(shards[::-1]).packed.keys() == artifact.packed.keys()
