"""DeviceMesh / ShardSpec semantics: validation, layer ranges, specs."""

import pytest

from repro.models import get_model_config
from repro.models.transformer import CausalLM
from repro.shard import (
    DeviceMesh,
    ShardError,
    ShardSpec,
    partition_specs,
)


class TestDeviceMesh:
    def test_defaults(self):
        mesh = DeviceMesh()
        assert mesh.tp == 1 and mesh.pp == 1
        assert mesh.topology == "ring"
        assert mesh.n_devices == 1

    @pytest.mark.parametrize("tp,pp", [(0, 1), (1, 0), (-2, 1)])
    def test_rejects_degenerate_grid(self, tp, pp):
        with pytest.raises(ShardError):
            DeviceMesh(tp=tp, pp=pp)

    def test_rejects_unknown_topology(self):
        with pytest.raises(ShardError, match="topology"):
            DeviceMesh(topology="torus")

    def test_round_trip_dict(self):
        mesh = DeviceMesh(tp=4, pp=2, topology="fully_connected")
        assert DeviceMesh.from_dict(mesh.to_dict()) == mesh

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ShardError, match="unknown mesh keys"):
            DeviceMesh.from_dict({"tp": 2, "shard_count": 2})

    def test_layer_ranges_cover_contiguously(self):
        ranges = DeviceMesh(pp=3).layer_ranges(8)
        assert ranges == [(0, 3), (3, 6), (6, 8)]
        sizes = [hi - lo for lo, hi in ranges]
        assert max(sizes) - min(sizes) <= 1

    def test_stage_of(self):
        mesh = DeviceMesh(pp=2)
        assert [mesh.stage_of(i, 4) for i in range(4)] == [0, 0, 1, 1]
        with pytest.raises(ShardError):
            mesh.stage_of(4, 4)

    def test_validate_model_structured_error(self):
        cfg = get_model_config("llama-3-8b")  # sim_kv_heads=2
        mesh = DeviceMesh(tp=4)
        with pytest.raises(ShardError) as err:
            mesh.validate_model(cfg)
        body = err.value.to_dict()
        assert body["error"] == "shard_incompatible"
        assert body["problems"]  # the structured reason list
        assert any("KV heads" in p for p in body["problems"])

    def test_pipeline_deeper_than_layers_rejected(self):
        cfg = get_model_config("opt-1.3b")  # sim_layers=4
        with pytest.raises(ShardError):
            DeviceMesh(pp=5).validate_model(cfg)


class TestShardSpec:
    def test_slice_bounds_partition_exactly(self):
        spec = ShardSpec("split_out")
        bounds = [spec.slice_bounds(256, r, 4) for r in range(4)]
        assert bounds == [(0, 64), (64, 128), (128, 192), (192, 256)]

    def test_indivisible_rejected(self):
        with pytest.raises(ShardError):
            ShardSpec("split_out").slice_bounds(10, 0, 3)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ShardError):
            ShardSpec("diagonal")


class TestPartitionSpecs:
    @pytest.mark.parametrize("model", ["opt-1.3b", "llama-2-7b"])
    def test_every_weight_resolves(self, model):
        """Every tensor the model actually generates has a spec."""
        cfg = get_model_config(model)
        m = CausalLM(cfg, seed=0)
        specs = partition_specs(cfg, DeviceMesh(tp=2))
        for name in m.weights:
            assert name in specs, name

    def test_projections_split_output_channels(self):
        cfg = get_model_config("llama-2-7b")
        specs = partition_specs(cfg, DeviceMesh(tp=2))
        for name in ("q_proj", "o_proj", "up_proj", "down_proj"):
            assert specs["layers.0." + name].kind == "split_out", name

    def test_norms_and_embed_replicate(self):
        cfg = get_model_config("opt-1.3b")
        specs = partition_specs(cfg, DeviceMesh(tp=2))
        assert specs["embed"].kind == "replicate"
        assert specs["final_norm"].kind == "replicate"
        assert specs["layers.0.attn_norm"].kind == "replicate"
        assert specs["lm_head"].kind == "split_out"
