"""DeviceMesh semantics: grid and topology validation, model fit."""

import pytest

from repro.models import get_model_config
from repro.shard import DeviceMesh, ShardError


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

