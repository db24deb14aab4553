"""Bit-accurate functional replay of packed serving artifacts."""

import dataclasses

import numpy as np
import pytest

from repro.models import CausalLM, get_model_config
from repro.quant import QuantConfig
from repro.serve import InferenceEngine, functional_replay, save_artifact
from repro.serve.artifact import load_artifact


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    model = CausalLM(get_model_config("opt-1.3b"), seed=0)
    path = tmp_path_factory.mktemp("bridge") / "m.rsrv"
    save_artifact(path, model, QuantConfig(dtype="bitmod_fp4", group_size=64))
    return load_artifact(path)


class TestFunctionalReplay:
    def test_replay_matches_dequantized_matmul(self, artifact):
        layer = sorted(artifact.packed)[0]
        replays = functional_replay(artifact, batch_size=3, layers=[layer])
        assert len(replays) == 1
        rep = replays[0]
        assert rep.batch == 3
        assert rep.shape == tuple(artifact.packed[layer].shape)
        # FP16-accumulation datapath vs ideal matmul: small but nonzero
        assert rep.max_abs_err < 1e-2
        assert rep.pe_cycles > 0

    def test_cycles_scale_with_batch(self, artifact):
        layer = sorted(artifact.packed)[0]
        one = functional_replay(artifact, batch_size=1, layers=[layer])[0]
        four = functional_replay(artifact, batch_size=4, layers=[layer])[0]
        assert four.pe_cycles == 4 * one.pe_cycles
        assert four.groups_processed == 4 * one.groups_processed
        assert one.cycles_per_output == four.cycles_per_output

    def test_term_decode_cached_across_replays(self, artifact):
        """The default (fused) path caches only its own layout; the
        numpy backend caches the decoded term arrays."""
        from repro.kernels.cache import decode_cache

        # A layer no other test here replays on the numpy backend.
        layer = sorted(artifact.packed)[-1]
        packed = artifact.packed[layer]
        functional_replay(artifact, batch_size=1, layers=[layer])
        assert decode_cache().contains(packed, "fused")
        assert not decode_cache().contains(packed, "terms")
        functional_replay(artifact, batch_size=1, layers=[layer], backend="numpy")
        assert decode_cache().contains(packed, "terms")

    def test_backend_pin_is_bit_identical(self, artifact):
        layer = sorted(artifact.packed)[0]
        default = functional_replay(artifact, batch_size=2, layers=[layer])[0]
        pinned = functional_replay(
            artifact, batch_size=2, layers=[layer], backend="numpy"
        )[0]
        assert pinned.pe_cycles == default.pe_cycles
        assert pinned.max_abs_err == default.max_abs_err

    def test_replay_leaves_containers_as_declared(self, artifact):
        """Replaying every layer caches nothing on the packed tensors:
        each holds exactly its dataclass fields, so ``element_data``
        stays the only code stream it carries."""
        functional_replay(artifact, batch_size=1)
        for name, packed in artifact.packed.items():
            fields = {f.name for f in dataclasses.fields(packed)}
            assert set(vars(packed)) == fields, name

    def test_bad_batch_size_rejected(self, artifact):
        with pytest.raises(ValueError):
            functional_replay(artifact, batch_size=0)

    def test_engine_replay_requires_artifact(self, artifact):
        engine = InferenceEngine(artifact.instantiate())
        with pytest.raises(RuntimeError, match="artifact"):
            engine.functional_replay(batch_size=1)

    def test_engine_replay_delegates(self, artifact):
        engine = InferenceEngine.from_artifact(artifact)
        layer = sorted(artifact.packed)[0]
        replays = engine.functional_replay(batch_size=2, layers=[layer])
        assert replays[0].layer == layer
        assert replays[0].batch == 2
