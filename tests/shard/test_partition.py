"""Exactness of packed-tensor slicing and shard-set reassembly.

The invariants everything else rests on:
``unpack(slice_packed(p, a, b)) == unpack(p)[a:b]`` bit for bit, and
``merge_shards(shard_artifact(a, mesh))`` rebuilds ``a`` field for
field — across datatypes (symmetric/asymmetric integers, BitMoD
floats) and granularities.
"""

import numpy as np
import pytest

from repro.models import get_model_config
from repro.models.transformer import CausalLM
from repro.quant.config import QuantConfig
from repro.quant.packing import pack_tensor, unpack_tensor
from repro.serve.artifact import ModelArtifact, pack_model
from repro.shard import (
    DeviceMesh,
    ShardError,
    merge_shards,
    shard_artifact,
    slice_packed,
)

DTYPES = ["int4_sym", "int3_asym", "int5_asym", "bitmod_fp4", "bitmod_fp3", "fp4"]
#: (granularity, group_size) pairs with a packed container form.
GRANULARITIES = [("group", 64), ("group", 128), ("channel", 128)]
MESHES = [DeviceMesh(tp=2), DeviceMesh(tp=2, pp=2), DeviceMesh(tp=4)]
PACKED_FIELDS = (
    "dtype_name", "bits", "group_size", "element_data", "groups_per_channel",
)
ARRAY_FIELDS = ("sf_codes", "channel_scales", "sv_selectors", "zeros")


def _pack(rng, dtype, granularity="group", group_size=64, shape=(32, 256)):
    w = rng.standard_normal(shape)
    qc = QuantConfig(dtype=dtype, granularity=granularity, group_size=group_size)
    return pack_tensor(w, qc), qc


class TestSlicePacked:
    @pytest.mark.parametrize("granularity,group_size", GRANULARITIES)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_rows_exact(self, rng, dtype, granularity, group_size):
        p, qc = _pack(rng, dtype, granularity, group_size)
        full = unpack_tensor(p, qc)
        for a, b in [(0, 16), (16, 32), (8, 24), (0, 32)]:
            part = slice_packed(p, a, b)
            qc_part = qc.with_(group_size=part.group_size)
            np.testing.assert_array_equal(
                unpack_tensor(part, qc_part), full[a:b]
            )

    def test_out_of_range(self, rng):
        p, _qc = _pack(rng, "int4_sym")
        with pytest.raises(ShardError):
            slice_packed(p, 16, 40)


@pytest.fixture(scope="module")
def model():
    return CausalLM(get_model_config("llama-2-7b"), seed=0)


def _assert_artifacts_equal(got: ModelArtifact, want: ModelArtifact):
    assert got.shard_header is None
    assert (got.model_name, got.seed) == (want.model_name, want.seed)
    assert got.quant_config == want.quant_config
    assert got.kv_quant == want.kv_quant and got.plan == want.plan
    assert got.packed.keys() == want.packed.keys()
    for name, p in want.packed.items():
        q = got.packed[name]
        assert tuple(q.shape) == tuple(p.shape), name
        for field in PACKED_FIELDS:
            assert getattr(q, field) == getattr(p, field), (name, field)
        for field in ARRAY_FIELDS:
            a, b = getattr(q, field), getattr(p, field)
            assert (a is None) == (b is None), (name, field)
            if b is not None:
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, field)
    assert got.raw_weights.keys() == want.raw_weights.keys()
    for name, w in want.raw_weights.items():
        v = got.raw_weights[name]
        assert v.dtype == w.dtype and v.shape == w.shape, name
        assert v.tobytes() == w.tobytes(), name


class TestMergeShards:
    @pytest.mark.parametrize("mesh", MESHES, ids=lambda m: f"tp{m.tp}pp{m.pp}")
    @pytest.mark.parametrize("granularity,group_size", GRANULARITIES)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_inverse_of_shard_artifact(
        self, model, dtype, granularity, group_size, mesh
    ):
        qc = QuantConfig(dtype=dtype, granularity=granularity, group_size=group_size)
        packed, raw = pack_model(model, qc)
        art = ModelArtifact(
            model_name=model.config.name,
            seed=model.seed,
            quant_config=qc,
            kv_quant=None,
            packed=packed,
            raw_weights=raw,
        )
        _assert_artifacts_equal(merge_shards(shard_artifact(art, mesh)), art)
