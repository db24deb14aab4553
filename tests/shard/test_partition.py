"""Exactness of packed-tensor slicing and shard-set reassembly.

The invariant everything else rests on:
``unpack(slice_packed(p, dim, a, b)) == unpack(p)[slice]`` — bit for
bit, across datatypes (symmetric/asymmetric integers, BitMoD floats),
granularities, group-aligned and sub-group slices.
"""

import numpy as np
import pytest

from repro.models import get_model_config
from repro.models.transformer import CausalLM
from repro.quant.config import QuantConfig
from repro.quant.packing import pack_tensor, unpack_tensor
from repro.serve.artifact import save_artifact
from repro.shard import (
    REDUCE_MODES,
    DeviceMesh,
    ShardedEngine,
    ShardError,
    shard_artifact,
    slice_packed,
)

DTYPES = ["int4_sym", "int3_asym", "int5_asym", "bitmod_fp4", "bitmod_fp3", "fp4"]


def _pack(rng, dtype, granularity="group", group_size=64, shape=(32, 256)):
    w = rng.standard_normal(shape)
    qc = QuantConfig(dtype=dtype, granularity=granularity, group_size=group_size)
    return pack_tensor(w, qc), qc


class TestSlicePackedRows:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_dim0_exact(self, rng, dtype):
        p, qc = _pack(rng, dtype)
        full = unpack_tensor(p, qc)
        for a, b in [(0, 16), (16, 32), (8, 24), (0, 32)]:
            part = slice_packed(p, 0, a, b)
            qc_part = qc.with_(group_size=part.group_size)
            np.testing.assert_array_equal(
                unpack_tensor(part, qc_part), full[a:b]
            )

    def test_dim0_out_of_range(self, rng):
        p, _qc = _pack(rng, "int4_sym")
        with pytest.raises(ShardError):
            slice_packed(p, 0, 16, 40)


class TestSlicePackedColumns:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_group_aligned_exact(self, rng, dtype):
        p, qc = _pack(rng, dtype, group_size=64)
        full = unpack_tensor(p, qc)
        for a, b in [(0, 128), (128, 256), (64, 192)]:
            part = slice_packed(p, 1, a, b)
            qc_part = qc.with_(group_size=part.group_size)
            np.testing.assert_array_equal(
                unpack_tensor(part, qc_part), full[:, a:b]
            )

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_subgroup_exact(self, rng, dtype):
        """Slices narrower than a group subdivide it exactly."""
        p, qc = _pack(rng, dtype, group_size=128)
        full = unpack_tensor(p, qc)
        for a, b in [(0, 64), (64, 128), (192, 256)]:
            part = slice_packed(p, 1, a, b)
            assert part.group_size == b - a
            qc_part = qc.with_(group_size=part.group_size)
            np.testing.assert_array_equal(
                unpack_tensor(part, qc_part), full[:, a:b]
            )

    def test_channel_granularity_exact(self, rng):
        """Channel-granularity images slice like one group per row."""
        p, qc = _pack(rng, "int4_sym", granularity="channel", group_size=128)
        full = unpack_tensor(p, qc)
        part = slice_packed(p, 1, 0, 128)
        np.testing.assert_array_equal(
            unpack_tensor(part, qc.with_(group_size=part.group_size)),
            full[:, :128],
        )

    def test_unalignable_slice_rejected(self, rng):
        p, _qc = _pack(rng, "int4_sym", group_size=64)
        with pytest.raises(ShardError, match="group-alignable"):
            slice_packed(p, 1, 48, 144)  # straddles groups unevenly

    def test_bad_dim_rejected(self, rng):
        p, _qc = _pack(rng, "int4_sym")
        with pytest.raises(ShardError):
            slice_packed(p, 2, 0, 8)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """model name -> a packed artifact, built once for the module."""
    out = {}
    for model, dtype in [("opt-1.3b", "int3_asym"), ("llama-2-7b", "bitmod_fp4")]:
        d = tmp_path_factory.mktemp(model)
        cfg = get_model_config(model)
        out[model] = save_artifact(
            d / "a.rpro", CausalLM(cfg, seed=0), QuantConfig(dtype=dtype)
        )
    return out


class TestShardSetReassembly:
    @pytest.mark.parametrize("model", ["opt-1.3b", "llama-2-7b"])
    @pytest.mark.parametrize("reduce", REDUCE_MODES)
    @pytest.mark.parametrize("tp,pp", [(2, 1), (2, 2)], ids=["tp2", "tp2pp2"])
    def test_from_shard_set_weights_bit_identical(
        self, artifacts, model, reduce, tp, pp
    ):
        """Reassembled shard-set weights == the unsharded dequant, bit for bit."""
        art = artifacts[model]
        mesh = DeviceMesh(tp=tp, pp=pp, reduce=reduce)
        got = ShardedEngine.from_shard_set(shard_artifact(art, mesh)).model.weights
        want = art.instantiate().weights
        assert got.keys() == want.keys()
        for name, w in want.items():
            assert got[name].dtype == w.dtype and got[name].shape == w.shape, name
            assert got[name].tobytes() == w.tobytes(), name
