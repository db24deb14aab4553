"""Artifact format: byte-exact save/load round-trips."""

import json
import struct
import tracemalloc

import numpy as np
import pytest

from repro.models import CausalLM, get_model_config
from repro.quant import KVQuantConfig, QuantConfig, quantize_tensor
from repro.quant.packing import pack_tensor, unpack_tensor
from repro.serve import InferenceEngine
from repro.serve.artifact import (
    ARTIFACT_MAGIC,
    ModelArtifact,
    load_artifact,
    pack_model,
    save_artifact,
    write_artifact,
)


@pytest.fixture(scope="module")
def model():
    return CausalLM(get_model_config("llama-2-7b"), seed=0)


def _assert_packed_equal(a, b):
    assert a.dtype_name == b.dtype_name
    assert a.bits == b.bits
    assert a.shape == b.shape
    assert a.group_size == b.group_size
    assert a.groups_per_channel == b.groups_per_channel
    assert a.element_data == b.element_data
    np.testing.assert_array_equal(a.sf_codes, b.sf_codes)
    np.testing.assert_array_equal(a.channel_scales, b.channel_scales)
    if a.sv_selectors is None:
        assert b.sv_selectors is None
    else:
        np.testing.assert_array_equal(a.sv_selectors, b.sv_selectors)
    if a.zeros is None:
        assert b.zeros is None
    else:
        np.testing.assert_array_equal(a.zeros, b.zeros)


def _read_header(path):
    data = path.read_bytes()
    pos = len(ARTIFACT_MAGIC)
    (header_len,) = struct.unpack("<I", data[pos : pos + 4])
    return json.loads(data[pos + 4 : pos + 4 + header_len])


def _write_header(path, header):
    """Replace ``path``'s JSON header, keeping its blob section."""
    data = path.read_bytes()
    pos = len(ARTIFACT_MAGIC)
    (header_len,) = struct.unpack("<I", data[pos : pos + 4])
    new_header = json.dumps(header).encode("utf-8")
    path.write_bytes(
        ARTIFACT_MAGIC
        + struct.pack("<I", len(new_header))
        + new_header
        + data[pos + 4 + header_len :]
    )


#: Datatypes with a packed container form: symmetric/asymmetric
#: integers, BitMoD floats and a plain float grid.
PACKED_DTYPES = ["int4_sym", "int3_asym", "int5_asym", "bitmod_fp4", "bitmod_fp3", "fp4"]
#: (granularity, group_size) pairs with a packed container form.
GRANULARITIES = [("group", 64), ("group", 128), ("channel", 128)]


class TestRoundTrip:
    @pytest.mark.parametrize(
        "dtype", ["int4_sym", "int3_asym", "bitmod_fp4", "bitmod_fp3", "fp4", "ant3"]
    )
    def test_byte_exact_across_dtypes(self, tmp_path, model, dtype):
        """save -> load -> unpack equals the in-memory quantization,
        byte for byte, across integer / BitMoD / grid datatypes."""
        cfg = QuantConfig(dtype=dtype, group_size=64)
        path = tmp_path / "m.rsrv"
        saved = save_artifact(path, model, cfg)
        loaded = load_artifact(path)

        assert loaded.model_name == model.config.name
        assert loaded.quant_config == cfg
        assert set(loaded.packed) == set(saved.packed)
        for name in saved.packed:
            _assert_packed_equal(saved.packed[name], loaded.packed[name])
        # unpacked weights are bit-identical to direct pack/unpack
        for name, w in model.named_linears().items():
            direct = unpack_tensor(pack_tensor(w, cfg), cfg)
            via_disk = unpack_tensor(loaded.packed[name], cfg)
            np.testing.assert_array_equal(direct, via_disk)

    def test_raw_weights_exact(self, tmp_path, model):
        path = tmp_path / "m.rsrv"
        save_artifact(path, model, QuantConfig(dtype="bitmod_fp4"))
        loaded = load_artifact(path)
        linears = set(model.named_linears())
        for name, w in model.weights.items():
            if name in linears:
                continue
            np.testing.assert_array_equal(loaded.raw_weights[name], w)

    def test_kv_policy_round_trips(self, tmp_path, model):
        path = tmp_path / "m.rsrv"
        kv = KVQuantConfig(bits=4)
        save_artifact(path, model, QuantConfig(dtype="int4_sym"), kv_quant=kv)
        assert _read_header(path)["kv_quant"] == {"bits": 4}
        assert load_artifact(path).kv_quant == kv

    def test_instantiated_model_matches_quantized(self, tmp_path, model):
        cfg = QuantConfig(dtype="bitmod_fp4")
        path = tmp_path / "m.rsrv"
        save_artifact(path, model, cfg)
        served = load_artifact(path).instantiate()
        for name, w in model.named_linears().items():
            ref = quantize_tensor(w, cfg).w_deq
            np.testing.assert_allclose(served.weights[name], ref, atol=1e-12)

    def test_dtype_instance_saved_by_name(self, tmp_path, model):
        from repro.dtypes import get_dtype

        cfg = QuantConfig(dtype=get_dtype("int4_sym"))
        path = tmp_path / "m.rsrv"
        save_artifact(path, model, cfg)
        assert load_artifact(path).quant_config.dtype == "int4_sym"


class TestGranularities:
    """The one artifact a device or a mesh serves survives the disk
    field for field, at every granularity with a packed form."""

    @pytest.mark.parametrize("granularity,group_size", GRANULARITIES)
    @pytest.mark.parametrize("dtype", PACKED_DTYPES)
    def test_load_rebuilds_every_field(
        self, tmp_path, model, dtype, granularity, group_size
    ):
        qc = QuantConfig(dtype=dtype, granularity=granularity, group_size=group_size)
        path = tmp_path / "m.rsrv"
        saved = save_artifact(path, model, qc)
        loaded = load_artifact(path)

        assert (loaded.model_name, loaded.seed) == (saved.model_name, saved.seed)
        assert loaded.quant_config == qc
        assert loaded.kv_quant == saved.kv_quant and loaded.plan == saved.plan
        assert list(loaded.packed) == list(saved.packed)
        for name, p in saved.packed.items():
            _assert_packed_equal(p, loaded.packed[name])
            for field in ("sf_codes", "channel_scales", "sv_selectors", "zeros"):
                a, b = getattr(loaded.packed[name], field), getattr(p, field)
                if b is not None:
                    assert a.dtype == b.dtype, (name, field)
        assert list(loaded.raw_weights) == list(saved.raw_weights)
        for name, w in saved.raw_weights.items():
            v = loaded.raw_weights[name]
            assert v.dtype == w.dtype and v.shape == w.shape, name
            assert v.tobytes() == w.tobytes(), name

    @pytest.mark.parametrize("granularity,group_size", GRANULARITIES)
    @pytest.mark.parametrize("dtype", PACKED_DTYPES)
    def test_rewrite_is_byte_identical(
        self, tmp_path, model, dtype, granularity, group_size
    ):
        """write(load(f)) reproduces f: the container has one encoding."""
        qc = QuantConfig(dtype=dtype, granularity=granularity, group_size=group_size)
        first, second = tmp_path / "a.rsrv", tmp_path / "b.rsrv"
        save_artifact(first, model, qc)
        write_artifact(second, load_artifact(first))
        assert second.read_bytes() == first.read_bytes()


class TestContainer:
    def test_magic_is_checked(self, tmp_path):
        path = tmp_path / "bogus.rsrv"
        path.write_bytes(b"NOTANART" + b"\x00" * 64)
        with pytest.raises(ValueError, match="bad magic"):
            load_artifact(path)

    def test_version_is_checked(self, tmp_path, model):
        path = tmp_path / "m.rsrv"
        save_artifact(path, model, QuantConfig(dtype="int4_sym"))
        data = bytearray(path.read_bytes())
        # Corrupt the format_version field inside the JSON header.
        idx = data.find(b'"format_version":1')
        assert idx > 0
        data[idx : idx + len(b'"format_version":1')] = b'"format_version":9'
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="format v9"):
            load_artifact(path)

    def test_missing_groups_per_channel_rejected(self, tmp_path, model):
        """A packed tensor header without ``groups_per_channel`` is a
        structured error naming the field; the value is never inferred
        from array sizes."""
        path = tmp_path / "m.rsrv"
        save_artifact(path, model, QuantConfig(dtype="int4_sym"))
        header = _read_header(path)
        packed = next(t for t in header["tensors"] if t["kind"] == "packed")
        del packed["groups_per_channel"]
        _write_header(path, header)
        with pytest.raises(ValueError, match="groups_per_channel") as err:
            load_artifact(path)
        assert packed["name"] in str(err.value)
        assert not isinstance(err.value, KeyError)

    @pytest.mark.parametrize(
        "block",
        [
            {
                "mesh": {"tp": 2, "pp": 1, "topology": "ring"},
                "shard_index": 0,
                "n_shards": 2,
            },
            {},
            None,
        ],
        ids=["tp2-slice", "empty", "null"],
    )
    def test_shard_block_rejected(self, tmp_path, model, block):
        """A container whose header has a ``shard`` block holds one
        device's slice of a model; it must not load as a partial one,
        whatever the block holds."""
        path = tmp_path / "shard-0-of-2.rsrv"
        save_artifact(path, model, QuantConfig(dtype="int4_sym"))
        header = _read_header(path)
        header["shard"] = block
        _write_header(path, header)
        with pytest.raises(ValueError, match="shard block") as err:
            load_artifact(path)
        assert path.name in str(err.value)

    @pytest.mark.parametrize("per_head", [True, False])
    def test_legacy_kv_per_head_flag_ignored(self, tmp_path, model, per_head):
        """Headers written before per-(head, position) KV scales carry a
        ``per_head`` flag; they load with their ``bits``."""
        path = tmp_path / "m.rsrv"
        save_artifact(path, model, QuantConfig(dtype="int4_sym"))
        header = _read_header(path)
        header["kv_quant"] = {"bits": 4, "per_head": per_head}
        _write_header(path, header)
        assert load_artifact(path).kv_quant == KVQuantConfig(bits=4)

    def test_kv_bits_from_header_validated(self, tmp_path, model):
        path = tmp_path / "m.rsrv"
        save_artifact(path, model, QuantConfig(dtype="int4_sym"))
        header = _read_header(path)
        header["kv_quant"] = {"bits": 0}
        _write_header(path, header)
        with pytest.raises(ValueError, match="got 0"):
            load_artifact(path)

    def test_magic_prefix_on_disk(self, tmp_path, model):
        path = tmp_path / "m.rsrv"
        save_artifact(path, model, QuantConfig(dtype="int4_sym"))
        assert path.read_bytes().startswith(ARTIFACT_MAGIC)

    def test_packed_payload_dominates(self, tmp_path, model):
        """At 4 bits the linears' payload is ~4/16 of their FP16 size."""
        cfg = QuantConfig(dtype="int4_sym")
        art = save_artifact(tmp_path / "m.rsrv", model, cfg)
        fp16 = sum(w.size * 2 for w in model.named_linears().values())
        assert art.packed_bytes < 0.30 * fp16
        assert 4.0 <= art.mean_bits_per_weight < 4.5

    def test_pack_model_splits_weights(self, model):
        packed, raw = pack_model(model, QuantConfig(dtype="int4_sym"))
        assert set(packed) == set(model.named_linears())
        assert set(packed).isdisjoint(raw)
        assert set(packed) | set(raw) == set(model.weights)


class TestLoadedArrays:
    def test_engines_share_a_loaded_artifacts_raw_arrays(self, tmp_path, model):
        """Every engine built from one loaded artifact holds the same
        embedding, norms and LM head, and nothing can write to them."""
        path = tmp_path / "m.rsrv"
        save_artifact(path, model, QuantConfig(dtype="bitmod_fp4"))
        artifact = load_artifact(path)
        engines = [InferenceEngine.from_artifact(artifact) for _ in range(2)]
        assert artifact.raw_weights
        for name, raw in artifact.raw_weights.items():
            for engine in engines:
                assert np.shares_memory(engine.model.weights[name], raw)
            with pytest.raises(ValueError, match="read-only"):
                raw.flat[0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                engines[0].model.weights[name][...] += 1.0

    def test_built_artifact_copies_the_live_models_arrays(self, tmp_path, model):
        artifact = save_artifact(tmp_path / "m.rsrv", model, QuantConfig(dtype="int4_sym"))
        served = artifact.instantiate()
        for name, raw in artifact.raw_weights.items():
            assert raw is model.weights[name]
            assert not np.shares_memory(served.weights[name], raw)
            np.testing.assert_array_equal(served.weights[name], raw)

    def test_load_copies_each_array_once(self, tmp_path, model):
        """Each blob is read from the file straight into the buffer it
        is served from, so the peak is about one file — not the ~2x of
        holding the whole file while copying every array out of it."""
        path = tmp_path / "m.rsrv"
        save_artifact(path, model, QuantConfig(dtype="bitmod_fp4"))
        size = path.stat().st_size
        tracemalloc.start()
        try:
            load_artifact(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * size
