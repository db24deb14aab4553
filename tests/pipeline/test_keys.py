"""Tests for the stable cache-key digests."""

import numpy as np
import pytest

from repro.dtypes.extended import BitMoDType
from repro.dtypes.registry import get_dtype
from repro.methods import AWQ, GPTQ, SmoothQuant
from repro.models.zoo import get_model_config
from repro.pipeline.keys import array_digest, canonical, stable_digest
from repro.quant.config import QuantConfig


class TestStableDigest:
    def test_deterministic(self):
        cfg = QuantConfig(dtype="bitmod_fp4")
        assert cfg.cache_key() == cfg.cache_key()
        assert cfg.cache_key() == QuantConfig(dtype="bitmod_fp4").cache_key()

    def test_field_sensitivity(self):
        base = QuantConfig(dtype="bitmod_fp4")
        assert base.cache_key() != base.with_(group_size=64).cache_key()
        assert base.cache_key() != base.with_(granularity="channel").cache_key()
        assert base.cache_key() != base.with_(scale_bits=None).cache_key()
        assert base.cache_key() != base.with_(clip_ratio=0.9).cache_key()
        assert base.cache_key() != QuantConfig(dtype="int4_asym").cache_key()

    def test_dtype_name_and_instance_key_identically(self):
        by_name = QuantConfig(dtype="bitmod_fp4")
        by_instance = QuantConfig(dtype=get_dtype("bitmod_fp4"))
        assert by_name.cache_key() == by_instance.cache_key()

    def test_same_name_different_contents_key_differently(self):
        """The table09 ablation: three datatypes share one name."""
        a = BitMoDType(bits=3, special_values=(-3.0, 3.0, -6.0, 6.0), name="fp3_ablation")
        b = BitMoDType(bits=3, special_values=(-3.0, 3.0, -5.0, 5.0), name="fp3_ablation")
        assert QuantConfig(dtype=a).cache_key() != QuantConfig(dtype=b).cache_key()

    def test_dict_order_insensitive(self):
        assert stable_digest({"a": 1, "b": 2}) == stable_digest({"b": 2, "a": 1})

    def test_ndarray_content_addressing(self):
        a = np.arange(12, dtype=np.float64).reshape(3, 4)
        assert array_digest(a) == array_digest(a.copy())
        b = a.copy()
        b[0, 0] += 1
        assert array_digest(a) != array_digest(b)
        # Shape participates: same bytes, different layout.
        assert array_digest(a) != array_digest(a.reshape(4, 3))

    def test_canonical_handles_nested_structures(self):
        c = canonical({"xs": (1, 2.5, None), "arr": np.zeros(3)})
        assert c["xs"] == [1, 2.5, None]
        assert "__ndarray__" in c["arr"]

    def test_unsupported_object_fails_loudly(self):
        """No repr() fallback: default reprs embed memory addresses,
        which would silently defeat the cache with per-process keys."""

        class Opaque:
            pass

        with pytest.raises(TypeError, match="canonicalize"):
            stable_digest({"x": Opaque()})


class TestModelConfigKey:
    def test_distinct_models_distinct_keys(self):
        keys = {get_model_config(m).cache_key() for m in ("opt-1.3b", "llama-2-7b", "phi-2b")}
        assert len(keys) == 3

    def test_stable_across_lookups(self):
        assert (
            get_model_config("llama-2-7b").cache_key()
            == get_model_config("llama-2-7b").cache_key()
        )

    def test_digested_once_and_kept_out_of_fields(self, monkeypatch):
        import dataclasses

        import repro.pipeline.keys as keys

        cfg = dataclasses.replace(get_model_config("opt-1.3b"))
        calls = []
        real = keys.stable_digest
        monkeypatch.setattr(keys, "stable_digest", lambda obj: calls.append(obj) or real(obj))
        first = cfg.cache_key()
        assert cfg.cache_key() == first and len(calls) == 1
        assert first == real(get_model_config("opt-1.3b"))
        # The memo is no field: equality, repr and the canonical form
        # ignore it, and a replaced instance digests its own fields.
        assert cfg == get_model_config("opt-1.3b")
        assert "_cache_key" not in repr(cfg)
        assert "_cache_key" not in canonical(cfg)
        other = dataclasses.replace(cfg, sim_layers=cfg.sim_layers + 1)
        assert other.cache_key() != first and len(calls) == 2


class TestMethodKey:
    def test_method_name_in_key(self):
        q = QuantConfig(dtype="int4_asym")
        assert AWQ(q).cache_key() != GPTQ(q).cache_key()

    def test_hyperparams_in_key(self):
        q = QuantConfig(dtype="int4_asym")
        assert AWQ(q).cache_key() != AWQ(q, alpha_grid=[0.25, 0.75]).cache_key()
        assert GPTQ(q).cache_key() != GPTQ(q, percdamp=0.1).cache_key()
        assert (
            SmoothQuant(q).cache_key() != SmoothQuant(q, act_bits=8).cache_key()
        )

    def test_qconfig_in_key(self):
        assert (
            AWQ(QuantConfig(dtype="int4_asym")).cache_key()
            != AWQ(QuantConfig(dtype="bitmod_fp4")).cache_key()
        )

    def test_equal_instances_share_key(self):
        q = QuantConfig(dtype="int3_asym")
        assert AWQ(q).cache_key() == AWQ(q).cache_key()
