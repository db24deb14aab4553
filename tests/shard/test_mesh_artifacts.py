"""A mesh serves the artifact it was packed from, at every packed layout.

For each datatype × granularity with a packed container form, an
engine built on a 2-way, 2×2 or 4-way mesh from one saved artifact
yields every logit row and the greedy stream byte-identical to the
single-device engine built from the same file.
"""

import numpy as np
import pytest

from repro.models import get_model_config
from repro.models.transformer import CausalLM
from repro.quant.config import QuantConfig
from repro.serve.artifact import load_artifact, save_artifact
from repro.serve.engine import GenerationConfig, InferenceEngine
from repro.shard import DeviceMesh

MODEL = "llama-2-7b"
DTYPES = ["int4_sym", "int3_asym", "int5_asym", "bitmod_fp4", "bitmod_fp3", "fp4"]
#: (granularity, group_size) pairs with a packed container form.
GRANULARITIES = [("group", 64), ("group", 128), ("channel", 128)]
MESHES = [DeviceMesh(tp=2), DeviceMesh(tp=2, pp=2), DeviceMesh(tp=4)]
GEN = GenerationConfig(max_new_tokens=4)


@pytest.fixture(scope="module")
def single_device(tmp_path_factory):
    """(dtype, granularity, group_size) -> (artifact, prompt, stream, logits)
    from the single-device engine, built once per layout."""
    cfg = get_model_config(MODEL)
    model = CausalLM(cfg, seed=0)
    prompt = np.random.default_rng(7).integers(0, cfg.sim_vocab, size=10)
    cache = {}

    def build(dtype, granularity, group_size):
        key = (dtype, granularity, group_size)
        if key not in cache:
            qc = QuantConfig(
                dtype=dtype, granularity=granularity, group_size=group_size
            )
            path = tmp_path_factory.mktemp("layout") / "a.rpro"
            save_artifact(path, model, qc)
            art = load_artifact(path)
            ref = InferenceEngine.from_artifact(art)
            cache[key] = (
                art,
                prompt,
                ref.generate(prompt, GEN).generated,
                ref.model.logits(prompt),
            )
        return cache[key]

    return build


@pytest.mark.parametrize("mesh", MESHES, ids=lambda m: f"tp{m.tp}pp{m.pp}")
@pytest.mark.parametrize("granularity,group_size", GRANULARITIES)
@pytest.mark.parametrize("dtype", DTYPES)
def test_mesh_engine_matches_single_device(
    single_device, dtype, granularity, group_size, mesh
):
    art, prompt, stream, logits = single_device(dtype, granularity, group_size)
    sharded = InferenceEngine.from_artifact(art, mesh=mesh)
    np.testing.assert_array_equal(sharded.model.logits(prompt), logits)
    assert sharded.generate(prompt, GEN).generated == stream
