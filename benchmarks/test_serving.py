"""Serving-path perf gate: incremental KV-cache decode beats full forwards.

Serving throughput and latency are recorded by perfbench
(``python3 perfbench/run.py``); this module keeps only the gate that
the incremental decode path is faster than recomputing the whole
sequence per token, on the same greedy stream.
"""

import time

import numpy as np
import pytest

from repro.models import CausalLM, get_model_config
from repro.quant import QuantConfig
from repro.serve import (
    GenerationConfig,
    InferenceEngine,
    load_artifact,
    save_artifact,
)

_PROMPT_LEN = 48
_GEN_LEN = 48


@pytest.fixture(scope="module")
def engine(tmp_path_factory):
    """An engine over a packed-and-reloaded bitmod_fp4 model."""
    model = CausalLM(get_model_config("opt-1.3b"), seed=0)
    path = tmp_path_factory.mktemp("artifact") / "opt.rsrv"
    save_artifact(path, model, QuantConfig(dtype="bitmod_fp4"))
    return InferenceEngine.from_artifact(load_artifact(path))


def _decode_full_forward(model, prompt, n_tokens):
    """The naive serving loop: recompute the whole sequence per token."""
    tokens = list(prompt)
    for _ in range(n_tokens):
        row = model.logits(np.array(tokens))[0, -1]
        tokens.append(int(np.argmax(row)))
    return tokens[len(prompt):]


def test_incremental_vs_full_forward_decode(engine):
    """Incremental KV-cache decode must beat per-token full forwards."""
    prompt = np.arange(_PROMPT_LEN) % engine.model.config.sim_vocab
    gen_cfg = GenerationConfig(max_new_tokens=_GEN_LEN)

    t0 = time.perf_counter()
    slow_tokens = _decode_full_forward(engine.model, prompt, _GEN_LEN)
    full_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    seq = engine.generate(prompt, gen_cfg)
    incr_s = time.perf_counter() - t0

    assert seq.generated == slow_tokens  # same greedy stream
    assert incr_s < full_s, "KV-cache decode slower than full forwards"
