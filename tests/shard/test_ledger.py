"""The collective ledger charges what the simulator prices on a mesh.

One P-token forward pass through a :class:`ShardedCausalLM` must leave
exactly the wire bytes :func:`simulate` models for a P-token
discriminative pass of the same model at its sim shapes.
"""

import dataclasses

import numpy as np
import pytest

from repro.hw.baselines import make_accelerator
from repro.hw.simulator import simulate
from repro.models import get_model_config
from repro.models.transformer import CausalLM
from repro.shard import DeviceMesh, ShardedCausalLM

P = 16


def _sim_shapes(cfg):
    return dataclasses.replace(
        cfg,
        hidden=cfg.sim_hidden,
        n_layers=cfg.sim_layers,
        n_heads=cfg.sim_heads,
        n_kv_heads=cfg.sim_kv_heads,
        intermediate=cfg.sim_intermediate,
        vocab=cfg.sim_vocab,
    )


@pytest.fixture(scope="module")
def llama():
    cfg = get_model_config("llama-2-7b")
    return cfg, CausalLM(cfg, seed=0).weights


@pytest.mark.parametrize("pp", [1, 2])
@pytest.mark.parametrize("tp", [2, 4])
def test_ledger_equals_simulated_interconnect(llama, tp, pp):
    cfg, weights = llama
    mesh = DeviceMesh(tp=tp, pp=pp)
    model = ShardedCausalLM(cfg, mesh, weights)
    model.logits(np.arange(P) % cfg.sim_vocab)
    snap = model.collective.snapshot()

    sim = simulate(
        _sim_shapes(cfg), make_accelerator("bitmod"), "discriminative", 4,
        shards=tp, stages=pp, prompt_len=P,
    )
    assert snap["total_wire_bytes"] == sim.interconnect_bytes
    freq_hz = make_accelerator("bitmod").arch.frequency_ghz * 1e9
    assert snap["total_modeled_seconds"] * freq_hz == pytest.approx(
        sim.interconnect_cycles
    )
    # Megatron-LM's schedule: two all-reduces per layer, one logits
    # all-gather, one send per pipeline boundary.
    ops = snap["ops"]
    assert ops["all_reduce"]["calls"] == 2 * cfg.sim_layers
    assert ops["all_gather"]["calls"] == 1
    assert ops["send"]["calls"] == pp - 1


def test_ledger_tp2_prefill_bytes(llama):
    """16 tokens of llama-2-7b at tp=2: 8 all-reduces of a 16x256 FP16
    activation plus one 16x2048 logits gather."""
    cfg, weights = llama
    model = ShardedCausalLM(cfg, DeviceMesh(tp=2), weights)
    model.logits(np.arange(P) % cfg.sim_vocab)
    assert model.collective.snapshot()["total_wire_bytes"] == 196_608


def test_batched_decode_step_is_one_pass(llama):
    """A decode step over B sequences is one pass of B token positions:
    the payload of B solo steps in 1/B of the calls."""
    cfg, weights = llama
    prompts = [np.arange(n) % cfg.sim_vocab for n in (5, 9, 12)]
    tokens = np.array([7, 8, 9])
    solo = ShardedCausalLM(cfg, DeviceMesh(tp=2, pp=2), weights)
    batched = ShardedCausalLM(cfg, DeviceMesh(tp=2, pp=2), weights)
    solo_caches = [solo.prefill(p)[1] for p in prompts]
    batched_caches = [batched.prefill(p)[1] for p in prompts]
    solo.collective.reset()
    batched.collective.reset()
    for tok, cache in zip(tokens, solo_caches):
        solo.decode_step(np.array([tok]), [cache])
    batched.decode_step(tokens, batched_caches)
    one, many = batched.collective.snapshot()["ops"], solo.collective.snapshot()["ops"]
    for op in ("all_reduce", "all_gather", "send"):
        assert one[op]["payload_bytes"] == many[op]["payload_bytes"] > 0
        assert one[op]["calls"] * len(prompts) == many[op]["calls"]
