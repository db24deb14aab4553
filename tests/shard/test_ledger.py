"""The collective ledger charges what the multi-chip simulator prices.

One P-token forward pass through a :class:`ShardedCausalLM` must leave
exactly the wire bytes :func:`simulate_sharded` models for a
P-token discriminative pass of the same model at its sim shapes.
"""

import dataclasses

import numpy as np
import pytest

from repro.hw.baselines import make_accelerator
from repro.hw.multichip import simulate_sharded
from repro.models import get_model_config
from repro.models.transformer import CausalLM
from repro.shard import REDUCE_MODES, DeviceMesh, ShardedCausalLM

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


@pytest.mark.parametrize("reduce", REDUCE_MODES)
@pytest.mark.parametrize("pp", [1, 2])
@pytest.mark.parametrize("tp", [2, 4])
def test_ledger_equals_simulated_interconnect(llama, tp, pp, reduce):
    cfg, weights = llama
    mesh = DeviceMesh(tp=tp, pp=pp, reduce=reduce)
    model = ShardedCausalLM(cfg, mesh, weights)
    model.logits(np.arange(P) % cfg.sim_vocab)
    snap = model.collective.snapshot()

    sim = simulate_sharded(
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
