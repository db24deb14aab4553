"""Shared fixtures: a shrunk simulated model so load tests run fast."""

import dataclasses

import pytest

from repro.models import CausalLM, get_model_config


def _shrunk(model_name):
    return dataclasses.replace(
        get_model_config(model_name),
        sim_layers=2,
        sim_hidden=64,
        sim_heads=4,
        sim_kv_heads=4,
        sim_intermediate=128,
        sim_vocab=512,
    )


@pytest.fixture(scope="session")
def tiny_configs():
    """The shrunk OPT (LayerNorm, learned positions) and Llama (RoPE)
    layouts, by zoo name."""
    return {name: _shrunk(name) for name in ("opt-1.3b", "llama-2-7b")}


@pytest.fixture(scope="session")
def tiny_config(tiny_configs):
    return tiny_configs["opt-1.3b"]


@pytest.fixture()
def tiny_model(tiny_config):
    return CausalLM(tiny_config, seed=0)
