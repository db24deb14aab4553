"""Sharded-serving gates: 1/2/4 shards compute the same thing.

Replays the same seeded Poisson trace (:func:`repro.load.replay`) at
one engine on a single device and on 2- and 4-shard meshes
(``InferenceEngine.from_artifact(artifact, mesh=DeviceMesh(tp=n))``).
Every request must resolve and the sharded token streams must stay
byte-identical to single-device.  The modeled interconnect bill of a
full-size mesh must be schedule-optimal across topologies.
"""

import pytest

from repro.hw.baselines import make_accelerator
from repro.hw.simulator import simulate
from repro.load import PoissonArrivals, SharedPrefixChat, Workload, replay
from repro.models import CausalLM, get_model_config
from repro.quant.config import QuantConfig
from repro.serve import InferenceEngine
from repro.serve.artifact import save_artifact
from repro.shard import DeviceMesh

_N_REQUESTS = 120
_SEED = 2025
_SHARD_COUNTS = (1, 2, 4)


def _workload():
    return Workload(
        arrivals=PoissonArrivals(400.0),
        traffic=SharedPrefixChat(
            n_prefixes=4,
            prefix_tokens=32,
            suffix_tokens=(4, 10),
            max_new_tokens=(4, 8),
        ),
        n_requests=_N_REQUESTS,
        seed=_SEED,
        vocab=2048,
    )


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    cfg = get_model_config("opt-1.3b")
    d = tmp_path_factory.mktemp("bench-shard")
    return save_artifact(
        d / "m.rpro", CausalLM(cfg, seed=0), QuantConfig(dtype="int4_sym")
    )


def test_streams_identical_across_shards(artifact):
    """The replayed trace at 1/2/4 shards: zero lost, streams
    byte-identical throughout."""
    workload = _workload()
    streams = {}
    for shards in _SHARD_COUNTS:
        engine = InferenceEngine.from_artifact(artifact, mesh=DeviceMesh(tp=shards))
        result = replay(engine, workload, max_batch_tokens=256)
        summary = result.summary()
        assert summary["lost"] == 0 and summary["errors"] == 0
        assert summary["completed"] == _N_REQUESTS
        streams[shards] = {r.index: r.tokens for r in result.records}

    for shards in _SHARD_COUNTS[1:]:
        assert streams[shards] == streams[1], (
            f"{shards}-shard token streams diverged from single-device"
        )


def test_modeled_interconnect_per_topology():
    """The hw-model side of the bill: all-reduce traffic per topology.

    Full-size llama-2-7b on the BitMoD accelerator, one generative
    request; wire bytes are schedule-optimal (identical across
    topologies) while time favors fully-connected meshes past 2 chips.
    """
    cfg = get_model_config("llama-2-7b")
    accel = make_accelerator("bitmod")
    ring4, fc4 = (
        simulate(cfg, accel, "generative", 4, shards=4, topology=topology)
        for topology in ("ring", "fully_connected")
    )
    assert ring4.interconnect_bytes == fc4.interconnect_bytes
    assert fc4.interconnect_cycles < ring4.interconnect_cycles
