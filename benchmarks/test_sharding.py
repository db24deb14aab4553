"""Sharded-serving benchmarks: the 1 -> 4 shard scaling curve.

Drives the same seeded Poisson trace at one engine on a single device
and on 2- and 4-shard meshes
(``InferenceEngine.from_artifact(artifact, mesh=DeviceMesh(tp=n))``),
recording measured throughput, TTFT tails, and the modeled interconnect bill
(collective wire bytes per generated token, per topology) to
``BENCH_sharding.json`` next to this file.  Sharded token streams must
stay byte-identical to single-device — the scaling curve is only
meaningful if every point computes the same thing.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.hw.baselines import make_accelerator
from repro.hw.simulator import simulate
from repro.load import PoissonArrivals, SharedPrefixChat, Workload, run_load
from repro.models import CausalLM, get_model_config
from repro.models.zoo import get_model_config as _zoo_config
from repro.quant.config import QuantConfig
from repro.serve import InferenceEngine
from repro.serve.artifact import save_artifact
from repro.shard import DeviceMesh

_RESULTS_PATH = Path(__file__).parent / "BENCH_sharding.json"
_QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")
_N_REQUESTS = 30 if _QUICK else 120
_SEED = 2025
_SHARD_COUNTS = (1, 2, 4)

_results = {}


def _workload(n_requests=_N_REQUESTS, seed=_SEED):
    return Workload(
        arrivals=PoissonArrivals(400.0),
        traffic=SharedPrefixChat(
            n_prefixes=4,
            prefix_tokens=32,
            suffix_tokens=(4, 10),
            max_new_tokens=(4, 8),
        ),
        n_requests=n_requests,
        seed=seed,
        vocab=2048,
    )


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    cfg = get_model_config("opt-1.3b")
    d = tmp_path_factory.mktemp("bench-shard")
    return save_artifact(
        d / "m.rpro", CausalLM(cfg, seed=0), QuantConfig(dtype="int4_sym")
    )


def test_scaling_curve(artifact):
    """Measured load at 1/2/4 shards; streams byte-identical throughout."""
    workload = _workload()
    curve = {}
    streams = {}
    for shards in _SHARD_COUNTS:
        engine = InferenceEngine.from_artifact(artifact, mesh=DeviceMesh(tp=shards))
        t0 = time.perf_counter()
        result = run_load(engine, workload, max_batch_tokens=256)
        wall_s = time.perf_counter() - t0
        summary = result.summary()
        assert summary["lost"] == 0 and summary["errors"] == 0
        streams[shards] = {r.index: r.tokens for r in result.records}

        gen_tokens = max(result.metrics["tokens"]["decode"], 1)
        entry = {
            "completed": summary["completed"],
            "tokens_per_s": summary["tokens_per_s"],
            "ttft_p50_s": summary["ttft"]["p50_s"],
            "ttft_p95_s": summary["ttft"]["p95_s"],
            "latency_p99_s": summary["latency"]["p99_s"],
            "wall_s": wall_s,
        }
        if shards > 1:
            snap = engine.model.collective.snapshot()
            entry["collective"] = {
                "topology": snap["topology"],
                "total_wire_bytes": snap["total_wire_bytes"],
                "wire_bytes_per_token": snap["total_wire_bytes"] / gen_tokens,
                "modeled_seconds": snap["total_modeled_seconds"],
                "ops": {
                    op: {
                        "calls": s["calls"],
                        "wire_bytes": s["wire_bytes"],
                    }
                    for op, s in snap["ops"].items()
                },
            }
        curve[str(shards)] = entry

    for shards in _SHARD_COUNTS[1:]:
        assert streams[shards] == streams[1], (
            f"{shards}-shard token streams diverged from single-device"
        )
    _results["scaling"] = {
        "quick": _QUICK,
        "n_requests": _N_REQUESTS,
        "trace_digest": workload.digest(),
        "model": "opt-1.3b",
        "byte_identical_outputs": True,
        "curve": curve,
    }


def test_modeled_interconnect_per_topology():
    """The hw-model side of the bill: all-reduce traffic per topology.

    Full-size llama-2-7b on the BitMoD accelerator, one generative
    request; wire bytes are schedule-optimal (identical across
    topologies) while time favors fully-connected meshes past 2 chips.
    """
    cfg = _zoo_config("llama-2-7b")
    accel = make_accelerator("bitmod")
    gen_len = 64 if _QUICK else 256
    modeled = {}
    for topology in ("ring", "fully_connected"):
        per_shards = {}
        for shards in (2, 4, 8):
            r = simulate(
                cfg, accel, "generative", 4,
                shards=shards, topology=topology, gen_len=gen_len,
            )
            per_shards[str(shards)] = {
                "interconnect_bytes": r.interconnect_bytes,
                "interconnect_bytes_per_token": r.interconnect_bytes / gen_len,
                "interconnect_time_ms": r.interconnect_cycles / 1e9 * 1e3,
                "time_ms": r.time_ms,
            }
        modeled[topology] = per_shards
    ring4 = modeled["ring"]["4"]
    fc4 = modeled["fully_connected"]["4"]
    assert ring4["interconnect_bytes"] == fc4["interconnect_bytes"]
    assert fc4["interconnect_time_ms"] < ring4["interconnect_time_ms"]
    _results["modeled_interconnect"] = {
        "model": "llama-2-7b",
        "accelerator": "bitmod",
        "weight_bits": 4,
        "gen_len": gen_len,
        "topologies": modeled,
    }


def test_zz_write_results():
    """Persist the collected numbers (runs last by name)."""
    assert _results, "no sharding benchmarks ran"
    _RESULTS_PATH.write_text(json.dumps(_results, indent=2) + "\n")
