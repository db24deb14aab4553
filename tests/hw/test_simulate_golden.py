"""Golden values of the accelerator simulator.

``golden/simulate.json`` pins the cycles, the three energy parts, the
interconnect bill and the reported weight bits of

* every zoo model x accelerator x task at 3/4/6/8/16 bits,
* three per-GEMM plans at two group sizes, and
* llama-2-7b on tp 2/4/8 (ring and fully connected), pp2 and tp2 x pp2
  meshes,

as ``repr`` floats that must match exactly.  The values were taken from
the simulator when the single-chip and the mesh cost models were still
separate passes, so they also pin that one pass prices both.

Regenerate only when the cost model changes on purpose::

    PYTHONPATH=src python tests/hw/test_simulate_golden.py
"""

import json
from pathlib import Path
from typing import List

import pytest

from repro.hw.baselines import ACCELERATORS, make_accelerator
from repro.hw.simulator import SimResult, simulate, simulate_plan
from repro.models.zoo import get_model_config, list_models

GOLDEN = Path(__file__).parent / "golden" / "simulate.json"

TASKS = ("discriminative", "generative")
BITS = (3, 4, 6, 8, 16)
#: (shards, stages, topology) on llama-2-7b.
MESHES = (
    (2, 1, "ring"),
    (2, 1, "fully_connected"),
    (4, 1, "ring"),
    (4, 1, "fully_connected"),
    (8, 1, "ring"),
    (8, 1, "fully_connected"),
    (1, 2, "ring"),
    (2, 2, "ring"),
)
PLANS = (
    (
        "llama-2-7b",
        {
            "q_proj": 4.0, "k_proj": 4.0, "v_proj": 6.0, "o_proj": 4.0,
            "gate_proj": 3.0, "up_proj": 3.0, "down_proj": 8.0, "lm_head": 6.0,
        },
    ),
    # Unnamed GEMMs stay FP16.
    ("llama-2-7b", {"q_proj": 4.0, "k_proj": 4.0, "lm_head": 3.0}),
    (
        "opt-1.3b",
        {
            "q_proj": 3.0, "k_proj": 3.0, "v_proj": 4.0, "o_proj": 6.0,
            "fc1": 3.0, "fc2": 8.0, "lm_head": 8.0,
        },
    ),
)


def cases() -> List[dict]:
    """Every pinned simulator call, as JSON-ready keyword sets."""
    out = []
    for model in list_models():
        for accel in ACCELERATORS:
            for task in TASKS:
                for bits in BITS:
                    out.append(
                        {"model": model, "accelerator": accel, "task": task, "bits": bits}
                    )
    for model, plan in PLANS:
        for task in TASKS:
            for group_size in (64, 128):
                out.append(
                    {
                        "model": model,
                        "accelerator": "bitmod",
                        "task": task,
                        "plan": plan,
                        "group_size": group_size,
                    }
                )
    for shards, stages, topology in MESHES:
        for task in TASKS:
            out.append(
                {
                    "model": "llama-2-7b",
                    "accelerator": "bitmod",
                    "task": task,
                    "bits": 4,
                    "shards": shards,
                    "stages": stages,
                    "topology": topology,
                }
            )
    for task in TASKS:
        out.append(
            {
                "model": "llama-2-7b",
                "accelerator": "bitmod",
                "task": task,
                "plan": PLANS[0][1],
                "shards": 2,
                "stages": 2,
                "topology": "ring",
            }
        )
    return out


def run(case: dict) -> SimResult:
    cfg = get_model_config(case["model"])
    accel = make_accelerator(case["accelerator"])
    kw = {
        k: case[k] for k in ("shards", "stages", "topology", "group_size") if k in case
    }
    if "plan" in case:
        return simulate_plan(cfg, accel, case["task"], case["plan"], **kw)
    return simulate(cfg, accel, case["task"], case["bits"], **kw)


def values(r: SimResult) -> dict:
    return {
        "cycles": repr(r.cycles),
        "dram_uj": repr(r.energy.dram_uj),
        "buffer_uj": repr(r.energy.buffer_uj),
        "core_uj": repr(r.energy.core_uj),
        "interconnect_bytes": repr(r.interconnect_bytes),
        "interconnect_cycles": repr(r.interconnect_cycles),
        "weight_bits": repr(float(r.weight_bits)),
    }


@pytest.fixture(scope="module")
def golden() -> List[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert [g["case"] for g in golden] == cases()


@pytest.mark.parametrize(
    "kind",
    [
        pytest.param(lambda c: "plan" not in c and "shards" not in c, id="uniform"),
        pytest.param(lambda c: "plan" in c, id="plans"),
        pytest.param(lambda c: "shards" in c, id="meshes"),
    ],
)
def test_simulate_matches_golden(golden, kind):
    picked = [g for g in golden if kind(g["case"])]
    assert picked
    diverged = [g["case"] for g in picked if values(run(g["case"])) != g["expect"]]
    assert not diverged, f"{len(diverged)} of {len(picked)} diverged, first: {diverged[0]}"


if __name__ == "__main__":
    rows = (json.dumps({"case": c, "expect": values(run(c))}) for c in cases())
    GOLDEN.write_text("[\n" + ",\n".join(rows) + "\n]\n", encoding="utf-8")
