"""End-to-end quantized serving: pack, reload, batch-serve, cost out.

The deployment path the BitMoD paper motivates, on the synthetic
substrate:

1. quantize a zoo model with BitMoD FP4 and save the bit-packed
   artifact (element codes + INT8 scale codes + special-value
   selectors on disk);
2. reload the artifact into the inference engine — incremental
   KV-cache decode (INT8-quantized cache), not full recompute;
3. serve concurrent clients through the continuous-batching asyncio
   server and report throughput / TTFT / latency percentiles;
4. replay the served traffic through the accelerator model for
   full-scale modeled latency and energy per request.

Run:  python examples/serve_demo.py [model-name]
"""

import asyncio
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.models import CausalLM, get_model_config
from repro.pipeline import CacheStore
from repro.quant import KVQuantConfig, QuantConfig
from repro.serve import (
    GenerationConfig,
    InferenceEngine,
    ServeServer,
    hardware_report,
    load_artifact,
    save_artifact,
)

model_name = sys.argv[1] if len(sys.argv) > 1 else "llama-2-7b"
N_REQUESTS = 8
MAX_NEW = 24

# --- 1. quantize + pack -------------------------------------------------
# The pipeline cache makes repacking free: each tensor's bit-packed
# image is content-addressed by (weight bytes, quant key), so a second
# run of this demo rebuilds the artifact without quantizing anything.
config = get_model_config(model_name)
model = CausalLM(config, seed=0)
qcfg = QuantConfig(dtype="bitmod_fp4", group_size=128)
path = Path(tempfile.gettempdir()) / f"{model_name}.rsrv"
artifact = save_artifact(
    path, model, qcfg, kv_quant=KVQuantConfig(bits=8), store=CacheStore()
)
print(f"Packed {config.name}: {len(artifact.packed)} linears -> {path}")
print(f"  {artifact.mean_bits_per_weight:.2f} bits/weight "
      f"({artifact.packed_bytes / 1024:.0f} KiB packed payload at sim scale)")

# --- 2. reload into the engine -----------------------------------------
engine = InferenceEngine.from_artifact(load_artifact(path))
print(
    f"  reloaded; KV cache policy: INT{engine.kv_quant.bits}, "
    "one scale per (head, position)\n"
)

# --- 3. serve concurrent clients ---------------------------------------
rng = np.random.default_rng(0)
prompts = [rng.integers(0, config.sim_vocab, size=int(rng.integers(8, 48)))
           for _ in range(N_REQUESTS)]


async def main():
    server = ServeServer(engine, max_batch_tokens=128)
    await server.start()
    results = await asyncio.gather(*[
        server.generate(p, GenerationConfig(max_new_tokens=MAX_NEW))
        for p in prompts
    ])
    await server.stop()
    return server, results


server, results = asyncio.run(main())
m = server.metrics.to_dict()
print(f"Served {m['requests']['completed']} concurrent requests "
      f"in {m['elapsed_s']:.2f}s over {m['steps']} scheduler steps")
print(f"  throughput: {m['decode_tokens_per_s']:.0f} generated tok/s "
      f"({m['total_tokens_per_s']:.0f} tok/s incl. prefill)")
print(f"  TTFT    p50={m['ttft']['p50_s'] * 1e3:.0f}ms  "
      f"p95={m['ttft']['p95_s'] * 1e3:.0f}ms")
print(f"  latency p50={m['latency']['p50_s'] * 1e3:.0f}ms  "
      f"p95={m['latency']['p95_s'] * 1e3:.0f}ms\n")

# --- 4. modeled accelerator cost ---------------------------------------
report = hardware_report(artifact, results, accelerator="bitmod")
fp16 = hardware_report(artifact.model_name, results, accelerator="fp16",
                       weight_bits=16.0)
print(f"Modeled on the BitMoD accelerator ({config.name} full-size, "
      f"{report.weight_bits:.2f}-bit weights):")
print(f"  {report.energy_per_request_uj / 1e3:.1f} mJ per request "
      f"({report.total_time_ms / report.n_requests:.0f} ms modeled latency)")
print(f"  vs FP16 baseline: {fp16.energy_per_request_uj / 1e3:.1f} mJ "
      f"-> {fp16.total_energy_uj / report.total_energy_uj:.2f}x energy saving")

# --- 5. bit-accurate datapath replay -----------------------------------
# The vectorized kernel engine can push real serving batch sizes
# through the bit-accurate PE datapath against the packed weight
# images themselves: measured PE cycles plus a numerical cross-check
# that the DRAM image executes to the dequantized weights.
layer = sorted(artifact.packed)[0]
replay = engine.functional_replay(batch_size=N_REQUESTS, layers=[layer])[0]
print(f"\nBit-accurate replay of {replay.layer} at batch {replay.batch}:")
print(f"  {replay.pe_cycles} PE cycles over {replay.groups_processed} groups "
      f"({replay.cycles_per_output:.0f} cycles/output)")
print(f"  max |PE - dequantized matmul| = {replay.max_abs_err:.2e}")
