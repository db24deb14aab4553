"""Roll traced spans up into the per-layer metrics.

Every traced run reports every metric below; a layer the workload does
not exercise reports 0 (no calls, no time).  The table in
``perfbench/README.md`` says which end-to-end metric each should move,
on which workload.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

from perfbench.stats import median, percentile, share
from perfbench.tracing import LayerTracer, self_times

#: End-to-end metrics whose traced-minus-untraced difference is the
#: tracing overhead (same unit as the metric).
OVERHEAD_OF = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
)

PER_LAYER: List[Tuple[str, str]] = [
    ("serve.engine.decode.calls", "count"),
    ("serve.engine.decode.ms_p50", "ms"),
    ("serve.step.count", "count"),
    ("serve.step.self_ms_p50", "ms"),
    ("serve.batch.decodes_per_step", "count"),
    ("serve.engine.prefill.calls", "count"),
    ("serve.engine.prefill.ms_per_prompt_token", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.shed", "count"),
    ("serve.expired", "count"),
    ("prefix.hit_rate", "share"),
    ("prefix.reused_token_share", "share"),
    ("prefix.useful_insert_share", "share"),
    ("prefix.evictions", "count"),
    ("prefix.bytes_peak", "bytes"),
    ("prefix.lookup_ms_p50", "ms"),
    ("prefix.insert_ms_p50", "ms"),
    ("models.decode_step.ms_ctx_lt128", "ms"),
    ("models.decode_step.ms_ctx_128_511", "ms"),
    ("models.decode_step.ms_ctx_ge512", "ms"),
    ("models.prefill.ms_per_token", "ms"),
    ("models.forward.ms_per_token", "ms"),
    ("models.kv_bytes_peak", "bytes"),
    ("load.sent", "count"),
    ("load.lateness_ms_p50", "ms"),
    ("load.lateness_ms_p90", "ms"),
    ("quant.quantize_tensor.calls", "count"),
    ("quant.quantize_tensor.s", "s"),
    ("quant.elements_per_s", "1/s"),
    ("quant.pack.s", "s"),
    ("eval.ppl.calls", "count"),
    ("eval.ppl.self_s", "s"),
    ("pipeline.cells.computed", "count"),
    ("pipeline.cells.hit_rate", "share"),
    ("pipeline.run.self_s", "s"),
    ("dse.points", "count"),
    ("dse.run_points.self_s", "s"),
    ("hw.simulate.calls", "count"),
    ("hw.simulate.host_ms_p50", "ms"),
    ("kernels.gemm.calls", "count"),
    ("kernels.gemm.s", "s"),
    ("kernels.gemm.macs_per_s", "1/s"),
    ("kernels.gemm.bytes_moved", "bytes"),
    ("kernels.backend.fused_share", "share"),
    ("kernels.decode_cache.hit_rate", "share"),
] + [(f"trace.overhead.{name}", unit) for name, unit in OVERHEAD_OF]


def _ms(ns: float) -> float:
    return ns / 1e6


def rollup(tracer: LayerTracer, facts: Dict, overhead: Dict[str, float]) -> Dict[str, float]:
    """Per-layer values from the traced spans plus workload ``facts``.

    ``facts`` carries what the workload observed outside the spans
    (scheduler step records, cache statistics, generator lateness);
    ``overhead`` maps end-to-end metric names to traced - untraced.
    """
    spans = tracer.spans()
    own = self_times(spans)
    by_name: Dict[str, List[dict]] = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def durs_ms(name: str) -> List[float]:
        return [_ms(s["dur_ns"]) for s in by_name[name]]

    def total_s(name: str) -> float:
        return sum(s["dur_ns"] for s in by_name[name]) / 1e9

    def self_s(*names: str) -> float:
        return sum(own[s["id"]] for n in names for s in by_name[n]) / 1e9

    def p50(values: List[float]) -> float:
        return median(values) or 0.0

    def per_token_ms(name: str, key: str) -> float:
        tokens = sum(s["args"][key] for s in by_name[name])
        return share(sum(durs_ms(name)), tokens)

    out: Dict[str, float] = {}
    # serve
    out["serve.engine.decode.calls"] = len(by_name["serve.engine.decode"])
    out["serve.engine.decode.ms_p50"] = p50(durs_ms("serve.engine.decode"))
    out["serve.step.count"] = len(by_name["serve.step"])
    out["serve.step.self_ms_p50"] = p50(
        [_ms(own[s["id"]]) for s in by_name["serve.step"]]
    )
    out["serve.batch.decodes_per_step"] = share(
        sum(facts.get("decodes_per_step", [])), len(facts.get("decodes_per_step", []))
    )
    out["serve.engine.prefill.calls"] = len(by_name["serve.engine.prefill"])
    out["serve.engine.prefill.ms_per_prompt_token"] = per_token_ms(
        "serve.engine.prefill", "prompt_tokens"
    )
    out["serve.queue_wait_ms_p50"] = p50([w * 1e3 for w in facts.get("queue_wait_s", [])])
    out["serve.shed"] = facts.get("shed", 0)
    out["serve.expired"] = facts.get("expired", 0)

    # serve.prefix
    stats = facts.get("prefix_stats") or {}
    out["prefix.hit_rate"] = stats.get("hit_rate", 0.0)
    out["prefix.reused_token_share"] = share(
        facts.get("prefix_reused_tokens", 0), facts.get("prompt_tokens", 0)
    )
    out["prefix.useful_insert_share"] = share(
        len(tracer.prefix_useful), len(tracer.prefix_inserted)
    )
    out["prefix.evictions"] = stats.get("evictions", 0)
    out["prefix.bytes_peak"] = tracer.prefix_bytes_peak
    out["prefix.lookup_ms_p50"] = p50(durs_ms("prefix.lookup"))
    out["prefix.insert_ms_p50"] = p50(durs_ms("prefix.insert"))

    # models
    buckets = {"lt128": [], "128_511": [], "ge512": []}
    for s in by_name["models.decode_step"]:
        ctx = s["args"]["ctx"]
        key = "lt128" if ctx < 128 else "128_511" if ctx < 512 else "ge512"
        buckets[key].append(_ms(s["dur_ns"]))
    for key, values in buckets.items():
        out[f"models.decode_step.ms_ctx_{key}"] = p50(values)
    out["models.prefill.ms_per_token"] = per_token_ms("models.prefill", "tokens")
    out["models.forward.ms_per_token"] = per_token_ms("models.forward", "tokens")
    out["models.kv_bytes_peak"] = tracer.kv_bytes_peak

    # load (the benchmark's own open-loop generator)
    lateness_ms = [x * 1e3 for x in facts.get("lateness_s", [])]
    out["load.sent"] = facts.get("sent", 0)
    out["load.lateness_ms_p50"] = p50(lateness_ms)
    out["load.lateness_ms_p90"] = percentile(lateness_ms, 90) or 0.0

    # quant + dtypes
    quantize = by_name["quant.quantize_tensor"]
    out["quant.quantize_tensor.calls"] = len(quantize)
    out["quant.quantize_tensor.s"] = total_s("quant.quantize_tensor")
    out["quant.elements_per_s"] = share(
        sum(s["args"]["elements"] for s in quantize), out["quant.quantize_tensor.s"]
    )
    out["quant.pack.s"] = total_s("quant.pack")

    # eval
    out["eval.ppl.calls"] = len(by_name["eval.evaluate_model"])
    out["eval.ppl.self_s"] = self_s("eval.evaluate_model", "eval.evaluate_quantizer")

    # pipeline
    out["pipeline.cells.computed"] = facts.get("cells_computed", 0)
    requested = sum(s["args"]["specs"] for s in by_name["pipeline.run"])
    out["pipeline.cells.hit_rate"] = share(
        requested - facts.get("cells_computed", 0), requested
    )
    out["pipeline.run.self_s"] = self_s("pipeline.run")

    # dse / hw
    out["dse.points"] = sum(s["args"]["points"] for s in by_name["dse.run_points"])
    out["dse.run_points.self_s"] = self_s("dse.run_points")
    out["hw.simulate.calls"] = len(by_name["hw.simulate"])
    out["hw.simulate.host_ms_p50"] = p50(durs_ms("hw.simulate"))

    # kernels
    gemm = by_name["kernels.gemm"]
    out["kernels.gemm.calls"] = len(gemm)
    out["kernels.gemm.s"] = total_s("kernels.gemm")
    out["kernels.gemm.macs_per_s"] = share(
        sum(s["args"]["macs"] for s in gemm), out["kernels.gemm.s"]
    )
    out["kernels.gemm.bytes_moved"] = sum(s["args"]["bytes"] for s in gemm)
    dispatch = facts.get("kernel_dispatch", {})
    out["kernels.backend.fused_share"] = share(
        dispatch.get("fused", 0), sum(dispatch.values())
    )
    cache = facts.get("decode_cache") or {}
    out["kernels.decode_cache.hit_rate"] = share(
        cache.get("hits", 0), cache.get("hits", 0) + cache.get("misses", 0)
    )

    for name, _unit in OVERHEAD_OF:
        out[f"trace.overhead.{name}"] = overhead.get(name, 0.0)
    return out
