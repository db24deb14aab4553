"""Traced runs: spans around calls into each layer's public entry points.

The benchmark never edits the program.  For a traced run it wraps the
public functions and methods named below, records one span per call
into a :class:`repro.obs.Tracer` of its own (the program's global
tracer stays off, so its built-in spans add no cost), and exports the
spans through :func:`repro.obs.write_trace` as a Chrome trace that
Perfetto loads.  :mod:`perfbench.layers` rolls the spans up into the
per-layer metrics.

A span's *self time* is its duration minus the time covered by its
direct child spans; children of one span never overlap, because every
wrapped call runs on the one benchmark thread.
"""

from __future__ import annotations

import functools
import sys
import weakref
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.obs import Tracer, write_trace


class LayerTracer:
    """Installs span wrappers and collects what they record."""

    def __init__(self):
        self.tracer = Tracer(enabled=True)
        self.active = False
        self._undo: List[Callable[[], None]] = []
        #: Live KV caches -> accounted bytes, for the peak across
        #: sequences alive at the same time.
        self._kv_live: Dict[int, int] = {}
        self.kv_bytes_peak = 0
        #: Prefix-cache keys inserted, and those a later lookup hit.
        self.prefix_inserted: set = set()
        self.prefix_useful: set = set()
        self.prefix_bytes_peak = 0

    # ------------------------------------------------------------------
    def _wrapper(self, fn, name: str, before=None, after=None):
        tracer = self.tracer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_name = name(args, kwargs) if callable(name) else name
            span_args = before(args, kwargs) if before is not None else {}
            with tracer.span(span_name, **span_args) as sp:
                result = fn(*args, **kwargs)
                if after is not None:
                    sp.args.update(after(args, kwargs, result, sp.args))
            return result

        return traced

    def wrap_method(self, cls, attr: str, name, before=None, after=None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrapper(original, name, before, after))
        self._undo.append(lambda: setattr(cls, attr, original))

    def wrap_function(self, fn, name, before=None, after=None) -> None:
        """Replace ``fn`` in every loaded module that holds it by name
        (``from x import fn`` copies the reference into the importer)."""
        wrapped = self._wrapper(fn, name, before, after)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                if value is fn:
                    setattr(module, attr, wrapped)
                    self._undo.append(
                        functools.partial(setattr, module, attr, fn)
                    )

    def uninstall(self) -> None:
        self.active = False
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------
    def spans(self) -> List[dict]:
        return self.tracer.spans()

    def export(self, path: Path) -> Path:
        return write_trace(path, self.spans())

    # ------------------------------------------------------------------
    def _track_kv(self, cache) -> None:
        key = id(cache)
        if key not in self._kv_live:
            weakref.finalize(cache, self._kv_live.pop, key, None)
        self._kv_live[key] = cache.memory_bytes
        self.kv_bytes_peak = max(self.kv_bytes_peak, sum(self._kv_live.values()))

    def install(self) -> None:
        """Wrap every measured layer's public entry points."""
        from repro.dse import sweep as dse_sweep
        from repro.eval.perplexity import PerplexityEvaluator
        from repro.hw import simulator
        from repro.hw.functional import FunctionalGemm
        from repro.models.transformer import CausalLM
        from repro.pipeline.engine import Engine
        from repro.quant import config as quant_config
        from repro.quant import packing
        from repro.serve.batching import ContinuousBatcher
        from repro.serve.engine import InferenceEngine
        from repro.serve.prefix import PrefixKVCache

        # serve
        self.wrap_method(ContinuousBatcher, "step", "serve.step")
        self.wrap_method(
            InferenceEngine,
            "prefill",
            "serve.engine.prefill",
            before=lambda a, k: {"prompt_tokens": int(a[1].prompt.size)},
        )
        self.wrap_method(InferenceEngine, "decode", "serve.engine.decode")

        # serve.prefix
        def lookup_after(args, kwargs, hit, _span):
            if hit is None:
                return {"hit_tokens": 0}
            length = hit[0]
            key = np.ascontiguousarray(
                np.asarray(args[1]).reshape(-1)[:length], dtype=np.int64
            ).tobytes()
            if key in self.prefix_inserted:
                self.prefix_useful.add(key)
            return {"hit_tokens": int(length)}

        def insert_before(args, kwargs):
            return {"inserts_before": args[0].inserts}

        def insert_after(args, kwargs, length, span):
            cache = args[0]
            if cache.inserts > span["inserts_before"]:
                key = np.ascontiguousarray(
                    np.asarray(args[1]).reshape(-1)[:length], dtype=np.int64
                ).tobytes()
                self.prefix_inserted.add(key)
            self.prefix_bytes_peak = max(self.prefix_bytes_peak, cache.total_bytes)
            return {"stored_tokens": int(length)}

        self.wrap_method(PrefixKVCache, "lookup", "prefix.lookup", after=lookup_after)
        self.wrap_method(
            PrefixKVCache, "insert", "prefix.insert", before=insert_before, after=insert_after
        )

        # models: one wrapper, named by what the forward pass does.
        def logits_name(args, kwargs):
            cache = kwargs.get("cache", args[2] if len(args) > 2 else None)
            if cache is None:
                return "models.forward"
            tokens = np.asarray(args[1])
            return "models.decode_step" if tokens.shape[-1] == 1 and tokens.ndim > 0 else "models.prefill"

        def logits_before(args, kwargs):
            cache = kwargs.get("cache", args[2] if len(args) > 2 else None)
            tokens = np.asarray(args[1])
            return {
                "tokens": int(tokens.size),
                "ctx": 0 if cache is None else int(cache.seq_len),
            }

        def logits_after(args, kwargs, result, _span):
            cache = kwargs.get("cache", args[2] if len(args) > 2 else None)
            if cache is not None:
                self._track_kv(cache)
            return {}

        self.wrap_method(
            CausalLM, "logits", logits_name, before=logits_before, after=logits_after
        )

        # quant + dtypes
        self.wrap_function(
            quant_config.quantize_tensor,
            "quant.quantize_tensor",
            before=lambda a, k: {"elements": int(np.asarray(a[0]).size)},
        )
        self.wrap_function(packing.pack_tensor, "quant.pack")

        # eval
        self.wrap_method(PerplexityEvaluator, "evaluate_quantizer", "eval.evaluate_quantizer")
        self.wrap_method(PerplexityEvaluator, "evaluate_model", "eval.evaluate_model")

        # pipeline, dse, hw
        self.wrap_method(
            Engine, "run", "pipeline.run", before=lambda a, k: {"specs": len(a[1])}
        )
        self.wrap_function(dse_sweep.run_points, "dse.run_points",
                           before=lambda a, k: {"points": len(a[0])})
        self.wrap_function(simulator.simulate, "hw.simulate")

        # kernels
        def gemm_before(args, kwargs):
            x, packed = np.asarray(args[1]), args[2]
            m, d = x.shape
            k = packed.shape[0]
            weight_bytes = (
                len(packed.element_data)
                + np.asarray(packed.sf_codes).nbytes
                + np.asarray(packed.channel_scales).nbytes
            )
            return {
                "macs": int(m) * int(k) * int(d),
                # Computed from tensor sizes: FP16 activations in, the
                # packed weight image, float64 outputs back.
                "bytes": int(m * d * 2 + weight_bytes + m * k * 8),
            }

        self.wrap_method(FunctionalGemm, "run_packed", "kernels.gemm", before=gemm_before)
        self.active = True


def self_times(spans: List[dict]) -> Dict[int, int]:
    """Span id -> self time in ns (duration minus direct children)."""
    child_ns: Dict[Optional[int], int] = defaultdict(int)
    for s in spans:
        if s.get("parent") is not None:
            child_ns[s["parent"]] += s["dur_ns"]
    return {s["id"]: s["dur_ns"] - child_ns.get(s["id"], 0) for s in spans}
