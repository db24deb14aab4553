"""The sharded inference engine.

:class:`ShardedEngine` is an :class:`~repro.serve.engine.InferenceEngine`
whose model is a :class:`~repro.shard.model.ShardedCausalLM` — the
whole sequence surface (``start_sequence`` / ``prefill`` / ``decode``
/ ``generate``, greedy and tempered sampling) is inherited unchanged,
so a :class:`~repro.serve.batching.ContinuousBatcher` or
:class:`~repro.serve.server.ServeServer` drives it exactly like a
single-device engine.  Under the default ``reduce="gather"`` mesh the
token stream *and* every logit row are byte-identical to the
single-device engine built from the same artifact.

Two constructors, both ending in the full dequantized weights:

* :meth:`from_artifact` — dequantize a full in-memory artifact once;
* :meth:`from_shard_set` — reassemble from per-device sub-artifacts
  (e.g. ``load_sharded_artifact``), each shard dequantizing only its
  own sliced packed image.  Slicing and elementwise dequant commute
  (see :mod:`repro.shard.partition`), so both paths produce
  bit-identical weights.

The prompt-prefix cache is **disabled** on sharded engines: a
deployed mesh keeps one KV cache per (stage, rank), and adopting a
whole-model :class:`~repro.serve.prefix.PrefixKVCache` snapshot there
would need a head-sliced re-partition of quantized KV blocks.  The
gate is explicit and tested rather than silently dropping to a cold
prefill.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.hw.multichip import LinkSpec
from repro.models.zoo import get_model_config
from repro.quant.kv import KVQuantConfig
from repro.quant.packing import unpack_tensor
from repro.serve.artifact import ModelArtifact
from repro.serve.engine import InferenceEngine
from repro.shard.collective import Collective
from repro.shard.errors import ShardError, ShardTopologyError
from repro.shard.mesh import DeviceMesh, partition_specs
from repro.shard.model import ShardedCausalLM, check_kv_quant

__all__ = ["ShardedEngine", "PREFIX_CACHE_UNSUPPORTED"]

#: Why ``prefix_cache`` is rejected — asserted verbatim by the tests.
PREFIX_CACHE_UNSUPPORTED = (
    "prefix KV reuse is not supported on sharded engines: cached "
    "snapshots are whole-model KV caches and cannot be re-partitioned "
    "exactly onto per-shard head slices"
)


class ShardedEngine(InferenceEngine):
    """Prefill/decode executor over a tensor/pipeline-parallel model."""

    def __init__(
        self,
        model: ShardedCausalLM,
        kv_quant: Optional[KVQuantConfig] = None,
        seed: int = 0,
        artifact: Optional[ModelArtifact] = None,
        prefix_cache=None,
    ):
        check_kv_quant(kv_quant)
        if prefix_cache is not None:
            raise ShardError(PREFIX_CACHE_UNSUPPORTED, prefix_cache=True)
        super().__init__(
            model, kv_quant=kv_quant, seed=seed, artifact=artifact,
            prefix_cache=None,
        )

    # ------------------------------------------------------------------
    @property
    def mesh(self) -> DeviceMesh:
        return self.model.mesh

    @property
    def collective(self) -> Collective:
        return self.model.collective

    def collective_stats(self) -> Dict:
        """Interconnect accounting since construction (or last reset)."""
        return self.collective.snapshot()

    # ------------------------------------------------------------------
    @classmethod
    def from_artifact(
        cls,
        artifact: ModelArtifact,
        mesh: DeviceMesh,
        seed: int = 0,
        link: Optional[LinkSpec] = None,
        prefix_cache=None,
    ) -> "ShardedEngine":
        """Dequantize ``artifact`` once and serve it over ``mesh``."""
        check_kv_quant(artifact.kv_quant)
        model = ShardedCausalLM(
            get_model_config(artifact.model_name),
            mesh,
            artifact.instantiate().weights,
            collective=Collective(mesh, link or LinkSpec()),
            seed=artifact.seed,
        )
        return cls(
            model,
            kv_quant=artifact.kv_quant,
            seed=seed,
            artifact=artifact,
            prefix_cache=prefix_cache,
        )

    @classmethod
    def from_shard_set(
        cls,
        shards: Sequence[ModelArtifact],
        seed: int = 0,
        link: Optional[LinkSpec] = None,
    ) -> "ShardedEngine":
        """Assemble an engine from a validated per-device shard set.

        ``shards`` must be a complete set in shard-index order with
        matching mesh digests (the shape ``load_sharded_artifact``
        returns).  Each shard's packed tensors dequantize through its
        own per-tensor config; the full weights are then reassembled —
        replicated tensors from rank 0, ``split_out`` slices
        concatenated on axis 0, ``split_in`` slices on axis 1 — bit
        identical to dequantizing the unsharded artifact.
        """
        if not shards:
            raise ShardTopologyError("empty shard set")
        headers = [s.shard_header for s in shards]
        if any(h is None for h in headers):
            raise ShardTopologyError(
                "shard set contains a single-device artifact (no shard header)"
            )
        digests = {h["mesh_digest"] for h in headers}
        if len(digests) != 1:
            raise ShardTopologyError(
                f"shard set mixes {len(digests)} mesh digests",
                digests=sorted(digests),
            )
        indices = [h["shard_index"] for h in headers]
        if indices != list(range(headers[0]["n_shards"])):
            raise ShardTopologyError(
                f"shard set out of order or incomplete: indices {indices}",
                have=indices,
                expected=headers[0]["n_shards"],
            )
        mesh = DeviceMesh.from_dict(headers[0]["mesh"])
        first = shards[0]
        check_kv_quant(first.kv_quant)
        cfg = get_model_config(first.model_name)
        # Stage-major, rank-minor: each tensor's slices arrive in rank order.
        parts: Dict[str, List[np.ndarray]] = {}
        for art in shards:
            for name, w in art.raw_weights.items():
                parts.setdefault(name, []).append(w)
            for name, p in art.packed.items():
                parts.setdefault(name, []).append(
                    unpack_tensor(p, art.tensor_config(name))
                )
        specs = partition_specs(cfg, mesh)
        weights = {}
        for name, ws in parts.items():
            kind = specs[name].kind
            if kind == "replicate" or mesh.tp == 1:
                weights[name] = ws[0].copy()
            else:
                weights[name] = np.concatenate(ws, axis=0 if kind == "split_out" else 1)
        model = ShardedCausalLM(
            cfg,
            mesh,
            weights,
            collective=Collective(mesh, link or LinkSpec()),
            seed=first.seed,
        )
        return cls(model, kv_quant=first.kv_quant, seed=seed, artifact=None)
