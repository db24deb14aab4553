"""Tensor/pipeline-parallel causal LM over a device mesh.

:class:`ShardedCausalLM` *is* a :class:`~repro.models.transformer.CausalLM`
holding the full weights, a :class:`~repro.shard.mesh.DeviceMesh` and a
:class:`~repro.shard.collective.Collective` ledger.  It has no forward
pass of its own; it overrides two methods:

* ``_linear`` — under ``reduce="sum"`` the row-parallel projections
  (``o_proj``, ``down_proj``/``fc2``) contract per-rank contiguous
  K-slices and add the partial sums in rank order (Megatron-LM's
  split-K schedule with a pinned accumulation order: deterministic,
  token-identical, logits within a few ULP).  Every other projection,
  and every projection under the default ``reduce="gather"``, is the
  single-device GEMM — so gather-mode logits are byte-identical to
  single-device by construction.
* ``logits`` — runs the forward, then charges one pass of the mesh's
  collectives (:func:`repro.hw.multichip.pass_collectives`) to the
  ledger, the same list the multi-chip simulator prices.

The KV cache is the ordinary whole-model :class:`KVCache`.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.models.config import ModelConfig
from repro.models.layers import linear
from repro.models.transformer import CausalLM, KVCache
from repro.quant.kv import KVQuantConfig
from repro.shard.collective import Collective
from repro.shard.errors import ShardError
from repro.shard.mesh import _ROW_PARALLEL, DeviceMesh

__all__ = ["ShardedCausalLM", "check_kv_quant"]


def check_kv_quant(kv_quant: Optional[KVQuantConfig]) -> None:
    """Reject KV quantization that cannot shard exactly.

    Per-head scales commute with head partitioning (each head's
    min/max sees the same values on its owning shard as on a single
    device); a per-tensor scale couples all heads and would make a
    head-partitioned cache diverge from the single-device one.
    """
    if kv_quant is not None and not kv_quant.per_head:
        raise ShardError(
            "per-tensor KV quantization (per_head=False) does not commute "
            "with head-partitioned attention; use per_head=True or no "
            "KV quantization",
            kv_per_head=False,
        )


class ShardedCausalLM(CausalLM):
    """A :class:`CausalLM` served over a ``tp x pp`` mesh."""

    def __init__(
        self,
        config: ModelConfig,
        mesh: DeviceMesh,
        weights: Dict[str, np.ndarray],
        collective: Optional[Collective] = None,
        seed: int = 0,
    ):
        mesh.validate_model(config)
        super().__init__(config, seed=seed, weights=weights)
        self.mesh = mesh
        self.collective = collective if collective is not None else Collective(mesh)

    def _linear(self, x: np.ndarray, name: str) -> np.ndarray:
        tp = self.mesh.tp
        if (
            self.mesh.reduce != "sum"
            or tp == 1
            or name.rsplit(".", 1)[-1] not in _ROW_PARALLEL
        ):
            return super()._linear(x, name)
        w = self.weights[name]
        k = w.shape[1] // tp
        out = linear(x[..., :k], w[:, :k])
        for r in range(1, tp):  # rank order: the accumulation spec
            out += linear(x[..., r * k:(r + 1) * k], w[:, r * k:(r + 1) * k])
        return out

    def logits(
        self, tokens: np.ndarray, cache: Optional[KVCache] = None
    ) -> np.ndarray:
        out = super().logits(tokens, cache=cache)
        self.collective.charge_pass(self.config, out.shape[0] * out.shape[1])
        return out
