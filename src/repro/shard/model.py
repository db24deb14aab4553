"""Tensor/pipeline-parallel causal LM over a device mesh.

:class:`ShardedCausalLM` *is* a :class:`~repro.models.transformer.CausalLM`
holding the full weights, a :class:`~repro.shard.mesh.DeviceMesh` and a
:class:`~repro.shard.collective.Collective` ledger.  It has no forward
pass of its own — every projection is the single-device GEMM, so its
logits are byte-identical to single-device by construction.  It
overrides one method:

* ``logits`` — runs the forward, then charges one pass of the mesh's
  collectives (:func:`repro.hw.multichip.pass_collectives`) to the
  ledger, the same list :func:`repro.hw.simulator.simulate` prices
  on a mesh, for every token position the pass ran (a cached prefill
  returns one logits row but runs all its positions).  A batched
  decode step is one pass over its B token positions, so it charges
  the payload of B solo steps in 1/B of the calls.

The KV cache is the ordinary whole-model :class:`KVCache`, so prompt
prefix snapshots (:mod:`repro.serve.prefix`) adopt unchanged; a
deployed rank would cache its own head slice under the same token key.
"""

from __future__ import annotations

from typing import Dict, Union

import numpy as np

from repro.models.config import ModelConfig
from repro.models.transformer import CausalLM, KVBatch, KVCache
from repro.shard.collective import Collective
from repro.shard.mesh import DeviceMesh

__all__ = ["ShardedCausalLM"]


class ShardedCausalLM(CausalLM):
    """A :class:`CausalLM` served over a ``tp x pp`` mesh."""

    def __init__(
        self,
        config: ModelConfig,
        mesh: DeviceMesh,
        weights: Dict[str, np.ndarray],
        seed: int = 0,
    ):
        mesh.validate_model(config)
        super().__init__(config, seed=seed, weights=weights)
        self.mesh = mesh
        self.collective = Collective(mesh)

    def logits(
        self, tokens: np.ndarray, cache: Union[KVCache, KVBatch, None] = None
    ) -> np.ndarray:
        out = super().logits(tokens, cache=cache)
        self.collective.charge_pass(self.config, np.asarray(tokens).size)
        return out
