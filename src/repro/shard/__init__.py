"""repro.shard — tensor/pipeline-parallel serving over a device mesh.

The sharding layer splits a packed model over an explicit
:class:`DeviceMesh` (``tp`` tensor-parallel shards x ``pp`` pipeline
stages) into per-device artifacts, and serves it through a
:class:`ShardedEngine` whose model is a :class:`ShardedCausalLM` — a
:class:`~repro.models.transformer.CausalLM` with one ``_linear``
override for the ``reduce="sum"`` split-K schedule and a
:class:`Collective` ledger charged once per forward pass.  Under the
default ``reduce="gather"`` mesh the forward *is* the single-device
one, so logits and token streams are **byte-identical**;
``reduce="sum"`` adds per-rank partial sums in fixed rank order
(deterministic, token-identical).

Interconnect cost is modeled, not wished away: the ledger charges the
collective list of :func:`repro.hw.multichip.pass_collectives`, the
same list the multi-chip simulator and the :mod:`repro.dse` mesh axis
price.
"""

from repro.shard.artifact import (
    load_sharded_artifact,
    mesh_digest,
    save_sharded_artifact,
    shard_paths,
)
from repro.shard.collective import Collective, OpStats
from repro.shard.engine import PREFIX_CACHE_UNSUPPORTED, ShardedEngine
from repro.shard.errors import ShardError, ShardTopologyError
from repro.shard.mesh import REDUCE_MODES, DeviceMesh, ShardSpec, partition_specs
from repro.shard.model import ShardedCausalLM, check_kv_quant
from repro.shard.partition import shard_artifact, slice_packed

__all__ = [
    "Collective",
    "DeviceMesh",
    "OpStats",
    "PREFIX_CACHE_UNSUPPORTED",
    "REDUCE_MODES",
    "ShardError",
    "ShardSpec",
    "ShardTopologyError",
    "ShardedCausalLM",
    "ShardedEngine",
    "check_kv_quant",
    "load_sharded_artifact",
    "mesh_digest",
    "partition_specs",
    "save_sharded_artifact",
    "shard_artifact",
    "shard_paths",
    "slice_packed",
]
