"""repro.shard — tensor/pipeline-parallel serving over a device mesh.

The sharding layer is a partition of the weights plus a priced
collective ledger.  An explicit :class:`DeviceMesh` (``tp``
tensor-parallel shards x ``pp`` pipeline stages) names the split;
:func:`shard_artifact` / :func:`merge_shards` cut a packed artifact
into per-device sub-artifacts and put it back together byte for byte;
:class:`ShardedCausalLM` is a
:class:`~repro.models.transformer.CausalLM` whose ``logits`` charge a
:class:`Collective` ledger once per forward pass.  A mesh serves
through the ordinary engine,
``InferenceEngine.from_artifact(artifact, mesh=mesh)``, and since the
forward *is* the single-device one, logits and token streams are
**byte-identical** to it — prefix-cached or not.

Interconnect cost is modeled, not wished away: the ledger charges the
collective list of :func:`repro.hw.multichip.pass_collectives`, the
same list :func:`repro.hw.simulator.simulate` and the :mod:`repro.dse`
mesh axis price.
"""

from repro.shard.artifact import (
    load_sharded_artifact,
    merge_shards,
    mesh_digest,
    save_sharded_artifact,
    shard_paths,
)
from repro.shard.collective import Collective, OpStats
from repro.shard.errors import ShardError, ShardTopologyError
from repro.shard.mesh import DeviceMesh, ShardSpec, partition_specs
from repro.shard.model import ShardedCausalLM, check_kv_quant
from repro.shard.partition import shard_artifact, slice_packed

__all__ = [
    "Collective",
    "DeviceMesh",
    "OpStats",
    "ShardError",
    "ShardSpec",
    "ShardTopologyError",
    "ShardedCausalLM",
    "check_kv_quant",
    "load_sharded_artifact",
    "merge_shards",
    "mesh_digest",
    "partition_specs",
    "save_sharded_artifact",
    "shard_artifact",
    "shard_paths",
    "slice_packed",
]
