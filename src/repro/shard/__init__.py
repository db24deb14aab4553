"""repro.shard — tensor/pipeline-parallel serving over a device mesh.

The sharding layer is a priced collective ledger over the one packed
artifact.  An explicit :class:`DeviceMesh` (``tp`` tensor-parallel
shards x ``pp`` pipeline stages) names the deployment;
:class:`ShardedCausalLM` is a
:class:`~repro.models.transformer.CausalLM` whose ``logits`` charge a
:class:`Collective` ledger once per forward pass.  A mesh serves the
artifact it was packed from through the ordinary engine,
``InferenceEngine.from_artifact(artifact, mesh=mesh)``, and since the
forward *is* the single-device one, logits and token streams are
**byte-identical** to it — prefix-cached, KV-quantized or not.

Interconnect cost is modeled, not wished away: the ledger charges the
collective list of :func:`repro.hw.multichip.pass_collectives`, the
same list :func:`repro.hw.simulator.simulate` and the :mod:`repro.dse`
mesh axis price.
"""

from repro.shard.collective import Collective, OpStats
from repro.shard.errors import ShardError
from repro.shard.mesh import DeviceMesh
from repro.shard.model import ShardedCausalLM

__all__ = [
    "Collective",
    "DeviceMesh",
    "OpStats",
    "ShardError",
    "ShardedCausalLM",
]
