"""Sharded artifact sets on disk: per-shard blobs + topology header.

:func:`save_sharded_artifact` splits one packed
:class:`~repro.serve.artifact.ModelArtifact` over a
:class:`~repro.shard.mesh.DeviceMesh` and writes one ``.rpro``
container per device (the same binary format as single-device
artifacts — each shard is independently loadable and verifiable),
plus nothing else: the topology lives *inside* each container's
``shard`` header block, so a shard directory needs no side-car index.

Every shard of a set carries the same :func:`mesh_digest` — a content
address over the mesh shape and the source artifact's identity (model,
seed, quant policy, plan, tensor inventory).  :func:`load_sharded_artifact`
and :func:`merge_shards` refuse, with a structured
:class:`~repro.shard.errors.ShardTopologyError`, any set whose shards
disagree on that digest or whose index set is not exactly ``0..n-1`` —
a shard set mixing two packs, or missing a device, fails loudly rather
than serving a frankenstein model.

:func:`merge_shards` is the exact inverse of
:func:`~repro.shard.partition.shard_artifact`: it rebuilds the full
:class:`ModelArtifact`, every packed image byte for byte, so a shard
set serves through the ordinary
``InferenceEngine.from_artifact(merge_shards(shards), mesh=mesh)``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.models.zoo import get_model_config
from repro.pipeline.keys import stable_digest
from repro.serve.artifact import ModelArtifact, load_artifact, write_artifact
from repro.shard.errors import ShardTopologyError
from repro.shard.mesh import DeviceMesh, partition_specs
from repro.shard.partition import concat_packed, shard_artifact

__all__ = [
    "mesh_digest",
    "merge_shards",
    "save_sharded_artifact",
    "load_sharded_artifact",
    "shard_paths",
]

#: ``shard-03-of-08.rpro``
_SHARD_NAME = "shard-{index:02d}-of-{n:02d}.rpro"
_SHARD_GLOB = "shard-*-of-*.rpro"


def mesh_digest(artifact: ModelArtifact, mesh: DeviceMesh) -> str:
    """Content address binding a shard set to its source + mesh.

    Covers the mesh shape (tp/pp/topology), the model identity,
    the quantization policy (global config, KV config, per-layer plan),
    and the tensor inventory with shapes — everything that determines
    whether two shards could have come from the same
    :func:`~repro.shard.partition.shard_artifact` call.  Blob *content*
    is already guarded per-file by the container's sha256.
    """
    return stable_digest(
        {
            "mesh": mesh.to_dict(),
            "model": artifact.model_name,
            "seed": artifact.seed,
            "quant": artifact.quant_config.cache_key(),
            "kv_quant": (
                None
                if artifact.kv_quant is None
                else {
                    "bits": artifact.kv_quant.bits,
                    "per_head": artifact.kv_quant.per_head,
                }
            ),
            "plan": None if artifact.plan is None else artifact.plan.cache_key(),
            "packed": sorted(
                (name, list(p.shape)) for name, p in artifact.packed.items()
            ),
            "raw": sorted(
                (name, list(w.shape)) for name, w in artifact.raw_weights.items()
            ),
        }
    )


def shard_paths(directory: Union[str, Path], n: int) -> List[Path]:
    """The canonical shard filenames of an ``n``-device set."""
    d = Path(directory)
    return [d / _SHARD_NAME.format(index=i, n=n) for i in range(n)]


def save_sharded_artifact(
    directory: Union[str, Path], artifact: ModelArtifact, mesh: DeviceMesh
) -> List[Path]:
    """Split ``artifact`` over ``mesh`` and write one container per
    device into ``directory``; returns the paths in shard-index order."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    shards = shard_artifact(artifact, mesh)
    paths = shard_paths(d, len(shards))
    for sub, path in zip(shards, paths):
        write_artifact(path, sub)
    return paths


def _validate_shard_set(
    shards: Sequence[ModelArtifact],
) -> Tuple[List[ModelArtifact], DeviceMesh]:
    """Check that ``shards`` form one complete set; return them sorted
    by shard index (stage-major) with the set's mesh.

    Raises :class:`ShardTopologyError` when the set is empty, a member
    lacks its topology header, the mesh digests disagree, or the index
    set is incomplete/duplicated; :class:`~repro.shard.errors.ShardError`
    when the header's mesh has keys this version does not know.
    """
    if not shards:
        raise ShardTopologyError("empty shard set")
    for position, art in enumerate(shards):
        if art.shard_header is None:
            raise ShardTopologyError(
                f"shard set member {position} is a single-device artifact, "
                "not a shard (no shard header)",
                position=position,
            )
    headers = [art.shard_header for art in shards]
    digests = {h["mesh_digest"] for h in headers}
    if len(digests) != 1:
        raise ShardTopologyError(
            f"shards come from different packs/meshes: "
            f"{len(digests)} distinct mesh digests",
            digests=sorted(digests),
        )
    n = headers[0]["n_shards"]
    indices = sorted(h["shard_index"] for h in headers)
    if indices != list(range(n)):
        raise ShardTopologyError(
            f"incomplete shard set: have indices {indices}, need 0..{n - 1}",
            expected=n,
            have=indices,
            missing=sorted(set(range(n)) - set(indices)),
            duplicates=sorted({i for i in indices if indices.count(i) > 1}),
        )
    mesh = DeviceMesh.from_dict(headers[0]["mesh"])
    return sorted(shards, key=lambda art: art.shard_header["shard_index"]), mesh


def merge_shards(shards: Sequence[ModelArtifact]) -> ModelArtifact:
    """Rebuild the full artifact a shard set was split from.

    The exact packed-level inverse of
    :func:`~repro.shard.partition.shard_artifact`: split tensors
    concatenate their output-channel slices in rank order (element
    codes repacked, scale/selector/zero rows stacked), replicated
    tensors come from rank 0 of their stage.
    """
    shards, mesh = _validate_shard_set(shards)
    first = shards[0]
    specs = partition_specs(get_model_config(first.model_name), mesh)
    packed: Dict[str, list] = {}
    raw: Dict[str, list] = {}
    for art in shards:  # stage-major, rank-minor: slices in rank order
        for name, p in art.packed.items():
            packed.setdefault(name, []).append(p)
        for name, w in art.raw_weights.items():
            raw.setdefault(name, []).append(w)

    def split(name: str) -> bool:
        return mesh.tp > 1 and specs[name].kind == "split_out"

    return ModelArtifact(
        model_name=first.model_name,
        seed=first.seed,
        quant_config=first.quant_config,
        kv_quant=first.kv_quant,
        packed={
            name: concat_packed(ps) if split(name) else ps[0]
            for name, ps in packed.items()
        },
        raw_weights={
            name: np.concatenate(ws) if split(name) else ws[0]
            for name, ws in raw.items()
        },
        plan=first.plan,
    )


def load_sharded_artifact(
    directory: Union[str, Path], verify: bool = True
) -> Tuple[List[ModelArtifact], DeviceMesh]:
    """Load and validate a complete shard set from ``directory``.

    Returns ``(shards, mesh)`` with shards sorted by shard index
    (stage-major).  Raises :class:`ShardTopologyError` when the
    directory holds no shards, a shard lacks its topology header, the
    mesh digests disagree, or the index set is incomplete/duplicated.
    """
    d = Path(directory)
    files = sorted(d.glob(_SHARD_GLOB))
    if not files:
        raise ShardTopologyError(
            f"no shard containers ({_SHARD_GLOB}) in {d}", directory=str(d)
        )
    return _validate_shard_set([load_artifact(path, verify=verify) for path in files])
