"""Exact partitioning of packed artifacts over a mesh.

:func:`slice_packed` slices the *bit-packed DRAM image* itself, so
:func:`shard_artifact` can emit per-shard sub-artifacts whose blobs
round-trip through :mod:`repro.serve.artifact` and dequantize to
exactly the values of the matching slice of the full tensor;
:func:`concat_packed` is its inverse, which
:func:`~repro.shard.artifact.merge_shards` uses to rebuild the full
artifact from a shard set byte for byte.

Slicing a :class:`~repro.quant.packing.PackedTensor` by output
channels is exact because dequantization is elementwise with per-row
scales: a row slice takes whole scale rows and whole groups.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.models.config import ModelConfig
from repro.quant.packing import PackedTensor, pack_bits, unpack_bits
from repro.shard.errors import ShardError
from repro.shard.mesh import DeviceMesh, ShardSpec, partition_specs

__all__ = ["concat_packed", "slice_packed", "shard_artifact"]


def _rows(p: PackedTensor):
    """Per-row views of ``p``: (codes, sf, channel_scales, sv, zeros)."""
    k = p.shape[0]
    codes = unpack_bits(p.element_data, p.bits, p.n_codes).reshape(k, -1)

    def rows(a):
        return None if a is None else a.reshape(k, -1)

    return (
        codes,
        rows(p.sf_codes),
        rows(p.channel_scales),
        rows(p.sv_selectors),
        rows(p.zeros),
    )


def _rebuild(
    p: PackedTensor, n_rows: int, codes, sf, channel_scales, sv, zeros
) -> PackedTensor:
    def flat(a):
        return None if a is None else np.ascontiguousarray(a.reshape(-1))

    return PackedTensor(
        dtype_name=p.dtype_name,
        bits=p.bits,
        shape=(n_rows, p.shape[1]),
        group_size=p.group_size,
        element_data=pack_bits(codes.reshape(-1), p.bits),
        sf_codes=flat(sf),
        channel_scales=flat(channel_scales),
        sv_selectors=flat(sv),
        zeros=flat(zeros),
        groups_per_channel=p.groups_per_channel,
    )


def slice_packed(p: PackedTensor, start: int, stop: int) -> PackedTensor:
    """Output channels ``[start:stop)`` of ``p`` as an exact sub-image:
    ``unpack(slice_packed(p, a, b)) == unpack(p)[a:b]``."""
    k = p.shape[0]
    if not (0 <= start < stop <= k):
        raise ShardError(
            f"slice [{start}:{stop}) outside dimension of size {k}",
            start=start,
            stop=stop,
            size=k,
        )
    sel = slice(start, stop)
    return _rebuild(
        p, stop - start, *(None if a is None else a[sel] for a in _rows(p))
    )


def concat_packed(parts: Sequence[PackedTensor]) -> PackedTensor:
    """Stack row slices back into one image — the inverse of
    :func:`slice_packed` over a partition of the output channels."""
    per_part = [_rows(p) for p in parts]
    fields = [
        None if arrays[0] is None else np.concatenate(arrays)
        for arrays in zip(*per_part)
    ]
    return _rebuild(parts[0], sum(p.shape[0] for p in parts), *fields)


def _slice_array(
    w: np.ndarray, spec: ShardSpec, rank: int, tp: int
) -> np.ndarray:
    if spec.kind == "replicate" or tp == 1:
        return w
    if w.ndim == 1:
        # 1-D tensors (norm gains) only ever replicate; a split spec
        # on one is a partitioning bug, not a slice.
        raise ShardError(f"cannot split a 1-D tensor with spec {spec.kind}")
    a, b = spec.slice_bounds(w.shape[0], rank, tp)
    return np.ascontiguousarray(w[a:b])


def _owning_stage(name: str, mesh: DeviceMesh, cfg: ModelConfig) -> tuple:
    """Pipeline stages that hold tensor ``name``."""
    if name == "embed":
        return (0,)
    if name in ("final_norm", "lm_head"):
        return (mesh.pp - 1,)
    if name.startswith("layers."):
        layer = int(name.split(".")[1])
        return (mesh.stage_of(layer, cfg.sim_layers),)
    raise ShardError(f"no sharding spec for tensor {name!r}", tensor=name)


def shard_artifact(artifact, mesh: DeviceMesh) -> List:
    """Split a packed :class:`~repro.serve.artifact.ModelArtifact` into
    one sub-artifact per device, shard-header attached.

    Packed tensors are sliced at the bit-packed level
    (:func:`slice_packed`), raw FP tensors as arrays; each sub-artifact
    carries the full quant config / plan / KV metadata plus a
    ``shard_header`` naming the mesh, this shard's coordinates, and
    the :func:`~repro.shard.artifact.mesh_digest` of the whole set.
    Device order is stage-major: ``index = stage * tp + tp_rank``.
    """
    from repro.models.zoo import get_model_config
    from repro.serve.artifact import ModelArtifact
    from repro.shard.artifact import mesh_digest

    cfg = get_model_config(artifact.model_name)
    specs = partition_specs(cfg, mesh)
    ranges = mesh.layer_ranges(cfg.sim_layers)
    digest = mesh_digest(artifact, mesh)
    shards: List[ModelArtifact] = []
    for stage, (lo, hi) in enumerate(ranges):
        for rank in range(mesh.tp):
            packed = {}
            raw = {}
            for name, p in artifact.packed.items():
                if stage not in _owning_stage(name, mesh, cfg):
                    continue
                layer = int(name.split(".")[1]) if name.startswith("layers.") else None
                if layer is not None and not (lo <= layer < hi):
                    continue
                spec = specs[name]
                if spec.kind == "replicate" or mesh.tp == 1:
                    packed[name] = p
                else:
                    a, b = spec.slice_bounds(p.shape[0], rank, mesh.tp)
                    packed[name] = slice_packed(p, a, b)
            for name, w in artifact.raw_weights.items():
                if stage not in _owning_stage(name, mesh, cfg):
                    continue
                layer = int(name.split(".")[1]) if name.startswith("layers.") else None
                if layer is not None and not (lo <= layer < hi):
                    continue
                raw[name] = _slice_array(w, specs[name], rank, mesh.tp)
            shards.append(
                ModelArtifact(
                    model_name=artifact.model_name,
                    seed=artifact.seed,
                    quant_config=artifact.quant_config,
                    kv_quant=artifact.kv_quant,
                    packed=packed,
                    raw_weights=raw,
                    plan=artifact.plan,
                    shard_header={
                        "mesh": mesh.to_dict(),
                        "shard_index": stage * mesh.tp + rank,
                        "n_shards": mesh.n_devices,
                        "stage": stage,
                        "tp_rank": rank,
                        "layers": [lo, hi],
                        "mesh_digest": digest,
                    },
                )
            )
    return shards
