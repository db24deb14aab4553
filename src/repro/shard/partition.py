"""Exact partitioning of packed artifacts over a mesh.

:func:`slice_packed` slices the *bit-packed DRAM image* itself, so
:func:`shard_artifact` can emit per-shard sub-artifacts whose blobs
round-trip through :mod:`repro.serve.artifact` and dequantize to
exactly the values of the matching slice of the full tensor —
:meth:`~repro.shard.engine.ShardedEngine.from_shard_set` reassembles
the full weights from them bit for bit.

Slicing a :class:`~repro.quant.packing.PackedTensor` is exact because
dequantization is elementwise with per-row scales: an output-channel
slice takes whole scale rows, and an input-column slice either takes
whole groups or — when the slice is narrower than a group but divides
it — *subdivides* every group, repeating its scale/selector/zero per
sub-group (each element keeps the identical code and scale, so the
dequantized values cannot change).  Slices that straddle group
boundaries unevenly raise :class:`~repro.shard.errors.ShardError`.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.models.config import ModelConfig
from repro.quant.packing import PackedTensor, pack_bits, unpack_bits
from repro.shard.errors import ShardError
from repro.shard.mesh import DeviceMesh, ShardSpec, partition_specs

__all__ = ["slice_packed", "shard_artifact"]


def _group_arrays(p: PackedTensor):
    """(codes, sf, sv, zeros, per_group_scales) as per-row views."""
    k, d = p.shape
    g = p.group_size
    if d % g:
        raise ShardError(
            f"packed tensor {p.shape} has ragged groups "
            f"(group_size={g}); cannot slice exactly",
            shape=list(p.shape),
            group_size=g,
        )
    gpc = p.groups_per_channel or (d // g)
    n_rows = k * gpc
    codes = unpack_bits(p.element_data, p.bits, n_rows * g).reshape(n_rows, g)
    return codes, gpc


def _rebuild(
    p: PackedTensor,
    codes: np.ndarray,
    shape: tuple,
    group_size: int,
    gpc: int,
    sf_codes: np.ndarray,
    channel_scales: np.ndarray,
    sv_selectors: Optional[np.ndarray],
    zeros: Optional[np.ndarray],
) -> PackedTensor:
    return PackedTensor(
        dtype_name=p.dtype_name,
        bits=p.bits,
        shape=shape,
        group_size=group_size,
        element_data=pack_bits(codes.reshape(-1), p.bits),
        sf_codes=np.ascontiguousarray(sf_codes.reshape(-1)),
        channel_scales=np.ascontiguousarray(channel_scales.reshape(-1)),
        sv_selectors=(
            None
            if sv_selectors is None
            else np.ascontiguousarray(sv_selectors.reshape(-1))
        ),
        zeros=None if zeros is None else np.ascontiguousarray(zeros.reshape(-1)),
        groups_per_channel=gpc,
    )


def slice_packed(p: PackedTensor, dim: int, start: int, stop: int) -> PackedTensor:
    """An exact sub-image of ``p``: ``unpack(slice) == unpack(p)[slice]``.

    ``dim=0`` slices output channels ``[start:stop)`` (whole scale
    rows); ``dim=1`` slices input columns — whole groups when aligned,
    otherwise each group is subdivided into ``group_size // width``
    sub-groups with repeated metadata (exact, since scales apply
    elementwise).
    """
    if dim not in (0, 1):
        raise ShardError(f"packed tensors are 2-D; cannot slice dim {dim}")
    k, d = p.shape
    size = (k, d)[dim]
    if not (0 <= start < stop <= size):
        raise ShardError(
            f"slice [{start}:{stop}) outside dimension of size {size}",
            start=start,
            stop=stop,
            size=size,
        )
    codes, gpc = _group_arrays(p)
    g = p.group_size
    # Asymmetric-integer images store one FP scale per *group* in
    # channel_scales; everything else stores one per channel.
    per_group_scales = p.zeros is not None
    sf = p.sf_codes.reshape(k, gpc)
    sv = None if p.sv_selectors is None else p.sv_selectors.reshape(k, gpc)
    zr = None if p.zeros is None else p.zeros.reshape(k, gpc)
    cs = (
        p.channel_scales.reshape(k, gpc)
        if per_group_scales
        else p.channel_scales.reshape(k)
    )
    codes = codes.reshape(k, gpc, g)

    if dim == 0:
        sel = slice(start, stop)
        return _rebuild(
            p,
            codes[sel],
            (stop - start, d),
            g,
            gpc,
            sf[sel],
            cs[sel],
            None if sv is None else sv[sel],
            None if zr is None else zr[sel],
        )

    width = stop - start
    if start % g == 0 and stop % g == 0:
        ga, gb = start // g, stop // g
        return _rebuild(
            p,
            codes[:, ga:gb],
            (k, width),
            g,
            gb - ga,
            sf[:, ga:gb],
            cs[:, ga:gb] if per_group_scales else cs,
            None if sv is None else sv[:, ga:gb],
            None if zr is None else zr[:, ga:gb],
        )
    if g % width == 0 and start % width == 0:
        # Subdivide every group into sub-groups of the slice width,
        # repeating its metadata — elementwise-identical dequant —
        # then take the now-aligned sub-group range.
        sub = g // width
        codes = codes.reshape(k, gpc * sub, width)
        sf = np.repeat(sf, sub, axis=1)
        sv = None if sv is None else np.repeat(sv, sub, axis=1)
        zr = None if zr is None else np.repeat(zr, sub, axis=1)
        ga, gb = start // width, stop // width
        return _rebuild(
            p,
            codes[:, ga:gb],
            (k, width),
            width,
            gb - ga,
            sf[:, ga:gb],
            np.repeat(cs, sub, axis=1)[:, ga:gb] if per_group_scales else cs,
            None if sv is None else sv[:, ga:gb],
            None if zr is None else zr[:, ga:gb],
        )
    raise ShardError(
        f"slice [{start}:{stop}) is not group-alignable "
        f"(group_size={g}): neither group-aligned nor an even "
        "subdivision of a group",
        start=start,
        stop=stop,
        group_size=g,
    )


def _slice_array(
    w: np.ndarray, spec: ShardSpec, rank: int, tp: int
) -> np.ndarray:
    if spec.kind == "replicate" or tp == 1:
        return w
    if w.ndim == 1:
        # 1-D tensors (norm gains) only ever replicate; a split spec
        # on one is a partitioning bug, not a slice.
        raise ShardError(f"cannot split a 1-D tensor with spec {spec.kind}")
    dim = 0 if spec.kind == "split_out" else 1
    a, b = spec.slice_bounds(w.shape[dim], rank, tp)
    return np.ascontiguousarray(w[a:b] if dim == 0 else w[:, a:b])


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
                    dim = 0 if spec.kind == "split_out" else 1
                    a, b = spec.slice_bounds(p.shape[dim], rank, mesh.tp)
                    packed[name] = slice_packed(p, dim, a, b)
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
