"""Versioned on-disk packed-model artifacts.

An artifact is the deployable form of a quantized model: every
decoder-block linear serialized as the bit-packed DRAM image of
:mod:`repro.quant.packing` (element codes, INT8 scaling-factor codes,
BitMoD special-value selectors, asymmetric zero points), the FP16
leftovers (embedding, norms, LM head) stored raw, and the policy
needed to reproduce the quantization (dtype, granularity, group size,
scale bits, KV-cache precision).

Quantization is described either by one global
:class:`~repro.quant.config.QuantConfig` or by a per-layer
:class:`~repro.policy.plan.QuantPlan` — a mixed-precision artifact
serializes each tensor at its own dtype/granularity and carries the
plan in the header, so heterogeneous deployments reload byte-exactly
just like uniform ones.

File layout (little-endian)::

    bytes 0..7    magic  b"RPROSRV\\x01"
    bytes 8..11   uint32 header length  (JSON, utf-8)
    header        JSON index: model/quant/kv metadata + per-tensor
                  blob directory {offset, nbytes, dtype, shape}
    blob section  raw bytes, offsets relative to section start

Loading is byte-exact: the ``PackedTensor`` objects coming back from
:func:`load_artifact` compare equal, field for field, with what
:func:`save_artifact` wrote, and :func:`ModelArtifact.instantiate`
rebuilds a :class:`~repro.models.transformer.CausalLM` whose weights
equal the quantized originals to the last bit.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.models.transformer import CausalLM
from repro.models.zoo import get_model_config
from repro.pipeline.keys import array_digest, stable_digest
from repro.pipeline.store import CacheStore
from repro.policy.plan import QuantPlan
from repro.quant.config import QuantConfig
from repro.quant.kv import KVQuantConfig
from repro.quant.packing import PackedTensor, pack_tensor, unpack_tensor

__all__ = [
    "ARTIFACT_VERSION",
    "ArtifactIntegrityError",
    "ModelArtifact",
    "pack_model",
    "pack_tensor_cached",
    "save_artifact",
    "load_artifact",
]


class ArtifactIntegrityError(ValueError):
    """The artifact container on disk is damaged: truncated blob
    section or a blob digest that no longer matches its header."""

#: Store namespace for cached packed-tensor images.
PACKED_KIND = "packed"

#: Bump when the PackedTensor wire format changes incompatibly.
#: v2: ``group_size`` records the effective scale-row length (channel
#: length at channel granularity), not the config's nominal group size.
PACKED_SCHEMA_VERSION = 2

ARTIFACT_MAGIC = b"RPROSRV\x01"
ARTIFACT_VERSION = 1


@dataclass
class ModelArtifact:
    """A packed model plus everything needed to serve it."""

    model_name: str
    seed: int
    quant_config: QuantConfig
    kv_quant: Optional[KVQuantConfig]
    packed: Dict[str, PackedTensor] = field(default_factory=dict)
    raw_weights: Dict[str, np.ndarray] = field(default_factory=dict)
    #: Per-layer mixed-precision plan, when the artifact was packed
    #: from one (``None`` = uniform ``quant_config`` artifact).
    plan: Optional[QuantPlan] = None

    @property
    def packed_bytes(self) -> int:
        """Bit-packed weight payload (the DRAM-resident image)."""
        return sum(p.total_bytes for p in self.packed.values())

    @property
    def mean_bits_per_weight(self) -> float:
        """Element-weighted average packed precision of the linears."""
        elements = sum(int(np.prod(p.shape)) for p in self.packed.values())
        bits = sum(p.total_bytes * 8 for p in self.packed.values())
        return bits / elements if elements else 16.0

    def tensor_config(self, name: str) -> QuantConfig:
        """The :class:`QuantConfig` that unpacks tensor ``name``.

        Mixed-precision artifacts resolve the layer's own plan entry
        (granularity/scale bits/clipping may differ per layer); the
        packed image's dtype name and group size stay authoritative
        either way.
        """
        p = self.packed[name]
        base = self.quant_config
        if self.plan is not None:
            planned = self.plan.config_for(name)
            if planned is not None:
                base = planned
        return base.with_(dtype=p.dtype_name, group_size=p.group_size)

    def instantiate(self) -> CausalLM:
        """Rebuild the quantized :class:`CausalLM` from the artifact.

        Read-only raw arrays (the ones :func:`load_artifact` creates)
        are shared with the model, so every engine built from one
        loaded artifact holds one copy of the embedding, norms and LM
        head.  Writable ones — an artifact :func:`save_artifact` built
        from a live model's arrays — are copied.
        """
        weights = {
            k: v.copy() if v.flags.writeable else v for k, v in self.raw_weights.items()
        }
        for name, p in self.packed.items():
            weights[name] = unpack_tensor(p, self.tensor_config(name))
        return CausalLM(get_model_config(self.model_name), seed=self.seed, weights=weights)


# ----------------------------------------------------------------------
# Content-addressed packed-tensor cache.
# ----------------------------------------------------------------------


def _packed_cache_key(w: np.ndarray, quant_config: QuantConfig) -> str:
    """Content address of the packed image of (``w``, ``quant_config``)."""
    return stable_digest(
        {
            "v": PACKED_SCHEMA_VERSION,
            "weight": array_digest(w),
            "shape": list(w.shape),
            "quant": quant_config.cache_key(),
        }
    )


def _packed_to_arrays(p: PackedTensor) -> Dict[str, np.ndarray]:
    """Flatten a :class:`PackedTensor` into a store-able array bundle."""
    arrays = {
        "element_data": np.frombuffer(p.element_data, dtype=np.uint8),
        "sf_codes": np.asarray(p.sf_codes, dtype=np.uint8),
        "channel_scales": np.asarray(p.channel_scales, dtype=np.float64),
        "meta": np.array(
            json.dumps(
                {
                    "dtype_name": p.dtype_name,
                    "bits": p.bits,
                    "shape": list(p.shape),
                    "group_size": p.group_size,
                    "groups_per_channel": p.groups_per_channel,
                }
            ).encode("utf-8")
        ),
    }
    if p.sv_selectors is not None:
        arrays["sv_selectors"] = np.asarray(p.sv_selectors, dtype=np.uint8)
    if p.zeros is not None:
        arrays["zeros"] = np.asarray(p.zeros, dtype=np.int64)
    return arrays


def _arrays_to_packed(arrays: Dict[str, np.ndarray]) -> PackedTensor:
    """Rebuild a byte-identical :class:`PackedTensor` from a bundle."""
    meta = json.loads(bytes(arrays["meta"].tobytes()).decode("utf-8"))
    return PackedTensor(
        dtype_name=meta["dtype_name"],
        bits=meta["bits"],
        shape=tuple(meta["shape"]),
        group_size=meta["group_size"],
        element_data=arrays["element_data"].tobytes(),
        sf_codes=arrays["sf_codes"],
        channel_scales=arrays["channel_scales"],
        sv_selectors=arrays.get("sv_selectors"),
        zeros=arrays.get("zeros"),
        groups_per_channel=meta["groups_per_channel"],
    )


def pack_tensor_cached(
    w: np.ndarray, quant_config: QuantConfig, store: Optional[CacheStore] = None
) -> PackedTensor:
    """:func:`~repro.quant.packing.pack_tensor` through the pipeline
    cache: keyed by weight content + quant key, byte-identical on
    reload, quantized at most once per content address."""
    if store is None or not store.enabled:
        return pack_tensor(w, quant_config)
    key = _packed_cache_key(w, quant_config)
    cached = store.get_arrays(PACKED_KIND, key)
    if cached is not None:
        try:
            return _arrays_to_packed(cached)
        except (KeyError, ValueError):
            pass  # corrupt/stale entry: fall through and rewrite
    packed = pack_tensor(w, quant_config)
    store.put_arrays(PACKED_KIND, key, _packed_to_arrays(packed))
    return packed


def pack_model(
    model: CausalLM,
    quant: Union[QuantConfig, QuantPlan],
    store: Optional[CacheStore] = None,
) -> Tuple[Dict[str, PackedTensor], Dict[str, np.ndarray]]:
    """Quantize + bit-pack every block linear of ``model``.

    ``quant`` is one global :class:`QuantConfig` or a per-layer
    :class:`~repro.policy.plan.QuantPlan` — plan layers pack at their
    own config, and layers the plan leaves out stay with the raw FP16
    weights.  Returns ``(packed, raw)``: the packed linears and the
    FP16 weights that stay unquantized (embedding, norms, LM head,
    unplanned linears).  With a ``store``, each tensor's packed image
    is served from the content-addressed cache when its (weight bytes,
    quant key) address has been packed before — rebuilding an artifact
    for an already-quantized model touches no quantizer at all.
    """
    linears = model.named_linears()
    packed: Dict[str, PackedTensor] = {}
    for name, w in linears.items():
        config = quant.config_for(name) if isinstance(quant, QuantPlan) else quant
        if config is None:
            continue
        packed[name] = pack_tensor_cached(w, config, store)
    raw = {k: v for k, v in model.weights.items() if k not in packed}
    return packed, raw


def save_artifact(
    path: Union[str, Path],
    model: CausalLM,
    quant_config: Union[QuantConfig, QuantPlan],
    kv_quant: Optional[KVQuantConfig] = None,
    store: Optional[CacheStore] = None,
) -> ModelArtifact:
    """Quantize ``model`` and write the packed artifact to ``path``.

    ``quant_config`` is a global :class:`QuantConfig` or a per-layer
    :class:`~repro.policy.plan.QuantPlan`.  Quantization dtypes must
    be registry names (artifacts store names, not instances) so the
    artifact is loadable anywhere; plans are normalized via
    ``resolve_names()``.  ``store`` routes the per-tensor quantization
    through the pipeline's content-addressed cache (see
    :func:`pack_model`).
    """
    plan = None
    if isinstance(quant_config, QuantPlan):
        plan = quant_config.resolve_names()
        if len(plan) == 0:
            raise ValueError("cannot pack an artifact from an empty plan")
        # The header's global quant block falls back to the first
        # layer's config; every packed tensor resolves through the
        # plan, so the fallback only labels the artifact.
        quant_config = plan.layers[0][1]
        quant = plan
    else:
        if not isinstance(quant_config.dtype, str):
            quant_config = quant_config.with_(dtype=quant_config.resolve_dtype().name)
        quant = quant_config
    packed, raw = pack_model(model, quant, store)
    artifact = ModelArtifact(
        model_name=model.config.name,
        seed=model.seed,
        quant_config=quant_config,
        kv_quant=kv_quant,
        packed=packed,
        raw_weights=raw,
        plan=plan,
    )
    write_artifact(path, artifact)
    return artifact


# ----------------------------------------------------------------------
# Binary container.
# ----------------------------------------------------------------------


class _BlobWriter:
    """Accumulates blobs and hands out directory entries."""

    def __init__(self) -> None:
        self.parts: list = []
        self.cursor = 0

    def add_bytes(self, data: bytes) -> dict:
        entry = {"offset": self.cursor, "nbytes": len(data)}
        self.parts.append(data)
        self.cursor += len(data)
        return entry

    def add_array(self, arr: np.ndarray) -> dict:
        # Force little-endian on disk so artifacts are portable; the
        # dtype string in the directory carries the byte order.
        le = np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<"), copy=False)
        entry = self.add_bytes(le.tobytes())
        entry["dtype"] = le.dtype.str
        entry["shape"] = list(arr.shape)
        return entry


def _read_blob(f, base: int, entry: dict, hasher):
    """Read the blob ``entry`` locates from ``f``, positioned at it
    (``base`` is the file offset of the blob section), straight into
    the buffer it is served from: ``bytes`` for an entry without a
    dtype, else an array in native byte order."""
    nbytes = entry["nbytes"]
    if f.tell() - base != entry["offset"]:
        raise ArtifactIntegrityError(
            f"{f.name}: blob directory is not contiguous at offset {entry['offset']}"
        )
    if "dtype" in entry:
        dtype = np.dtype(entry["dtype"])
        out = np.empty(entry["shape"], dtype=dtype)
        got = f.readinto(out.reshape(-1).view(np.uint8)) if out.nbytes == nbytes else -1
    else:
        out = f.read(nbytes)
        got = len(out)
    if got != nbytes:
        raise ArtifactIntegrityError(
            f"{f.name}: blob at offset {entry['offset']} holds {got} of {nbytes} bytes"
        )
    if hasher is not None:
        hasher.update(out)
    return out if "dtype" not in entry else out.astype(dtype.newbyteorder("="), copy=False)


def write_artifact(path: Union[str, Path], artifact: ModelArtifact) -> None:
    """Serialize ``artifact`` into the binary container at ``path``."""
    writer = _BlobWriter()
    tensors = []
    for name, p in artifact.packed.items():
        blobs = {
            "element_data": writer.add_bytes(p.element_data),
            "sf_codes": writer.add_array(np.asarray(p.sf_codes, dtype=np.uint8)),
            "channel_scales": writer.add_array(
                np.asarray(p.channel_scales, dtype=np.float64)
            ),
        }
        if p.sv_selectors is not None:
            blobs["sv_selectors"] = writer.add_array(
                np.asarray(p.sv_selectors, dtype=np.uint8)
            )
        if p.zeros is not None:
            blobs["zeros"] = writer.add_array(np.asarray(p.zeros, dtype=np.int64))
        tensors.append(
            {
                "name": name,
                "kind": "packed",
                "dtype_name": p.dtype_name,
                "bits": p.bits,
                "shape": list(p.shape),
                "group_size": p.group_size,
                "groups_per_channel": p.groups_per_channel,
                "blobs": blobs,
            }
        )
    for name, w in artifact.raw_weights.items():
        tensors.append(
            {
                "name": name,
                "kind": "raw",
                "blobs": {"data": writer.add_array(np.asarray(w, dtype=np.float64))},
            }
        )

    qc = artifact.quant_config
    header = {
        "format_version": ARTIFACT_VERSION,
        "model": {"name": artifact.model_name, "seed": artifact.seed},
        "quant": {
            "dtype": qc.dtype,
            "granularity": qc.granularity,
            "group_size": qc.group_size,
            "scale_bits": qc.scale_bits,
            "clip_ratio": qc.clip_ratio,
        },
        "kv_quant": asdict(artifact.kv_quant) if artifact.kv_quant else None,
        "tensors": tensors,
    }
    if artifact.plan is not None:
        header["plan"] = artifact.plan.to_dict()
    # Integrity envelope: total blob-section size catches truncation,
    # the sha256 catches bit rot.  Optional fields — containers written
    # before they existed load fine — so ARTIFACT_VERSION stays 1.
    blob_section = b"".join(writer.parts)
    header["blob_nbytes"] = len(blob_section)
    header["blob_sha256"] = hashlib.sha256(blob_section).hexdigest()
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")

    from repro.resilience.atomic import atomic_write_bytes

    atomic_write_bytes(
        Path(path),
        ARTIFACT_MAGIC
        + struct.pack("<I", len(header_bytes))
        + header_bytes
        + blob_section,
    )


def load_artifact(path: Union[str, Path], verify: bool = True) -> ModelArtifact:
    """Read an artifact container back into a :class:`ModelArtifact`.

    With ``verify`` (the default) the blob section is checked against
    the size and sha256 the writer recorded in the header; a truncated
    or bit-rotted file raises :class:`ArtifactIntegrityError` at load
    time instead of serving garbage weights.  Containers written
    before the checksum fields existed skip verification.  The raw
    arrays (embedding, norms, LM head) come back read-only, so the
    models :meth:`ModelArtifact.instantiate` builds can share them.
    """
    with open(path, "rb") as f:
        if f.read(len(ARTIFACT_MAGIC)) != ARTIFACT_MAGIC:
            raise ValueError(f"{path}: not a repro.serve artifact (bad magic)")
        try:
            header_len = struct.unpack("<I", f.read(4))[0]
            header = json.loads(f.read(header_len).decode("utf-8"))
        except (struct.error, UnicodeDecodeError, ValueError) as e:
            raise ArtifactIntegrityError(f"{path}: unreadable header: {e}") from e
        if header["format_version"] != ARTIFACT_VERSION:
            raise ValueError(
                f"{path}: artifact format v{header['format_version']} "
                f"unsupported (reader is v{ARTIFACT_VERSION})"
            )
        if "shard" in header:
            raise ValueError(
                f"{path}: container holds one device's slice of a model (its "
                "header has a shard block); a mesh serves the full artifact"
            )
        base = f.tell()
        size = os.fstat(f.fileno()).st_size - base
        verify = verify and "blob_nbytes" in header
        if verify and size != header["blob_nbytes"]:
            raise ArtifactIntegrityError(
                f"{path}: blob section is {size} bytes, header "
                f"promises {header['blob_nbytes']} (truncated?)"
            )
        # Blobs are read in directory order (the writer's offset
        # order), each once, with the sha256 fed on the way.
        hasher = hashlib.sha256() if verify else None
        packed: Dict[str, PackedTensor] = {}
        raw: Dict[str, np.ndarray] = {}
        for t in header["tensors"]:
            blobs = {
                key: _read_blob(f, base, entry, hasher)
                for key, entry in t["blobs"].items()
            }
            if t["kind"] == "raw":
                arr = blobs["data"]
                arr.flags.writeable = False
                raw[t["name"]] = arr
                continue
            if "groups_per_channel" not in t:
                raise ValueError(
                    f"{path}: packed tensor {t['name']!r} has no "
                    f"groups_per_channel in its header"
                )
            packed[t["name"]] = PackedTensor(
                dtype_name=t["dtype_name"],
                bits=t["bits"],
                shape=tuple(t["shape"]),
                group_size=t["group_size"],
                element_data=blobs["element_data"],
                sf_codes=blobs["sf_codes"],
                channel_scales=blobs["channel_scales"],
                sv_selectors=blobs.get("sv_selectors"),
                zeros=blobs.get("zeros"),
                groups_per_channel=t["groups_per_channel"],
            )
    if verify:
        digest = hasher.hexdigest()
        if digest != header["blob_sha256"]:
            raise ArtifactIntegrityError(
                f"{path}: blob sha256 mismatch "
                f"({digest[:16]}… != {header['blob_sha256'][:16]}…)"
            )

    q = header["quant"]
    kv = header["kv_quant"]
    return ModelArtifact(
        model_name=header["model"]["name"],
        seed=header["model"]["seed"],
        quant_config=QuantConfig(
            dtype=q["dtype"],
            granularity=q["granularity"],
            group_size=q["group_size"],
            scale_bits=q["scale_bits"],
            clip_ratio=q["clip_ratio"],
        ),
        # Older headers also carry a per-head/per-tensor flag: KV
        # quantization is a runtime policy with one rule, so only the
        # bits are read.
        kv_quant=None if kv is None else KVQuantConfig(bits=kv["bits"]),
        packed=packed,
        raw_weights=raw,
        # Uniform artifacts (and containers written before plans
        # existed) simply carry no plan block.
        plan=None if "plan" not in header else QuantPlan.from_dict(header["plan"]),
    )
