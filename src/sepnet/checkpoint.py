"""Binary checkpoint container.

Layout (all integers little-endian):

    magic "SNNC" | version u16 | meta_len u32 | metadata JSON (utf-8)
    | blob_count u32 | blobs

    blob: name_len u16 | name utf-8 | ndim u8 | dims u32 * ndim
          | crc32 u32 | payload_len u32 | payload (f32 little-endian)

Metadata JSON is written with sorted keys and blobs in insertion order, so
saving the same content always produces byte-identical files. Loading
verifies the magic, rejects newer format versions, and checks each blob's
CRC32. Every malformed file ends in a ``SepnetError``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import struct
import zlib

import numpy as np

from .errors import ChecksumError, ConfigError, SepnetError

MAGIC = b"SNNC"
VERSION = 1

_HEAD = struct.Struct("<4sHI")
_BLOB_NAME = struct.Struct("<H")
_BLOB_DIMS = struct.Struct("<B")
_BLOB_TAIL = struct.Struct("<II")


def params_digest(named) -> str:
    """sha256 over the names and bytes of (name, array) pairs, in order."""
    h = hashlib.sha256()
    for name, arr in named:
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def save_checkpoint(path, blobs: dict[str, np.ndarray], metadata: dict) -> None:
    meta = json.dumps(metadata, sort_keys=True).encode("utf-8")
    parts = [_HEAD.pack(MAGIC, VERSION, len(meta)), meta, struct.pack("<I", len(blobs))]
    for name, arr in blobs.items():
        data = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        nb = name.encode("utf-8")
        parts.append(_BLOB_NAME.pack(len(nb)))
        parts.append(nb)
        parts.append(_BLOB_DIMS.pack(arr.ndim))
        parts.append(struct.pack(f"<{max(arr.ndim, 0)}I", *arr.shape))
        parts.append(_BLOB_TAIL.pack(zlib.crc32(data), len(data)))
        parts.append(data)
    # a crash mid-write must not leave a truncated file under the final
    # name, where a resumed search would take it for the latest iteration
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(b"".join(parts))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.buf):
            raise SepnetError(f"truncated checkpoint: expected {what} at byte {self.pos}")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        rd = _Reader(fh.read())
    magic, version, meta_len = _HEAD.unpack(rd.take(_HEAD.size, "header"))
    if magic != MAGIC:
        raise ConfigError(f"not a checkpoint file: bad magic {magic!r}")
    if version > VERSION:
        raise ConfigError(f"checkpoint format version {version} is newer than supported {VERSION}")
    try:
        metadata = json.loads(rd.take(meta_len, "metadata"))
    except (ValueError, RecursionError) as exc:  # also undecodable utf-8, deep nesting
        raise ConfigError(f"checkpoint metadata is not valid JSON: {exc}") from exc
    if not isinstance(metadata, dict):
        raise ConfigError("checkpoint metadata is not a JSON object")
    (count,) = struct.unpack("<I", rd.take(4, "blob count"))
    blobs: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = _BLOB_NAME.unpack(rd.take(2, "blob name length"))
        try:
            name = rd.take(name_len, "blob name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"checkpoint blob name is not utf-8: {exc}") from exc
        (ndim,) = _BLOB_DIMS.unpack(rd.take(1, "blob rank"))
        dims = struct.unpack(f"<{ndim}I", rd.take(4 * ndim, "blob dims"))
        crc, payload_len = _BLOB_TAIL.unpack(rd.take(8, "blob trailer"))
        if payload_len != 4 * math.prod(dims):
            raise ConfigError(f"blob {name!r} has {payload_len} payload bytes for dims {dims}")
        data = rd.take(payload_len, f"blob {name!r} payload")
        if zlib.crc32(data) != crc:
            raise ChecksumError(f"checksum mismatch for blob {name!r}")
        blobs[name] = np.frombuffer(data, dtype="<f4").reshape(dims).copy()
    return metadata, blobs


# -- model/controller adapters ----------------------------------------------


def graph_blobs(net) -> dict[str, np.ndarray]:
    out = {}
    for name, arr in net.named_params():
        out[f"graph/{name}"] = arr
    for name, arr in net.named_state():
        out[f"graph/{name}"] = arr
    return out


def graph_metadata(net) -> dict:
    return {
        "spec": dataclasses.asdict(net.spec),
        "bn_initialized": net.bn_initialized(),
        "partition_map": {name: net.param_owner(name) for name, _ in net.named_params()},
    }


def _fill(named, blobs: dict[str, np.ndarray], role: str) -> None:
    """Copy blob ``role/name`` into each (name, array), checking it exists and fits."""
    for name, arr in named:
        key = f"{role}/{name}"
        if key not in blobs:
            raise ConfigError(f"checkpoint is missing blob {key!r}")
        src = blobs[key]
        if src.shape != arr.shape:
            raise ConfigError(f"blob {key!r} has shape {src.shape}, expected {arr.shape}")
        arr[...] = src


def restore_graph(meta: dict, blobs: dict[str, np.ndarray]):
    from .models import ModelSpec, Network

    info = meta.get("spec") if isinstance(meta, dict) else None
    names = {f.name for f in dataclasses.fields(ModelSpec)}
    if not isinstance(info, dict) or set(info) != names:
        raise ConfigError(f"bad checkpoint model spec {info!r}; expected keys {sorted(names)}")
    try:
        h, w = info["in_hw"]
        spec = ModelSpec(**{**info, "in_hw": (h, w)})
        spec.validate()
        net = Network(spec, seed=0)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad checkpoint model spec {info!r}: {exc}") from exc
    _fill([*net.named_params(), *net.named_state()], blobs, "graph")
    if meta.get("bn_initialized"):
        net.mark_bn_initialized()
    return net


def controller_blobs(ctl) -> dict[str, np.ndarray]:
    return {f"controller/{name}": arr for name, arr in ctl.params()}


# the Controller arguments a checkpoint records; its weights are blobs
_CONTROLLER_ARGS = ("g", "levels", "p_min", "hidden", "entropy_coef")


def controller_metadata(ctl) -> dict:
    return {key: getattr(ctl, key) for key in _CONTROLLER_ARGS}


def restore_controller(meta: dict, blobs: dict[str, np.ndarray]):
    from .controller import Controller

    try:
        ctl = Controller(**{key: meta[key] for key in _CONTROLLER_ARGS if key in meta})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad checkpoint controller {meta!r}: {exc}") from exc
    _fill(ctl.params(), blobs, "controller")
    return ctl


def save_model(path, net=None, ctl=None, extra: dict | None = None) -> None:
    """Store graph and/or controller in one container, tagged by role."""
    blobs: dict[str, np.ndarray] = {}
    meta: dict = {"roles": {}}
    if net is not None:
        blobs.update(graph_blobs(net))
        meta["roles"]["graph"] = graph_metadata(net)
    if ctl is not None:
        blobs.update(controller_blobs(ctl))
        meta["roles"]["controller"] = controller_metadata(ctl)
    if extra:
        meta["extra"] = extra
    save_checkpoint(path, blobs, meta)


def load_model(path):
    """Return (net or None, controller or None, extra metadata)."""
    meta, blobs = load_checkpoint(path)
    roles = meta.get("roles", {})
    if not isinstance(roles, dict):
        raise ConfigError("checkpoint roles are not a JSON object")
    net = restore_graph(roles["graph"], blobs) if "graph" in roles else None
    ctl = restore_controller(roles["controller"], blobs) if "controller" in roles else None
    return net, ctl, meta.get("extra", {})
