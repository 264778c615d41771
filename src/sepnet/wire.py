"""Bit-exact wire format for feature-map chunks and peer handshakes.

Feature message layout (all integers little-endian):

    magic "SNNM" | version u16 | step_index u16 | source u8 | dest u8
    | dtype u8 (0 = f32, 1 = f16) | channels_sent u16 | channels_total u16
    | height u16 | width u16 | payload_len u32
    | payload: channels_sent * height * width scalars, channel-major then
      row-major, little-endian

A sparsified message carries only the first ``channels_sent`` channels;
the decoder zero-fills the rest up to ``channels_total``. Half-precision
payloads are narrowed with round-to-nearest-even on encode and widened on
decode. ``step_index`` values >= 0xFFF0 are reserved for control frames.

Handshake layout: magic "SNNH" | version u16 | node_id u8 | num_nodes u8
| policy sha-256 digest (32 bytes).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import FramingError, HandshakeError, ShapeError

MAGIC = b"SNNM"
VERSION = 1
HEADER = struct.Struct("<4sHHBBBHHHHI")

DTYPE_F32 = 0
DTYPE_F16 = 1
_DTYPE_BYTES = {DTYPE_F32: 4, DTYPE_F16: 2}
_DTYPE_NP = {DTYPE_F32: "<f4", DTYPE_F16: "<f2"}

STEP_INPUT = 0xFFFF   # coordinator input / logits reply
STEP_TIMING = 0xFFFE  # node-0 timing report
STEP_CONTROL_MIN = 0xFFF0

HS_MAGIC = b"SNNH"
HS_VERSION = 1
HS = struct.Struct("<4sHBB32s")


@dataclass(frozen=True)
class MsgMeta:
    step_index: int
    source: int
    dest: int
    dtype: int
    channels_sent: int
    channels_total: int
    height: int
    width: int

    @property
    def payload_len(self) -> int:
        return self.channels_sent * self.height * self.width * _DTYPE_BYTES[self.dtype]


def dtype_code(name: str) -> int:
    try:
        return {"f32": DTYPE_F32, "f16": DTYPE_F16}[name]
    except KeyError:
        raise ShapeError(f"unknown wire dtype {name!r}; expected 'f32' or 'f16'") from None


def encode_msg(chunk: np.ndarray, *, step_index: int, source: int, dest: int,
               dtype: int, channels_total: int) -> bytes:
    """Serialize a (channels_sent, height, width) float32 chunk."""
    if chunk.ndim != 3 or chunk.dtype != np.float32:
        raise ShapeError(f"chunk must be float32 (channels, h, w), got {chunk.dtype} {chunk.shape}")
    c, h, w = chunk.shape
    if c > channels_total:
        raise ShapeError(f"channels_sent {c} exceeds channels_total {channels_total}")
    if dtype not in _DTYPE_BYTES:
        raise ShapeError(f"unknown dtype code {dtype}")
    payload = np.ascontiguousarray(chunk, dtype=_DTYPE_NP[dtype]).tobytes()
    header = HEADER.pack(MAGIC, VERSION, step_index, source, dest, dtype,
                         c, channels_total, h, w, len(payload))
    return header + payload


def decode_header(buf: bytes) -> MsgMeta:
    """Parse and check the fixed-size header at the start of ``buf``."""
    if len(buf) < HEADER.size:
        raise FramingError(f"message shorter than the {HEADER.size}-byte header", len(buf))
    magic, version, step, source, dest, dtype, c_sent, c_total, h, w, payload_len = \
        HEADER.unpack_from(buf, 0)
    if magic != MAGIC:
        raise FramingError(f"bad magic {magic!r}", 0)
    if version != VERSION:
        raise FramingError(f"unsupported message version {version}", 4)
    if dtype not in _DTYPE_BYTES:
        raise FramingError(f"unknown dtype code {dtype}", 9)
    if c_sent > c_total:
        raise FramingError(f"channels_sent {c_sent} exceeds channels_total {c_total}", 10)
    meta = MsgMeta(step, source, dest, dtype, c_sent, c_total, h, w)
    if payload_len != meta.payload_len:
        raise FramingError(f"payload_len {payload_len} != {meta.payload_len} implied by the header", 19)
    return meta


def decode_msg(buf: bytes) -> tuple[np.ndarray, MsgMeta]:
    """Parse a message; returns the zero-filled full-width chunk and its meta."""
    meta = decode_header(buf)
    size = HEADER.size + meta.payload_len
    if len(buf) != size:
        raise FramingError(f"message is {len(buf)} bytes, header implies {size}", min(len(buf), size))
    c, h, w = meta.channels_sent, meta.height, meta.width
    raw = np.frombuffer(buf, dtype=_DTYPE_NP[meta.dtype], count=c * h * w, offset=HEADER.size)
    chunk = np.zeros((meta.channels_total, h, w), dtype=np.float32)
    chunk[:c] = raw.astype(np.float32).reshape(c, h, w)
    return chunk, meta


def encode_handshake(node_id: int, num_nodes: int, policy_hash: bytes) -> bytes:
    if len(policy_hash) != 32:
        raise HandshakeError(f"policy hash must be 32 bytes, got {len(policy_hash)}")
    return HS.pack(HS_MAGIC, HS_VERSION, node_id, num_nodes, policy_hash)


def decode_handshake(buf: bytes) -> tuple[int, int, bytes]:
    if len(buf) != HS.size:
        raise HandshakeError(f"handshake must be {HS.size} bytes, got {len(buf)}")
    magic, version, node_id, num_nodes, policy_hash = HS.unpack(buf)
    if magic != HS_MAGIC:
        raise HandshakeError(f"bad handshake magic {magic!r}")
    if version != HS_VERSION:
        raise HandshakeError(f"unsupported handshake version {version}")
    return node_id, num_nodes, policy_hash
