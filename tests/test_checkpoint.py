import copy
import functools
import io
import json
import os
import struct
import tempfile
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepnet import checkpoint as ckpt
from sepnet import models
from sepnet.controller import Controller
from sepnet.errors import ChecksumError, ConfigError, SepnetError

SPEC = models.ModelSpec(stages=1, blocks_per_stage=2, cardinality=4, bottleneck_width=4,
                        partitions=2, num_classes=5, alpha=1, in_hw=(8, 8))


def test_save_load_save_byte_identical(tmp_path, rng):
    blobs = {"a": rng.standard_normal((3, 4)).astype(np.float32),
             "b": rng.standard_normal(7).astype(np.float32)}
    p1, p2 = tmp_path / "a.snnc", tmp_path / "b.snnc"
    ckpt.save_checkpoint(p1, blobs, {"k": 1, "nested": {"x": [1, 2]}})
    meta, loaded = ckpt.load_checkpoint(p1)
    ckpt.save_checkpoint(p2, loaded, meta)
    assert p1.read_bytes() == p2.read_bytes()


def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, rng):
    path = tmp_path / "iter001.snnc"
    ckpt.save_checkpoint(path, {"w": rng.standard_normal(64).astype(np.float32)}, {"v": 1})
    before = path.read_bytes()

    class HalfWriter(io.FileIO):
        def write(self, data):
            super().write(data[: len(data) // 2])
            raise OSError("no space left on device")

    monkeypatch.setattr(ckpt, "open", HalfWriter, raising=False)
    with pytest.raises(OSError, match="no space"):
        ckpt.save_checkpoint(path, {"w": rng.standard_normal(64).astype(np.float32)}, {"v": 2})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["iter001.snnc"]


def test_truncated_file_clean_error(tmp_path, rng):
    path = tmp_path / "t.snnc"
    ckpt.save_checkpoint(path, {"w": rng.standard_normal(10).astype(np.float32)}, {})
    data = path.read_bytes()
    path.write_bytes(data[:-5])
    with pytest.raises(SepnetError, match="truncated"):
        ckpt.load_checkpoint(path)


def test_corrupted_blob_names_blob(tmp_path, rng):
    path = tmp_path / "c.snnc"
    ckpt.save_checkpoint(path, {"weights": rng.standard_normal(16).astype(np.float32)}, {})
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(ChecksumError, match="weights"):
        ckpt.load_checkpoint(path)


def test_future_version_rejected(tmp_path):
    path = tmp_path / "v.snnc"
    ckpt.save_checkpoint(path, {}, {})
    data = bytearray(path.read_bytes())
    data[4:6] = (ckpt.VERSION + 1).to_bytes(2, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(ConfigError, match="version"):
        ckpt.load_checkpoint(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "m.snnc"
    path.write_bytes(b"NOPE" + b"\x00" * 10)
    with pytest.raises(ConfigError, match="magic"):
        ckpt.load_checkpoint(path)


def test_graph_round_trip_preserves_forward(tmp_path, rng):
    net = models.Network(SPEC, seed=4)
    x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
    net.forward(x, train=True)  # record bn stats
    want = net.forward(x)
    path = tmp_path / "g.snnc"
    ckpt.save_model(path, net)
    loaded, ctl, _ = ckpt.load_model(path)
    assert ctl is None
    assert np.array_equal(loaded.forward(x), want)


def test_controller_and_graph_share_container(tmp_path):
    net = models.Network(SPEC, seed=4)
    ctl = Controller(g=2, levels=3, hidden=8, seed=1)
    path = tmp_path / "both.snnc"
    ckpt.save_model(path, net, ctl, {"note": "pair"})
    loaded_net, loaded_ctl, extra = ckpt.load_model(path)
    assert extra == {"note": "pair"}
    assert loaded_ctl.param_digest() == ctl.param_digest()
    for (n1, a1), (n2, a2) in zip(loaded_net.named_params(), net.named_params()):
        assert n1 == n2 and np.array_equal(a1, a2)


def test_partition_map_in_metadata(tmp_path):
    net = models.Network(SPEC, seed=4)
    path = tmp_path / "pm.snnc"
    ckpt.save_model(path, net)
    meta, _ = ckpt.load_checkpoint(path)
    pmap = meta["roles"]["graph"]["partition_map"]
    assert pmap["stem.conv.w"] == "shared"
    owners = {v for k, v in pmap.items() if k.startswith("block")}
    assert owners == {0, 1}


def test_missing_blob_rejected(tmp_path):
    net = models.Network(SPEC, seed=4)
    blobs = ckpt.graph_blobs(net)
    blobs.pop(next(iter(blobs)))
    path = tmp_path / "miss.snnc"
    ckpt.save_checkpoint(path, blobs, {"roles": {"graph": ckpt.graph_metadata(net)}})
    with pytest.raises(ConfigError, match="missing blob"):
        ckpt.load_model(path)


@pytest.mark.parametrize("edit", ["drop_key", "unknown_key", "in_hw_int"])
def test_bad_model_spec_rejected(tmp_path, monkeypatch, edit):
    net = models.Network(SPEC, seed=4)
    meta = ckpt.graph_metadata(net)
    if edit == "drop_key":
        del meta["spec"]["alpha"]
    elif edit == "unknown_key":
        meta["spec"]["depth"] = 5
    else:
        meta["spec"]["in_hw"] = 8
    monkeypatch.setattr(ckpt, "graph_metadata", lambda _net: meta)
    path = tmp_path / "badspec.snnc"
    ckpt.save_model(path, net)
    with pytest.raises(ConfigError, match="model spec"):
        ckpt.load_model(path)


def _raw_file(meta: bytes, blobs=()) -> bytes:
    """Checkpoint bytes with verbatim metadata and (name, dims, payload) blobs."""
    parts = [ckpt._HEAD.pack(ckpt.MAGIC, ckpt.VERSION, len(meta)), meta,
             struct.pack("<I", len(blobs))]
    for name, dims, payload in blobs:
        parts += [struct.pack("<H", len(name)), name.encode(),
                  struct.pack(f"<B{len(dims)}I", len(dims), *dims),
                  struct.pack("<II", zlib.crc32(payload), len(payload)), payload]
    return b"".join(parts)


def _controller_without_hidden() -> bytes:
    ctl = Controller(g=2, levels=3, hidden=8, seed=1)
    meta = ckpt.controller_metadata(ctl)
    del meta["hidden"]
    blobs = [(name, arr.shape, arr.tobytes()) for name, arr in ckpt.controller_blobs(ctl).items()]
    return _raw_file(json.dumps({"roles": {"controller": meta}}).encode(), blobs)


@pytest.mark.parametrize("case", ["metadata_not_json", "payload_not_whole_floats",
                                  "dims_disagree_with_payload", "metadata_is_list",
                                  "controller_without_hidden"])
def test_corrupt_file_is_config_error(tmp_path, case):
    data = {
        "metadata_not_json": lambda: _raw_file(b"{not json"),
        "payload_not_whole_floats": lambda: _raw_file(b"{}", [("w", (1,), bytes(5))]),
        "dims_disagree_with_payload": lambda: _raw_file(b"{}", [("w", (3,), bytes(8))]),
        "metadata_is_list": lambda: _raw_file(b"[]"),
        "controller_without_hidden": _controller_without_hidden,
    }[case]()
    path = tmp_path / "bad.snnc"
    path.write_bytes(data)
    with pytest.raises(ConfigError):
        ckpt.load_model(path)


@functools.cache
def _valid_file() -> tuple[bytes, dict, dict]:
    """A graph-and-controller checkpoint: its bytes, metadata and blobs."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ok.snnc")
        ckpt.save_model(path, models.Network(SPEC, seed=4),
                        Controller(g=2, levels=3, hidden=8, seed=1), {"note": 1})
        with open(path, "rb") as fh:
            return (fh.read(), *ckpt.load_checkpoint(path))


# small values only: a spec or controller read from metadata sizes the arrays it builds
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 40) | st.floats(-2, 40) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


@st.composite
def _checkpoint_bytes(draw):
    """Arbitrary bytes or metadata, a valid file with bytes changed and cut,
    or a valid file with one metadata value replaced or deleted."""
    kind = draw(st.sampled_from(["raw", "json", "bytes", "metadata"]))
    if kind == "raw":
        return draw(st.binary(max_size=64))
    if kind == "json":
        return _raw_file(json.dumps(draw(_JSON)).encode())
    good, meta, blobs = _valid_file()
    if kind == "bytes":
        data = bytearray(good)
        for pos, value in draw(st.lists(st.tuples(st.integers(0, len(data) - 1),
                                                  st.integers(0, 255)), max_size=4)):
            data[pos] = value
        return bytes(data[: draw(st.integers(0, len(data)))])
    meta = copy.deepcopy(meta)
    roles = meta["roles"]
    target = draw(st.sampled_from([meta, roles, roles["graph"], roles["graph"]["spec"],
                                   roles["controller"]]))
    key = draw(st.sampled_from(sorted(target)))
    if draw(st.booleans()):
        del target[key]
    else:
        target[key] = draw(_JSON)
    return _raw_file(json.dumps(meta).encode(),
                     [(name, arr.shape, arr.tobytes()) for name, arr in blobs.items()])


@settings(max_examples=150, deadline=None, database=None)
@given(_checkpoint_bytes())
def test_load_is_total_on_any_file(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.snnc")
        with open(path, "wb") as fh:
            fh.write(data)
        for load in (ckpt.load_checkpoint, ckpt.load_model):
            try:
                load(path)
            except SepnetError:
                pass
