import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepnet import wire
from sepnet.errors import FramingError, HandshakeError, SepnetError, ShapeError


def make_chunk(rng, c=4, h=3, w=5):
    return rng.standard_normal((c, h, w)).astype(np.float32)


class TestRoundTrip:
    def test_f32_bitwise(self, rng):
        chunk = make_chunk(rng)
        raw = wire.encode_msg(chunk, step_index=2, source=1, dest=3,
                              dtype=wire.DTYPE_F32, channels_total=4)
        out, meta = wire.decode_msg(raw)
        assert np.array_equal(out, chunk)
        assert (meta.step_index, meta.source, meta.dest) == (2, 1, 3)
        assert meta.channels_sent == meta.channels_total == 4

    def test_one_is_exact_in_f16(self):
        chunk = np.ones((1, 1, 1), dtype=np.float32)
        raw = wire.encode_msg(chunk, step_index=0, source=0, dest=1,
                              dtype=wire.DTYPE_F16, channels_total=1)
        out, _ = wire.decode_msg(raw)
        assert out[0, 0, 0] == 1.0

    def test_f16_is_round_to_nearest_even(self):
        # 2049 is halfway between the representable 2048 and 2050; RNE picks 2048
        chunk = np.array([2049.0], dtype=np.float32).reshape(1, 1, 1)
        raw = wire.encode_msg(chunk, step_index=0, source=0, dest=1,
                              dtype=wire.DTYPE_F16, channels_total=1)
        out, _ = wire.decode_msg(raw)
        assert out[0, 0, 0] == 2048.0

    def test_sparsified_zero_fill(self):
        chunk = np.ones((4, 2, 2), dtype=np.float32)
        raw = wire.encode_msg(chunk, step_index=1, source=0, dest=1,
                              dtype=wire.DTYPE_F32, channels_total=8)
        out, meta = wire.decode_msg(raw)
        assert out.shape == (8, 2, 2)
        assert np.array_equal(out[:4], chunk)
        assert not out[4:].any()
        assert meta.channels_sent == 4 and meta.channels_total == 8

    def test_randomized_round_trips(self, rng):
        for _ in range(300):
            c_total = int(rng.integers(1, 20))
            c_sent = int(rng.integers(0, c_total + 1))
            h, w = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            dtype = int(rng.integers(0, 2))
            chunk = rng.standard_normal((c_sent, h, w)).astype(np.float32)
            raw = wire.encode_msg(chunk, step_index=int(rng.integers(0, 1000)),
                                  source=int(rng.integers(0, 8)), dest=int(rng.integers(0, 8)),
                                  dtype=dtype, channels_total=c_total)
            out, meta = wire.decode_msg(raw)
            assert out.shape == (c_total, h, w)
            want = chunk if dtype == wire.DTYPE_F32 else chunk.astype(np.float16).astype(np.float32)
            assert np.array_equal(out[:c_sent], want)
            assert wire.encode_msg(out[:c_sent], step_index=meta.step_index,
                                   source=meta.source, dest=meta.dest, dtype=wire.DTYPE_F32,
                                   channels_total=c_total) is not None


class TestFraming:
    def _valid(self, rng):
        return wire.encode_msg(make_chunk(rng), step_index=5, source=0, dest=1,
                               dtype=wire.DTYPE_F32, channels_total=4)

    def test_bad_magic(self, rng):
        raw = bytearray(self._valid(rng))
        raw[0:4] = b"XXXX"
        with pytest.raises(FramingError) as err:
            wire.decode_msg(bytes(raw))
        assert err.value.offset == 0

    def test_bad_version(self, rng):
        raw = bytearray(self._valid(rng))
        raw[4:6] = (99).to_bytes(2, "little")
        with pytest.raises(FramingError) as err:
            wire.decode_msg(bytes(raw))
        assert err.value.offset == 4

    def test_truncated_payload(self, rng):
        raw = self._valid(rng)
        with pytest.raises(FramingError):
            wire.decode_msg(raw[:-3])

    def test_short_header(self):
        with pytest.raises(FramingError):
            wire.decode_msg(b"SNNM")

    def test_inconsistent_payload_len(self, rng):
        raw = bytearray(self._valid(rng))
        raw[19:23] = (1).to_bytes(4, "little")
        with pytest.raises(FramingError) as err:
            wire.decode_msg(bytes(raw))
        assert err.value.offset == 19

    def test_channels_sent_over_total(self, rng):
        chunk = make_chunk(rng, c=4)
        with pytest.raises(ShapeError):
            wire.encode_msg(chunk, step_index=0, source=0, dest=0,
                            dtype=wire.DTYPE_F32, channels_total=2)

    def test_random_corruption_rejected_or_consistent(self, rng):
        # flipping header bytes must never crash with anything but FramingError
        raw = self._valid(rng)
        for _ in range(200):
            pos = int(rng.integers(0, wire.HEADER.size))
            corrupted = bytearray(raw)
            corrupted[pos] ^= 0xFF
            try:
                out, meta = wire.decode_msg(bytes(corrupted))
            except FramingError:
                continue
            assert out.shape == (meta.channels_total, meta.height, meta.width)


class TestHandshake:
    def test_round_trip(self):
        hs = wire.encode_handshake(3, 4, b"\x01" * 32)
        assert wire.decode_handshake(hs) == (3, 4, b"\x01" * 32)

    def test_bad_magic(self):
        hs = bytearray(wire.encode_handshake(0, 4, b"\x00" * 32))
        hs[0] = 0
        with pytest.raises(HandshakeError):
            wire.decode_handshake(bytes(hs))

    def test_wrong_length(self):
        with pytest.raises(HandshakeError):
            wire.decode_handshake(b"SNNH")


# a header with the right magic and version and any field values; small
# dims, since a header with no payload still sizes the zero-filled chunk
_HEADERS = st.builds(
    lambda fields, tail: wire.HEADER.pack(wire.MAGIC, wire.VERSION, *fields) + tail,
    st.tuples(st.integers(0, 0xFFFF), st.integers(0, 255), st.integers(0, 255),
              st.integers(0, 255), st.integers(0, 64), st.integers(0, 64),
              st.integers(0, 64), st.integers(0, 64), st.integers(0, 2**32 - 1)),
    st.binary(max_size=64))


@settings(deadline=None, database=None)
@given(st.binary(max_size=64) | _HEADERS)
def test_decoders_total_on_any_bytes(buf):
    for decode in (wire.decode_header, wire.decode_msg, wire.decode_handshake):
        try:
            decode(buf)
        except SepnetError:
            pass
