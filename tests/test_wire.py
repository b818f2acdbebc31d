"""Adversarial tests for the length-prefixed JSON framing layer.

The wire protocol (``repro.runtime.wire``) is spoken by the decision
service and between sweep brokers and workers; a misbehaving or killed
peer must surface as a *typed* error (or a clean None), never a hang or
a desynchronised stream. Every scenario here uses real sockets with
short timeouts, so a regression to blocking-forever fails fast.
"""

import asyncio
import socket
import struct
import threading

import pytest

from repro.runtime.wire import (
    MAX_FRAME_BYTES,
    FrameReceiver,
    ProtocolError,
    ReceiveTimeout,
    decode_payload,
    encode_frame,
    read_frame,
    recv_frame,
    send_frame,
)


def pair():
    a, b = socket.socketpair()
    a.settimeout(5.0)
    b.settimeout(5.0)
    return a, b


class TestEncodeDecode:
    def test_round_trip(self):
        msg = {"type": "x", "f": 0.1 + 0.2, "n": [1, 2.5e-300], "s": "αβ"}
        frame = encode_frame(msg)
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4
        assert decode_payload(frame[4:]) == msg

    def test_float_fidelity_is_exact(self):
        values = [0.1, 1.0 / 3.0, 2**-52, 1.7976931348623157e308]
        out = decode_payload(encode_frame({"v": values})[4:])
        assert out["v"] == values  # bit-exact, not approximate

    def test_oversized_message_refused_at_send(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 1)})

    def test_garbage_json_is_typed(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_payload(b"\xff\xfe{{{")

    def test_non_object_payload_is_typed(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_payload(b"[1,2,3]")


class TestRecvFrame:
    def test_round_trip(self):
        a, b = pair()
        send_frame(a, {"type": "ping", "x": 1.5})
        assert recv_frame(b) == {"type": "ping", "x": 1.5}
        a.close(), b.close()

    def test_clean_close_is_none_both_modes(self):
        for strict in (False, True):
            a, b = pair()
            a.close()
            assert recv_frame(b, strict=strict) is None
            b.close()

    def test_truncated_header(self):
        # Lenient: reads as end of stream. Strict: typed error.
        for strict, expect_raise in ((False, False), (True, True)):
            a, b = pair()
            a.sendall(b"\x00\x00")  # 2 of 4 header bytes
            a.close()
            if expect_raise:
                with pytest.raises(ProtocolError, match="mid-header"):
                    recv_frame(b, strict=True)
            else:
                assert recv_frame(b, strict=strict) is None
            b.close()

    def test_mid_frame_disconnect(self):
        frame = encode_frame({"type": "big", "pad": "y" * 1000})
        for strict in (False, True):
            a, b = pair()
            a.sendall(frame[: len(frame) // 2])
            a.close()
            if strict:
                with pytest.raises(ProtocolError, match="mid-frame"):
                    recv_frame(b, strict=True)
            else:
                assert recv_frame(b) is None
            b.close()

    def test_oversized_length_prefix(self):
        a, b = pair()
        a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        with pytest.raises(ProtocolError, match="exceeds"):
            recv_frame(b)
        a.close(), b.close()

    def test_garbage_json_payload(self):
        a, b = pair()
        junk = b"not json at all"
        a.sendall(struct.pack(">I", len(junk)) + junk)
        with pytest.raises(ProtocolError, match="not valid JSON"):
            recv_frame(b)
        a.close(), b.close()


class TestAsyncReadFrame:
    def _read(self, data: bytes, strict: bool = False):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            reader.feed_eof()
            return await read_frame(reader, strict=strict)

        return asyncio.run(go())

    def test_round_trip(self):
        assert self._read(encode_frame({"a": 1})) == {"a": 1}

    def test_clean_eof_is_none(self):
        assert self._read(b"") is None
        assert self._read(b"", strict=True) is None

    def test_torn_header_strict(self):
        assert self._read(b"\x00\x00\x01") is None  # lenient
        with pytest.raises(ProtocolError, match="mid-header"):
            self._read(b"\x00\x00\x01", strict=True)

    def test_torn_payload_strict(self):
        frame = encode_frame({"k": "v" * 100})
        assert self._read(frame[:-5]) is None  # lenient
        with pytest.raises(ProtocolError, match="mid-frame"):
            self._read(frame[:-5], strict=True)

    def test_oversized_length_prefix(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            self._read(struct.pack(">I", MAX_FRAME_BYTES + 1) + b"x")


class TestFrameReceiver:
    def test_frames_survive_poll_timeouts(self):
        """A frame dripped byte-by-byte across many short polls arrives
        intact - the receiver's buffer must never tear mid-frame."""
        a, b = pair()
        receiver = FrameReceiver(b)
        frame = encode_frame({"type": "slow", "v": [0.25, 0.5]})

        def drip():
            for i in range(len(frame)):
                a.sendall(frame[i:i + 1])

        t = threading.Thread(target=drip)
        got = None
        t.start()
        for _ in range(1000):
            try:
                got = receiver.recv(0.002)
                break
            except ReceiveTimeout:
                continue
        t.join()
        assert got == {"type": "slow", "v": [0.25, 0.5]}
        a.close(), b.close()

    def test_multiple_frames_in_one_read(self):
        a, b = pair()
        receiver = FrameReceiver(b)
        a.sendall(encode_frame({"i": 1}) + encode_frame({"i": 2}))
        assert receiver.recv(2.0) == {"i": 1}
        assert receiver.recv(2.0) == {"i": 2}
        a.close(), b.close()

    def test_timeout_is_typed_and_resumable(self):
        a, b = pair()
        receiver = FrameReceiver(b)
        with pytest.raises(ReceiveTimeout):
            receiver.recv(0.05)
        send_frame(a, {"ok": True})
        assert receiver.recv(2.0) == {"ok": True}
        a.close(), b.close()

    def test_clean_close_is_none(self):
        a, b = pair()
        receiver = FrameReceiver(b)
        send_frame(a, {"last": 1})
        a.close()
        assert receiver.recv(2.0) == {"last": 1}
        assert receiver.recv(2.0) is None
        b.close()

    def test_mid_frame_close_is_typed(self):
        a, b = pair()
        receiver = FrameReceiver(b, strict=True)
        a.sendall(encode_frame({"k": "v" * 500})[:-7])
        a.close()
        with pytest.raises(ProtocolError, match="mid-frame"):
            receiver.recv(2.0)
        b.close()

    def test_mid_frame_close_lenient_is_none(self):
        a, b = pair()
        receiver = FrameReceiver(b, strict=False)
        a.sendall(encode_frame({"k": "v" * 500})[:-7])
        a.close()
        assert receiver.recv(2.0) is None
        b.close()

    def test_oversized_length_prefix_rejected_before_allocation(self):
        a, b = pair()
        receiver = FrameReceiver(b)
        a.sendall(struct.pack(">I", 2**31))
        with pytest.raises(ProtocolError, match="exceeds"):
            receiver.recv(2.0)
        a.close(), b.close()

    def test_garbage_json_is_typed(self):
        a, b = pair()
        receiver = FrameReceiver(b)
        junk = b"\x00garbage\xff"
        a.sendall(struct.pack(">I", len(junk)) + junk)
        with pytest.raises(ProtocolError, match="not valid JSON"):
            receiver.recv(2.0)
        a.close(), b.close()

