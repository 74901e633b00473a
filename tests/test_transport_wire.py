"""Wire codec tests: framing round-trips, corruption, chunked messages.

The tcp transport's correctness rests on one invariant: whatever byte
boundaries the kernel hands ``recv``, the decoder either yields exactly
the frames that were sent or raises :class:`WireError` and refuses to
continue.  The hypothesis property here drives that invariant with
arbitrary payload sets and arbitrary stream splits; the example-based
tests pin the individual failure modes (bad magic, version skew, CRC
flips, truncation, chunk-protocol violations).
"""

import os
import pickle
import socket
import struct
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.transports.wire import (
    AUTH_NONCE_BYTES,
    DEFAULT_CHUNK_BYTES,
    FrameDecoder,
    KIND_AUTH,
    KIND_CHUNK,
    KIND_CHUNK_HEAD,
    KIND_MSG,
    MAGIC,
    MAX_FRAME_PAYLOAD,
    MessageAssembler,
    MessageStream,
    PENDING,
    VERSION,
    WireError,
    client_handshake,
    encode_auth_challenge,
    encode_auth_response,
    encode_auth_welcome,
    encode_frame,
    encode_message,
    verify_auth_response,
    verify_auth_welcome,
)


def _feed_in_pieces(decoder, data, cuts):
    """Feed ``data`` split at the given sorted cut offsets."""
    frames = []
    prev = 0
    for cut in list(cuts) + [len(data)]:
        frames.extend(decoder.feed(data[prev:cut]))
        prev = cut
    return frames


# -- frame layer ---------------------------------------------------------


class TestFrameRoundTrip:
    def test_single_frame(self):
        data = encode_frame(KIND_MSG, b"hello")
        assert FrameDecoder().feed(data) == [(KIND_MSG, b"hello")]

    def test_empty_payload(self):
        data = encode_frame(KIND_MSG, b"")
        assert FrameDecoder().feed(data) == [(KIND_MSG, b"")]

    def test_byte_at_a_time(self):
        data = encode_frame(KIND_MSG, b"one") + encode_frame(KIND_CHUNK, b"two")
        decoder = FrameDecoder()
        frames = []
        for i in range(len(data)):
            frames.extend(decoder.feed(data[i:i + 1]))
        assert frames == [(KIND_MSG, b"one"), (KIND_CHUNK, b"two")]
        decoder.check_eof()  # clean boundary

    def test_split_at_every_boundary(self):
        """One frame split at every possible offset decodes identically."""
        data = encode_frame(KIND_MSG, b"boundary-sweep")
        for cut in range(len(data) + 1):
            decoder = FrameDecoder()
            frames = decoder.feed(data[:cut])
            frames += decoder.feed(data[cut:])
            assert frames == [(KIND_MSG, b"boundary-sweep")]

    def test_unknown_kind_rejected_on_encode(self):
        with pytest.raises(WireError):
            encode_frame(99, b"payload")

    def test_oversize_payload_rejected_on_encode(self):
        with pytest.raises(WireError, match="chunk it"):
            encode_frame(KIND_MSG, b"\0" * (MAX_FRAME_PAYLOAD + 1))


class TestFrameCorruption:
    def test_bad_magic(self):
        data = bytearray(encode_frame(KIND_MSG, b"x"))
        data[0] = ord("Z")
        with pytest.raises(WireError, match="magic"):
            FrameDecoder().feed(bytes(data))

    def test_version_skew(self):
        data = bytearray(encode_frame(KIND_MSG, b"x"))
        data[2] = VERSION + 1
        with pytest.raises(WireError, match="protocol"):
            FrameDecoder().feed(bytes(data))

    def test_v2_frame_is_rejected(self):
        """v3 dropped the shared-cache result references, so a v2 peer is
        refused at the frame layer instead of being misread."""
        data = bytearray(encode_frame(KIND_MSG, b"x"))
        data[2] = 2
        with pytest.raises(WireError, match="v2, we speak v3"):
            FrameDecoder().feed(bytes(data))

    def test_unknown_kind_on_decode(self):
        data = bytearray(encode_frame(KIND_MSG, b"x"))
        data[3] = 42
        with pytest.raises(WireError, match="kind"):
            FrameDecoder().feed(bytes(data))

    def test_oversize_length_rejected_before_buffering(self):
        header = struct.pack(
            ">2sBBI", MAGIC, VERSION, KIND_MSG, MAX_FRAME_PAYLOAD + 1
        )
        with pytest.raises(WireError, match="ceiling"):
            FrameDecoder().feed(header)

    def test_payload_flip_fails_crc(self):
        data = bytearray(encode_frame(KIND_MSG, b"payload"))
        data[10] ^= 0xFF
        with pytest.raises(WireError, match="CRC"):
            FrameDecoder().feed(bytes(data))

    def test_length_flip_fails_crc_not_desync(self):
        """A corrupted length is caught by the CRC, not trusted."""
        two = encode_frame(KIND_MSG, b"aaaa") + encode_frame(KIND_MSG, b"bb")
        data = bytearray(two)
        data[7] ^= 0x01  # low length byte of the first frame
        with pytest.raises(WireError):
            FrameDecoder().feed(bytes(data))

    def test_decoder_poisons_after_error(self):
        decoder = FrameDecoder()
        bad = bytearray(encode_frame(KIND_MSG, b"x"))
        bad[0] = 0
        with pytest.raises(WireError):
            decoder.feed(bytes(bad))
        with pytest.raises(WireError, match="desynchronized"):
            decoder.feed(encode_frame(KIND_MSG, b"fine"))

    def test_truncation_waits_then_eof_raises(self):
        data = encode_frame(KIND_MSG, b"truncated")
        decoder = FrameDecoder()
        assert decoder.feed(data[:-3]) == []  # incomplete: no frame, no error
        assert decoder.pending == len(data) - 3
        with pytest.raises(WireError, match="mid-frame"):
            decoder.check_eof()

    def test_eof_at_clean_boundary_is_fine(self):
        decoder = FrameDecoder()
        decoder.feed(encode_frame(KIND_MSG, b"whole"))
        decoder.check_eof()


# -- message layer -------------------------------------------------------


class TestMessages:
    def test_small_message_single_frame(self):
        message = {"kind": "claim", "task": "t-01"}
        stream = MessageStream()
        assert stream.feed(encode_message(message)) == [message]

    def test_large_message_chunks(self):
        message = {"kind": "result", "blob": b"\xab" * (3 * DEFAULT_CHUNK_BYTES)}
        data = encode_message(message)
        decoder = FrameDecoder()
        kinds = [kind for kind, _ in decoder.feed(data)]
        assert kinds[0] == KIND_CHUNK_HEAD
        assert all(kind == KIND_CHUNK for kind in kinds[1:])
        assert len(kinds) >= 4  # head + at least 3 chunks
        stream = MessageStream()
        assert stream.feed(data) == [message]

    def test_custom_chunk_size(self):
        message = {"v": list(range(2000))}
        data = encode_message(message, chunk_bytes=128)
        assert MessageStream().feed(data) == [message]

    def test_interleaved_small_and_large(self):
        big = {"blob": b"\x01" * (DEFAULT_CHUNK_BYTES + 1)}
        small = {"kind": "heartbeat"}
        stream = MessageStream()
        got = stream.feed(
            encode_message(small) + encode_message(big) + encode_message(small)
        )
        assert got == [small, big, small]

    def test_chunk_without_header(self):
        with pytest.raises(WireError, match="without a chunk header"):
            MessageAssembler().feed(KIND_CHUNK, b"orphan")

    def test_none_is_a_valid_message(self):
        """``None`` round-trips — PENDING, not None, signals "incomplete"."""
        assert MessageStream().feed(encode_message(None)) == [None]

    def test_message_inside_chunk_run(self):
        assembler = MessageAssembler()
        head = pickle.dumps({"chunks": 2, "size": 4})
        assert assembler.feed(KIND_CHUNK_HEAD, head) is PENDING
        with pytest.raises(WireError, match="inside a chunk run"):
            assembler.feed(KIND_MSG, pickle.dumps({"kind": "stop"}))

    def test_header_inside_chunk_run(self):
        assembler = MessageAssembler()
        head = pickle.dumps({"chunks": 2, "size": 4})
        assembler.feed(KIND_CHUNK_HEAD, head)
        with pytest.raises(WireError, match="inside a chunk run"):
            assembler.feed(KIND_CHUNK_HEAD, head)

    def test_invalid_chunk_header(self):
        for head in ({"chunks": 0, "size": 4}, {"chunks": 2, "size": -1},
                     {"chunks": "2", "size": 4}, {}):
            with pytest.raises(WireError, match="invalid chunk header"):
                MessageAssembler().feed(KIND_CHUNK_HEAD, pickle.dumps(head))

    def test_size_mismatch(self):
        assembler = MessageAssembler()
        assembler.feed(KIND_CHUNK_HEAD, pickle.dumps({"chunks": 1, "size": 99}))
        with pytest.raises(WireError, match="announced"):
            assembler.feed(KIND_CHUNK, pickle.dumps({"x": 1}))

    def test_garbage_pickle_raises_wire_error(self):
        with pytest.raises(WireError, match="unpickle"):
            MessageAssembler().feed(KIND_MSG, b"\x80\x05 not a pickle")


# -- auth layer ----------------------------------------------------------


class TestAuthHandshake:
    """The HMAC handshake that gates the pickle layer on every stream."""

    def test_response_round_trips_and_returns_peer_nonce(self):
        nonce = os.urandom(AUTH_NONCE_BYTES)
        mine = os.urandom(AUTH_NONCE_BYTES)
        ((kind, payload),) = FrameDecoder().feed(
            encode_auth_response("secret", nonce, mine)
        )
        assert kind == KIND_AUTH
        assert verify_auth_response("secret", nonce, payload) == mine

    def test_wrong_secret_is_rejected(self):
        nonce = os.urandom(AUTH_NONCE_BYTES)
        ((_, payload),) = FrameDecoder().feed(
            encode_auth_response("wrong", nonce, os.urandom(AUTH_NONCE_BYTES))
        )
        with pytest.raises(WireError, match="secret mismatch"):
            verify_auth_response("right", nonce, payload)

    def test_response_is_bound_to_the_challenge_nonce(self):
        """A captured response does not replay against a fresh challenge."""
        ((_, payload),) = FrameDecoder().feed(encode_auth_response(
            "s", os.urandom(AUTH_NONCE_BYTES), os.urandom(AUTH_NONCE_BYTES)
        ))
        with pytest.raises(WireError, match="secret mismatch"):
            verify_auth_response("s", os.urandom(AUTH_NONCE_BYTES), payload)

    def test_response_mac_cannot_be_reflected_as_welcome(self):
        """Step MACs are domain-separated: echoing the dialer's own
        response MAC back as a welcome must not verify."""
        nonce = os.urandom(AUTH_NONCE_BYTES)
        ((_, payload),) = FrameDecoder().feed(
            encode_auth_response("s", nonce, nonce)
        )
        response_mac = payload[4:36]
        with pytest.raises(WireError):
            verify_auth_welcome("s", nonce, b"WEL2" + response_mac)

    def test_welcome_round_trips(self):
        nonce = os.urandom(AUTH_NONCE_BYTES)
        ((_, payload),) = FrameDecoder().feed(
            encode_auth_welcome("secret", nonce)
        )
        verify_auth_welcome("secret", nonce, payload)
        with pytest.raises(WireError, match="secret mismatch"):
            verify_auth_welcome("other", nonce, payload)

    def test_malformed_auth_payloads_raise(self):
        nonce = os.urandom(AUTH_NONCE_BYTES)
        for payload in (b"", b"RSP2", b"RSP2" + b"\0" * 10, b"\0" * 68):
            with pytest.raises(WireError, match="malformed"):
                verify_auth_response("s", nonce, payload)
        for payload in (b"", b"WEL2" + b"\0" * 5):
            with pytest.raises(WireError, match="malformed"):
                verify_auth_welcome("s", nonce, payload)

    def test_auth_frame_refused_by_the_message_layer(self):
        """Post-handshake, an auth frame can never reach pickle.loads."""
        with pytest.raises(WireError, match="outside the connection"):
            MessageAssembler().feed(KIND_AUTH, b"CHA2" + b"\0" * 32)

    def test_full_handshake_over_a_socketpair(self):
        """Both sides authenticate; bytes past the welcome are preserved."""
        secret = "s3cret"
        dialer, listener = socket.socketpair()
        errors = []

        def serve():
            try:
                nonce = os.urandom(AUTH_NONCE_BYTES)
                listener.sendall(encode_auth_challenge(nonce))
                decoder = FrameDecoder()
                frames = []
                while not frames:
                    frames.extend(decoder.feed(listener.recv(4096)))
                kind, payload = frames[0]
                assert kind == KIND_AUTH
                peer = verify_auth_response(secret, nonce, payload)
                listener.sendall(encode_auth_welcome(secret, peer))
                listener.sendall(encode_message({"kind": "payload"}))
            except Exception as exc:  # surfaced after join
                errors.append(exc)

        thread = threading.Thread(target=serve)
        thread.start()
        try:
            leftover = client_handshake(dialer, secret, timeout=5)
            thread.join(timeout=5)
            assert not errors
            stream = MessageStream()
            messages = stream.feed(leftover)
            dialer.settimeout(5)
            while not messages:
                messages = stream.feed(dialer.recv(4096))
            assert messages == [{"kind": "payload"}]
        finally:
            dialer.close()
            listener.close()

    def test_handshake_refuses_a_non_challenge_opening(self):
        dialer, listener = socket.socketpair()
        try:
            listener.sendall(encode_frame(KIND_MSG, b"not a challenge"))
            with pytest.raises(WireError, match="challenge"):
                client_handshake(dialer, "s", timeout=5)
        finally:
            dialer.close()
            listener.close()

    def test_eof_during_handshake_raises_not_hangs(self):
        dialer, listener = socket.socketpair()
        listener.close()
        try:
            with pytest.raises(WireError, match="closed during"):
                client_handshake(dialer, "s", timeout=5)
        finally:
            dialer.close()


# -- property: arbitrary payloads, arbitrary stream splits ---------------


@st.composite
def _payloads_and_cuts(draw):
    payloads = draw(st.lists(
        st.binary(min_size=0, max_size=512), min_size=1, max_size=6,
    ))
    stream = b"".join(encode_frame(KIND_MSG, p) for p in payloads)
    cuts = draw(st.lists(
        st.integers(min_value=0, max_value=len(stream)),
        max_size=8,
    ).map(sorted))
    return payloads, stream, cuts


@settings(max_examples=120, deadline=None)
@given(_payloads_and_cuts())
def test_frames_survive_arbitrary_splits(case):
    """encode -> split anywhere -> decode recovers every frame in order."""
    payloads, stream, cuts = case
    decoder = FrameDecoder()
    frames = _feed_in_pieces(decoder, stream, cuts)
    assert frames == [(KIND_MSG, p) for p in payloads]
    decoder.check_eof()


@settings(max_examples=80, deadline=None)
@given(
    obj=st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(max_size=40)
        | st.binary(max_size=40),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=8), inner, max_size=4),
        max_leaves=12,
    ),
    chunk_bytes=st.integers(min_value=16, max_value=1024),
    cut=st.integers(min_value=0, max_value=10_000),
)
def test_messages_round_trip_any_chunking(obj, chunk_bytes, cut):
    """Any picklable object survives encode/decode at any chunk size."""
    data = encode_message(obj, chunk_bytes=chunk_bytes)
    stream = MessageStream()
    got = stream.feed(data[:min(cut, len(data))])
    got += stream.feed(data[min(cut, len(data)):])
    assert got == [obj]
    stream.check_eof()


@settings(max_examples=60, deadline=None)
@given(
    payload=st.binary(min_size=1, max_size=256),
    flip=st.integers(min_value=0),
)
def test_any_single_byte_flip_is_detected(payload, flip):
    """Flipping any one byte of a frame raises; it never yields bad data."""
    data = bytearray(encode_frame(KIND_MSG, payload))
    data[flip % len(data)] ^= 0x5A
    decoder = FrameDecoder()
    try:
        frames = decoder.feed(bytes(data))
    except WireError:
        return  # detected: the stream is correctly refused
    # The flip must not have produced a frame with altered payload.
    assert frames == [] or frames == [(KIND_MSG, payload)]
