"""Frame codec for stream transports: length-prefixed, versioned, checksummed.

A TCP stream is just bytes — no message boundaries, no integrity, no
version negotiation.  This module supplies all three in one small frame
format shared by the :mod:`~repro.runtime.transports.tcp` scheduler and
worker endpoints (and any future stream transport)::

    MAGIC(2) | VERSION(1) | KIND(1) | LEN(4, big-endian) | payload | CRC32(4)

The CRC32 covers header *and* payload, so a flipped length byte cannot
silently desynchronize the stream: any corruption surfaces as a
:class:`WireError` on the frame where it happened, and the decoder
refuses to continue (a corrupt length makes every later boundary
guesswork — the only safe recovery is dropping the connection).

Three layers:

* **frames** — :func:`encode_frame` / :class:`FrameDecoder` move opaque
  byte payloads with integrity.  ``KIND`` distinguishes a self-contained
  message frame from the header/body frames of a chunked message and
  from the raw handshake frames of the auth layer.
* **authentication** — message payloads are pickles, and
  ``pickle.loads`` on attacker-controlled bytes is arbitrary code
  execution, so no payload may be deserialized before the peer is
  authenticated.  Every connection therefore opens with a mutual
  HMAC-SHA256 challenge/response over a shared secret
  (:func:`encode_auth_challenge` … :func:`client_handshake`, modeled on
  :mod:`multiprocessing.connection`'s authkey handshake): the listener
  sends a nonce, the dialer answers ``HMAC(secret, nonce)`` plus its
  own nonce, and the listener's welcome proves *it* holds the secret
  too before the dialer unpickles a campaign payload.  Handshake frames
  (:data:`KIND_AUTH`) carry raw bytes only — they are compared, never
  unpickled — and :class:`MessageAssembler` refuses them outright, so
  an unauthenticated peer can never reach the pickle layer.
* **messages** — :func:`encode_message` / :class:`MessageAssembler`
  (or the combined :class:`MessageStream`) move pickled dicts.  Small
  messages ride in one frame; large ones (streamed campaign results)
  are split into bounded chunk frames so a multi-megabyte value neither
  forces a giant single allocation nor stalls heartbeat traffic behind
  one unbounded write.

Truncation (EOF mid-frame) is *not* corruption — a half-received frame
simply waits for more bytes — but :meth:`FrameDecoder.check_eof` lets a
connection teardown distinguish "clean boundary" from "the peer died
mid-frame".
"""

from __future__ import annotations

import hashlib
import hmac
import pickle
import secrets
import struct
import zlib

#: First two bytes of every frame ("repro wire").
MAGIC = b"RW"

#: Protocol version; bumped on any incompatible frame/message change.
#: v2 made the auth handshake mandatory; v3 dropped the shared-cache
#: result references (task ``digests``, payload ``cache_dir``, result
#: ``stored``): values always ride the wire.
VERSION = 3

#: Frame kinds: one self-contained message, a chunked message's header
#: and body frames, or a raw (never pickled) auth-handshake frame.
KIND_MSG = 1
KIND_CHUNK_HEAD = 2
KIND_CHUNK = 3
KIND_AUTH = 4

_KNOWN_KINDS = frozenset((KIND_MSG, KIND_CHUNK_HEAD, KIND_CHUNK, KIND_AUTH))

#: Struct layout of the fixed header (magic, version, kind, payload len).
_HEADER = struct.Struct(">2sBBI")

#: CRC32 trailer layout.
_TRAILER = struct.Struct(">I")

#: Hard per-frame payload ceiling.  A corrupt length field would
#: otherwise make the decoder buffer gigabytes waiting for a frame that
#: never completes; anything larger travels as chunked frames.
MAX_FRAME_PAYLOAD = 8 * 1024 * 1024

#: Default chunk size for large messages — big enough to amortize frame
#: overhead, small enough to keep the stream responsive between chunks.
DEFAULT_CHUNK_BYTES = 256 * 1024

#: Refuse to assemble a chunked message larger than this (corruption
#: guard mirroring :data:`MAX_FRAME_PAYLOAD` at the message layer).
MAX_MESSAGE_BYTES = 1024 * 1024 * 1024


class WireError(RuntimeError):
    """A frame or message violated the wire protocol (drop the stream)."""


def encode_frame(kind, payload):
    """Encode one frame: header + payload + CRC32 over both."""
    if kind not in _KNOWN_KINDS:
        raise WireError(f"unknown frame kind {kind!r}")
    if len(payload) > MAX_FRAME_PAYLOAD:
        raise WireError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_PAYLOAD}-byte frame ceiling (chunk it)"
        )
    header = _HEADER.pack(MAGIC, VERSION, kind, len(payload))
    crc = zlib.crc32(payload, zlib.crc32(header)) & 0xFFFFFFFF
    return header + payload + _TRAILER.pack(crc)


class FrameDecoder:
    """Incremental frame parser over an arbitrary byte stream.

    Feed it whatever ``recv`` returned — single bytes, half frames,
    several frames at once — and it yields every complete
    ``(kind, payload)`` pair while buffering the remainder.  Any
    protocol violation (bad magic, unknown version, oversize length,
    CRC mismatch) raises :class:`WireError` and poisons the decoder:
    once framing is lost there is no trustworthy boundary left, so all
    further feeding raises too and the caller must drop the connection.
    """

    def __init__(self):
        self._buf = bytearray()
        self._broken = False

    def feed(self, data):
        """Consume bytes; return the list of completed ``(kind, payload)``."""
        if self._broken:
            raise WireError("frame stream already desynchronized")
        self._buf += data
        frames = []
        try:
            while True:
                frame = self._next_frame()
                if frame is None:
                    return frames
                frames.append(frame)
        except WireError:
            self._broken = True
            raise

    def _next_frame(self):
        if len(self._buf) < _HEADER.size:
            return None
        magic, version, kind, length = _HEADER.unpack_from(self._buf)
        if magic != MAGIC:
            raise WireError(f"bad frame magic {bytes(magic)!r}")
        if version != VERSION:
            raise WireError(
                f"peer speaks wire protocol v{version}, we speak v{VERSION}"
            )
        if kind not in _KNOWN_KINDS:
            raise WireError(f"unknown frame kind {kind}")
        if length > MAX_FRAME_PAYLOAD:
            raise WireError(
                f"frame announces {length} payload bytes, over the "
                f"{MAX_FRAME_PAYLOAD}-byte ceiling"
            )
        total = _HEADER.size + length + _TRAILER.size
        if len(self._buf) < total:
            return None  # truncated: wait for more bytes
        payload = bytes(self._buf[_HEADER.size:_HEADER.size + length])
        (crc,) = _TRAILER.unpack_from(self._buf, _HEADER.size + length)
        expect = zlib.crc32(
            payload, zlib.crc32(bytes(self._buf[:_HEADER.size]))
        ) & 0xFFFFFFFF
        if crc != expect:
            raise WireError(
                f"frame CRC mismatch (got {crc:#010x}, want {expect:#010x})"
            )
        del self._buf[:total]
        return kind, payload

    @property
    def pending(self):
        """Bytes buffered toward an incomplete frame."""
        return len(self._buf)

    def check_eof(self):
        """Raise :class:`WireError` if EOF landed mid-frame."""
        if self._buf:
            raise WireError(
                f"stream ended mid-frame with {len(self._buf)} bytes pending"
            )


def encode_message(obj, chunk_bytes=DEFAULT_CHUNK_BYTES):
    """Pickle ``obj`` and encode it as one frame or a chunked sequence.

    Messages at or under ``chunk_bytes`` travel as a single
    :data:`KIND_MSG` frame.  Larger ones become a :data:`KIND_CHUNK_HEAD`
    frame announcing the chunk count and total size, followed by that
    many :data:`KIND_CHUNK` frames — which is how multi-megabyte result
    values stream over the wire without a cache directory in common.
    Returns the ready-to-send bytes.
    """
    body = pickle.dumps(obj)
    if len(body) <= chunk_bytes:
        return encode_frame(KIND_MSG, body)
    chunks = [
        body[off:off + chunk_bytes] for off in range(0, len(body), chunk_bytes)
    ]
    head = pickle.dumps({"chunks": len(chunks), "size": len(body)})
    parts = [encode_frame(KIND_CHUNK_HEAD, head)]
    parts.extend(encode_frame(KIND_CHUNK, chunk) for chunk in chunks)
    return b"".join(parts)


# -- authentication ------------------------------------------------------

#: Size of each side's random challenge nonce.
AUTH_NONCE_BYTES = 32

#: HMAC-SHA256 digest length.
_MAC_BYTES = 32

# Four-byte payload prefixes naming each handshake step.  The MAC of
# each step is keyed on its own prefix, so a response can never be
# replayed as a welcome (and vice versa) — no reflection attacks.
_AUTH_CHALLENGE = b"CHA2"
_AUTH_RESPONSE = b"RSP2"
_AUTH_WELCOME = b"WEL2"


def _secret_bytes(secret):
    if isinstance(secret, str):
        return secret.encode("utf-8")
    return bytes(secret)


def _auth_mac(secret, step, nonce):
    return hmac.new(_secret_bytes(secret), step + nonce, hashlib.sha256).digest()


def encode_auth_challenge(nonce):
    """Listener's opening frame: prove you know the secret for ``nonce``."""
    if len(nonce) != AUTH_NONCE_BYTES:
        raise WireError("auth nonce has the wrong size")
    return encode_frame(KIND_AUTH, _AUTH_CHALLENGE + nonce)


def encode_auth_response(secret, challenge_nonce, my_nonce):
    """Dialer's answer: the challenge's MAC plus a counter-challenge."""
    return encode_frame(
        KIND_AUTH,
        _AUTH_RESPONSE
        + _auth_mac(secret, _AUTH_RESPONSE, challenge_nonce)
        + my_nonce,
    )


def verify_auth_response(secret, nonce, payload):
    """Check a response against our challenge; return the peer's nonce.

    Raises :class:`WireError` on any mismatch — the caller must drop
    the connection without ever having unpickled a byte from it.
    """
    expected_len = len(_AUTH_RESPONSE) + _MAC_BYTES + AUTH_NONCE_BYTES
    if len(payload) != expected_len or not payload.startswith(_AUTH_RESPONSE):
        raise WireError("malformed auth response")
    mac = payload[len(_AUTH_RESPONSE):len(_AUTH_RESPONSE) + _MAC_BYTES]
    if not hmac.compare_digest(mac, _auth_mac(secret, _AUTH_RESPONSE, nonce)):
        raise WireError("auth response rejected (secret mismatch)")
    return payload[len(_AUTH_RESPONSE) + _MAC_BYTES:]


def encode_auth_welcome(secret, peer_nonce):
    """Listener's final frame: prove we too hold the secret."""
    return encode_frame(
        KIND_AUTH, _AUTH_WELCOME + _auth_mac(secret, _AUTH_WELCOME, peer_nonce)
    )


def verify_auth_welcome(secret, nonce, payload):
    """Check the listener's welcome against our counter-challenge."""
    if (len(payload) != len(_AUTH_WELCOME) + _MAC_BYTES
            or not payload.startswith(_AUTH_WELCOME)):
        raise WireError("malformed auth welcome")
    mac = payload[len(_AUTH_WELCOME):]
    if not hmac.compare_digest(mac, _auth_mac(secret, _AUTH_WELCOME, nonce)):
        raise WireError("auth welcome rejected (secret mismatch)")


def client_handshake(sock, secret, timeout=None):
    """Run the dialing side of the handshake on a blocking socket.

    Waits for the listener's challenge, answers it, counter-challenges,
    and verifies the welcome — only frame-level parsing happens here;
    nothing received is unpickled until the listener has proven it
    holds the secret.  Returns any bytes that arrived after the welcome
    frame (feed them to the connection's :class:`MessageStream`).
    Raises :class:`WireError` if the handshake fails or the peer closes
    mid-handshake (the listener drops unauthenticated peers silently).
    """
    decoder = FrameDecoder()
    pending = []

    def recv_frame():
        while not pending:
            data = sock.recv(65536)
            if not data:
                raise WireError(
                    "connection closed during the auth handshake "
                    "(secret mismatch, or the peer is not a repro scheduler?)"
                )
            pending.extend(decoder.feed(data))
        return pending.pop(0)

    if timeout is not None:
        sock.settimeout(timeout)
    kind, payload = recv_frame()
    if (kind != KIND_AUTH
            or len(payload) != len(_AUTH_CHALLENGE) + AUTH_NONCE_BYTES
            or not payload.startswith(_AUTH_CHALLENGE)):
        raise WireError("peer did not open with an auth challenge")
    my_nonce = secrets.token_bytes(AUTH_NONCE_BYTES)
    sock.sendall(encode_auth_response(
        secret, payload[len(_AUTH_CHALLENGE):], my_nonce
    ))
    kind, payload = recv_frame()
    if kind != KIND_AUTH:
        raise WireError("peer sent a non-auth frame before the welcome")
    verify_auth_welcome(secret, my_nonce, payload)
    # Frames decoded past the welcome re-encode losslessly; tack on the
    # decoder's undecoded remainder so the caller loses nothing.
    return (
        b"".join(encode_frame(k, p) for k, p in pending)
        + bytes(decoder._buf)
    )


class _Pending:
    """Singleton marking "no message completed yet" (see :data:`PENDING`)."""

    def __repr__(self):
        return "PENDING"


#: Returned by :meth:`MessageAssembler.feed` when the frame did not
#: complete a message.  A distinct sentinel — not ``None`` — because
#: ``None`` is itself a perfectly valid picklable message.
PENDING = _Pending()


class MessageAssembler:
    """Rebuild pickled messages from decoded frames (chunked or not)."""

    def __init__(self):
        self._expect = 0  # chunk frames still owed by the current message
        self._size = 0
        self._parts = []

    def feed(self, kind, payload):
        """Absorb one frame; return the message or :data:`PENDING`."""
        if kind == KIND_MSG:
            if self._expect:
                raise WireError("message frame arrived inside a chunk run")
            return self._load(payload)
        if kind == KIND_CHUNK_HEAD:
            if self._expect:
                raise WireError("chunk header arrived inside a chunk run")
            head = self._load(payload)
            chunks, size = head.get("chunks"), head.get("size")
            if (not isinstance(chunks, int) or chunks < 1
                    or not isinstance(size, int) or size < 0
                    or size > MAX_MESSAGE_BYTES):
                raise WireError(f"invalid chunk header {head!r}")
            self._expect, self._size, self._parts = chunks, size, []
            return PENDING
        if kind == KIND_CHUNK:
            if not self._expect:
                raise WireError("chunk frame arrived without a chunk header")
            self._parts.append(payload)
            self._expect -= 1
            if self._expect:
                return PENDING
            body = b"".join(self._parts)
            self._parts = []
            if len(body) != self._size:
                raise WireError(
                    f"chunked message reassembled to {len(body)} bytes, "
                    f"header announced {self._size}"
                )
            return self._load(body)
        if kind == KIND_AUTH:
            # Handshake frames are raw bytes handled before the message
            # layer; one arriving here means the peer restarted the
            # handshake mid-session (or is probing) — drop it.
            raise WireError("auth frame outside the connection handshake")
        raise WireError(f"unknown frame kind {kind}")

    @staticmethod
    def _load(body):
        try:
            return pickle.loads(body)
        except Exception as exc:
            raise WireError(f"message payload failed to unpickle: {exc!r}")


class MessageStream:
    """One peer's receive side: bytes in, whole messages out."""

    def __init__(self):
        self._decoder = FrameDecoder()
        self._assembler = MessageAssembler()

    def feed(self, data):
        """Consume stream bytes; return every message completed by them."""
        messages = []
        for kind, payload in self._decoder.feed(data):
            message = self._assembler.feed(kind, payload)
            if message is not PENDING:
                messages.append(message)
        return messages

    def check_eof(self):
        """Raise :class:`WireError` if the stream ended mid-frame."""
        self._decoder.check_eof()
