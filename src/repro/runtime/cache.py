"""Durable store for campaign unit results and the campaign journal.

Re-running a sweep should only execute *new* points.  The store maps a
content digest — of the campaign's configuration (program fingerprint,
injector settings, policies, ...) plus the unit of work (seed and trial
range, or sweep item) — to the pickled unit result, and journals the
units each campaign completed, so an interrupted campaign resumes.

Layout: append-only *segment* files, one per writer (one
:class:`ResultCache` object in one process), named
``<creation time>-<pid>-<random>.seg`` and created on the writer's first
append.  Every record is one frame written with a single ``os.write``::

    magic u8 | kind u8 | key length u16 | payload length u32 | payload CRC32 u32
    key bytes | payload bytes

A frame holds a unit value (key: unit digest), a completed unit (key:
campaign digest; payload: ``"<unit digest> <failed attempts>"``) or an
interrupt marker (key: campaign digest).  No writer appends to another's
segment, so nothing is locked.  Torn-tail rule: reading a segment stops
at the first frame that does not fit in it (a writer killed mid-append);
a payload that fails its CRC is a miss.  The first lookup indexes every
segment from frame headers alone, in creation order; a hit is then one
``pread`` plus a CRC check, a miss a dict lookup.  See
``docs/campaigns.md`` ("The result cache").

The default directory is ``$REPRO_CACHE_DIR`` if set, else
``~/.cache/repro``.  Keys are canonicalized JSON hashed with SHA-256;
anything that changes the numbers must be part of the key, so a stale
hit is impossible as long as callers fingerprint their inputs honestly
(see :meth:`ResultCache.key`).  I/O failures degrade gracefully: an
unreadable entry is a miss, an unwritable directory makes ``put`` a
no-op.  The cache never makes a run fail — only slower.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import struct
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro import obs

#: Bump when the on-disk value format or keying scheme changes; old
#: entries then simply miss instead of deserializing garbage.
CACHE_VERSION = 3

MISS = object()
"""Sentinel returned by :meth:`ResultCache.get` on a miss (results may
legitimately be ``None``)."""

_FRAME = struct.Struct("<BBHII")  # magic, kind, key len, payload len, crc
_MAGIC = 0xC5
_VALUE, _DONE, _INTERRUPT = 1, 2, 3
_SEGMENT = ".seg"
#: Read descriptors kept open at once (one per segment that served a hit).
_MAX_READERS = 64


def default_cache_dir():
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def _canonical(obj):
    """Reduce ``obj`` to JSON-encodable form with deterministic identity."""
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    if isinstance(obj, float):
        # repr round-trips doubles exactly; json's float formatting does
        # too on modern pythons, but be explicit about intent.
        return repr(obj)
    if isinstance(obj, (list, tuple)):
        return [_canonical(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (bytes, bytearray)):
        return hashlib.sha256(bytes(obj)).hexdigest()
    raise TypeError(f"cannot canonicalize {type(obj).__name__} for a cache key")


def _json(obj):
    return json.dumps(_canonical(obj), separators=(",", ":"), sort_keys=True)


def stable_digest(*parts):
    """SHA-256 hex digest of canonicalized ``parts`` (order-sensitive)."""
    return hashlib.sha256(_json([CACHE_VERSION, list(parts)]).encode()).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/write counters for one :class:`ResultCache` lifetime."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    errors: int = 0

    def as_dict(self):
        """The counters as a plain dict (for run records and tests)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "errors": self.errors,
        }


class CampaignManifest:
    """One campaign's journal, from :meth:`ResultCache.journal`."""

    def __init__(self, cache, campaign_digest):
        self.cache = cache
        self.campaign_digest = campaign_digest
        self.completed = {}  # unit digest -> failed-attempt count
        self.interrupted = False

    def mark(self, digest, attempts=0):
        """Journal one completed unit."""
        self.completed[digest] = int(attempts)
        self.interrupted = False
        self.cache._append(_DONE, self.campaign_digest,
                           f"{digest} {int(attempts)}".encode())

    def note_interrupt(self):
        """Journal that the campaign was interrupted here."""
        self.interrupted = True
        self.cache._append(_INTERRUPT, self.campaign_digest, b"")

    def __contains__(self, digest):
        return digest in self.completed


class ResultCache:
    """Digest-addressed store of unit results plus the campaign journal."""

    def __init__(self, path=None):
        self._seg = None  # this writer's segment, created on first append
        self._fd = None
        self._pid = None  # process that created ``_fd``
        self._end = 0  # bytes appended to ``_seg``
        self._readers = {}  # other segment -> read descriptor
        self._index = None  # digest -> (segment, offset, length, crc)
        self._journals = {}  # campaign digest -> CampaignManifest
        self.path = Path(path) if path is not None else default_cache_dir()
        self.stats = CacheStats()

    def __del__(self):
        self._close()

    # -- keying ----------------------------------------------------------
    def key(self, *parts):
        """Digest for a unit of work; ``parts`` must pin down its result."""
        return stable_digest(*parts)

    def keyer(self, base_key):
        """``unit_key -> key(base_key, unit_key)``, hashing ``base_key`` once."""
        head = hashlib.sha256(
            f"[{_json(CACHE_VERSION)},[{_json(base_key)},".encode()
        )

        def digest(unit_key):
            h = head.copy()
            h.update(f"{_json(unit_key)}]]".encode())
            return h.hexdigest()

        return digest

    # -- access ----------------------------------------------------------
    def get(self, digest):
        """The stored value, or :data:`MISS`."""
        entry = self._load().get(digest)
        if entry is not None:
            value = self._read(*entry)
            if value is not MISS:
                self.stats.hits += 1
                obs.inc("runtime.cache.hits")
                return value
            # Bad CRC or stale pickle: a miss; put() appends a fresh frame.
            self.stats.errors += 1
            obs.inc("runtime.cache.errors")
        self.stats.misses += 1
        obs.inc("runtime.cache.misses")
        return MISS

    def put(self, digest, value):
        """Append ``value`` as one frame; failures are silent (cache-only).

        Safe under concurrent multi-process writers sharing the directory:
        each writes only its own segment.  Entries are digest-addressed,
        so two writers storing one digest store equivalent values.
        """
        payload = pickle.dumps(value)
        offset = self._append(_VALUE, digest, payload)
        if offset is None:
            return
        if self._index is not None:
            self._index[digest] = (self._seg, offset, len(payload), zlib.crc32(payload))
        self.stats.writes += 1
        obs.inc("runtime.cache.writes")

    def journal(self, campaign_digest):
        """The :class:`CampaignManifest` of one campaign, replayed."""
        self._load()
        if campaign_digest not in self._journals:
            self._journals[campaign_digest] = CampaignManifest(self, campaign_digest)
        return self._journals[campaign_digest]

    def interrupted(self):
        """Digests of the campaigns whose journal ends in an interrupt."""
        self._load()
        return sorted(d for d, j in self._journals.items() if j.interrupted)

    def clear(self):
        """Delete every segment (directory itself is kept); returns the
        number of entries removed."""
        n = len(self)
        self._close()
        for seg in self._segments():
            try:
                os.unlink(seg)
            except OSError:
                self.stats.errors += 1
        self._index = {}
        self._journals = {}
        return n

    def __len__(self):
        return len(self._load())

    # -- segments --------------------------------------------------------
    def _append(self, kind, key, payload):
        """Append one frame to this writer's segment; the payload's offset,
        or ``None`` when the write failed."""
        key = key.encode()
        frame = b"".join((
            _FRAME.pack(_MAGIC, kind, len(key), len(payload), zlib.crc32(payload)),
            key, payload,
        ))
        try:
            if self._fd is None or self._pid != os.getpid():
                self._open_segment()
            written = os.write(self._fd, frame)
        except OSError:
            written = -1
        if written != len(frame):
            # A short write leaves a torn frame: it stays this segment's
            # tail, and the next append starts a new segment.
            self._fd = None
            self.stats.errors += 1
            obs.inc("runtime.cache.errors")
            return None
        self._end += len(frame)
        return self._end - len(payload)

    def _open_segment(self):
        self.path.mkdir(parents=True, exist_ok=True)
        pid = os.getpid()
        name = f"{time.time_ns():016x}-{pid}-{os.urandom(4).hex()}{_SEGMENT}"
        seg = str(self.path / name)
        self._fd = os.open(seg, os.O_RDWR | os.O_CREAT | os.O_EXCL | os.O_APPEND, 0o644)
        self._seg, self._pid, self._end = seg, pid, 0

    def _segments(self):
        try:
            names = sorted(n for n in os.listdir(self.path) if n.endswith(_SEGMENT))
        except OSError:
            return []
        return [str(self.path / name) for name in names]

    def _load(self):
        """The index; the first call reads every segment, in creation order."""
        if self._index is None:
            self._index = {}
            for seg in self._segments():
                self._scan(seg)
        return self._index

    def _scan(self, seg):
        try:
            with open(seg, "rb") as fh:
                size = os.fstat(fh.fileno()).st_size
                pos = 0
                while pos + _FRAME.size <= size:
                    magic, kind, klen, plen, crc = _FRAME.unpack(fh.read(_FRAME.size))
                    start = pos + _FRAME.size + klen
                    pos = start + plen
                    if magic != _MAGIC or pos > size:
                        return  # torn tail (or not a segment): stop here
                    key = fh.read(klen).decode("ascii", "replace")
                    if kind == _VALUE:
                        self._index[key] = (seg, start, plen, crc)
                        fh.seek(plen, 1)
                        continue
                    payload = fh.read(plen)
                    if zlib.crc32(payload) != crc:
                        continue
                    journal = self.journal(key)
                    if kind == _DONE:
                        unit, _, attempts = payload.decode().partition(" ")
                        journal.completed[unit] = int(attempts)
                        journal.interrupted = False
                    elif kind == _INTERRUPT:
                        journal.interrupted = True
        except (OSError, ValueError, struct.error):
            pass

    def _read(self, seg, offset, length, crc):
        try:
            fd = self._fd if seg == self._seg else self._readers.get(seg)
            if fd is None:
                if len(self._readers) >= _MAX_READERS:
                    self._close_readers()
                fd = self._readers[seg] = os.open(seg, os.O_RDONLY)
            data = os.pread(fd, length, offset)
            if len(data) == length and zlib.crc32(data) == crc:
                return pickle.loads(data)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            pass
        return MISS

    def _close_readers(self):
        for fd in self._readers.values():
            os.close(fd)
        self._readers = {}

    def _close(self):
        self._close_readers()
        if self._fd is not None and self._pid == os.getpid():
            os.close(self._fd)
        self._seg = self._fd = None
