"""On-disk result cache for campaign chunks.

Re-running a sweep should only execute *new* points.  The cache maps a
content digest — computed from the campaign's configuration (program
fingerprint, injector settings, policies, ...) plus the unit of work
(seed and trial range, or sweep item) — to the pickled unit result.

Layout: one file per entry, ``<cache_dir>/<digest>.pkl``, written
atomically (temp file + :func:`os.replace`) so a killed run never leaves
a torn entry.  The default directory is ``$REPRO_CACHE_DIR`` if set,
else ``~/.cache/repro``.  Keys are canonicalized JSON hashed with
SHA-256; anything that changes the numbers must be part of the key, so a
stale hit is impossible as long as callers fingerprint their inputs
honestly (see :meth:`ResultCache.key`).

I/O failures degrade gracefully: an unreadable entry is a miss, an
unwritable directory makes ``put`` a no-op.  The cache never makes a run
fail — only slower.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro import obs

#: Bump when the on-disk value format or keying scheme changes; old
#: entries then simply miss instead of deserializing garbage.
CACHE_VERSION = 1

MISS = object()
"""Sentinel returned by :meth:`ResultCache.get` on a miss (results may
legitimately be ``None``)."""


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


def stable_digest(*parts):
    """SHA-256 hex digest of canonicalized ``parts`` (order-sensitive)."""
    payload = json.dumps(
        [CACHE_VERSION, _canonical(list(parts))], separators=(",", ":"), sort_keys=True
    )
    return hashlib.sha256(payload.encode()).hexdigest()


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


@dataclass
class ResultCache:
    """Digest-addressed pickle store for campaign unit results."""

    path: Path = None
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self):
        self.path = Path(self.path) if self.path is not None else default_cache_dir()

    # -- keying ----------------------------------------------------------
    def key(self, *parts):
        """Digest for a unit of work; ``parts`` must pin down its result."""
        return stable_digest(*parts)

    def _entry(self, digest):
        return self.path / f"{digest}.pkl"

    # -- access ----------------------------------------------------------
    def get(self, digest):
        """The stored value, or :data:`MISS`."""
        entry = self._entry(digest)
        try:
            with open(entry, "rb") as fh:
                value = pickle.load(fh)
        except FileNotFoundError:
            self.stats.misses += 1
            obs.inc("runtime.cache.misses")
            return MISS
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            # Torn/stale entry (e.g. written by an incompatible version):
            # treat as a miss; put() will overwrite it.
            self.stats.errors += 1
            self.stats.misses += 1
            obs.inc("runtime.cache.errors")
            obs.inc("runtime.cache.misses")
            return MISS
        self.stats.hits += 1
        obs.inc("runtime.cache.hits")
        return value

    def peek(self, digest):
        """The stored value, or :data:`MISS` — without counting hit/miss.

        The tcp transport with ``shared_cache=True`` uses the cache as
        its data channel (the worker persists the value, the scheduler
        reads it back); those reads must not inflate the campaign's
        cache-hit accounting, which reports memoization only.
        """
        try:
            with open(self._entry(digest), "rb") as fh:
                return pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            return MISS

    def contains(self, digest):
        """Whether an entry exists on disk, without loading or counting it.

        Used by resume tooling to cross-check a campaign manifest
        against the cache without disturbing the hit/miss statistics.
        """
        return self._entry(digest).exists()

    def put(self, digest, value):
        """Store ``value`` atomically; failures are silent (cache-only).

        Safe under concurrent multi-process writers (the distributed
        transports share one cache directory): each writer stages into
        its own ``mkstemp`` file and publishes with :func:`os.replace`,
        so readers only ever see complete entries.  Entries are
        digest-addressed — two writers racing on one digest are writing
        equivalent values — so losing the race to a winner that already
        published still counts as a successful write.
        """
        entry = self._entry(digest)
        try:
            self.path.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.path, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(value, fh)
                os.replace(tmp, entry)
            finally:
                try:
                    os.unlink(tmp)
                except FileNotFoundError:
                    pass
        except OSError:
            if entry.exists():
                # A concurrent writer won the race with an equivalent
                # value; the cache holds what we meant to store.
                self.stats.writes += 1
                obs.inc("runtime.cache.writes")
                return
            self.stats.errors += 1
            obs.inc("runtime.cache.errors")
            return
        self.stats.writes += 1
        obs.inc("runtime.cache.writes")

    def clear(self):
        """Delete every entry (directory itself is kept)."""
        if not self.path.is_dir():
            return 0
        n = 0
        for entry in self.path.glob("*.pkl"):
            try:
                entry.unlink()
                n += 1
            except OSError:
                self.stats.errors += 1
        return n

    def __len__(self):
        if not self.path.is_dir():
            return 0
        return sum(1 for _ in self.path.glob("*.pkl"))
