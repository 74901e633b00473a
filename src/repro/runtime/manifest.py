"""Campaign manifest: an append-only journal of completed units.

The :class:`~repro.runtime.cache.ResultCache` already persists every
completed unit result under a content digest, which is what makes an
interrupted campaign resumable at all.  The manifest is the lightweight
ledger *on top* of the cache that turns "some digests happen to be on
disk" into a first-class resume story:

* it records, per campaign (identified by the digest of its base key),
  the full ordered unit-digest list, so a resuming run can report how
  many units are already journaled before executing anything;
* it records per-unit completion lines with the attempt count, so the
  retry trace of a faulty run survives the run;
* it records interruption markers (SIGINT / ``KeyboardInterrupt``), so
  tooling can distinguish a cleanly finished campaign from one that
  needs resuming.

Format: JSONL, one self-describing object per line, append-only, at
``<dir>/<campaign_digest>.jsonl``.  Line types:

``{"type": "campaign", "version": 1, "campaign": d, "units": n}``
    Header, written once when the manifest is created.
``{"type": "unit", "digest": d, "attempts": k}``
    One completed unit (``attempts`` counts *failed* attempts before
    the success — 0 for a clean first run).
``{"type": "interrupt"}``
    The campaign was interrupted after the preceding lines.

Readers ignore unknown line types and stop at the first torn line, so a
manifest killed mid-append is still loadable — exactly the discipline
the result cache uses for its entries.  A manifest whose header does
not match the campaign being run (different unit count — e.g. the
campaign was re-keyed or resized) is rotated aside and restarted; the
cache entries themselves remain valid regardless.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

MANIFEST_VERSION = 1


class CampaignManifest:
    """Journal of one campaign's completed units (see module docstring)."""

    def __init__(self, path, campaign_digest, total_units):
        self.path = Path(path)
        self.campaign_digest = campaign_digest
        self.total_units = int(total_units)
        self.completed = {}  # unit digest -> failed-attempt count
        self.interrupted = False
        self._fh = None

    # -- construction ----------------------------------------------------
    @classmethod
    def open(cls, directory, campaign_digest, total_units):
        """Open (or create) the manifest of one campaign under ``directory``.

        Replays any existing journal first, so :attr:`completed` reflects
        every unit a previous (possibly interrupted) run finished.
        """
        directory = Path(directory)
        path = directory / f"{campaign_digest}.jsonl"
        manifest = cls(path, campaign_digest, total_units)
        if path.exists() and not manifest._replay():
            # Header mismatch: the campaign changed shape under the same
            # digest-named file (should not happen — the digest pins the
            # base key — but never trust a journal you cannot parse).
            manifest._rotate()
        return manifest

    def _replay(self):
        """Load existing lines; False if the header does not match."""
        self.completed = {}
        self.interrupted = False
        try:
            raw = self.path.read_text()
        except OSError:
            return True
        header_seen = False
        for line in raw.splitlines():
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                break  # torn tail from a killed writer: keep what parsed
            kind = entry.get("type")
            if kind == "campaign":
                if (entry.get("campaign") != self.campaign_digest
                        or entry.get("units") != self.total_units):
                    return False
                header_seen = True
            elif kind == "unit":
                self.completed[entry["digest"]] = int(entry.get("attempts", 0))
                self.interrupted = False
            elif kind == "interrupt":
                self.interrupted = True
            # unknown types: ignored (forward compatibility)
        return header_seen or not raw.strip()

    def _rotate(self):
        try:
            os.replace(self.path, self.path.with_suffix(".jsonl.stale"))
        except OSError:
            pass
        self.completed = {}
        self.interrupted = False

    # -- writing ---------------------------------------------------------
    def _append(self, entry):
        try:
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                header_needed = not self.path.exists()
                self._fh = open(self.path, "a")
                if header_needed:
                    json.dump(
                        {
                            "type": "campaign",
                            "version": MANIFEST_VERSION,
                            "campaign": self.campaign_digest,
                            "units": self.total_units,
                        },
                        self._fh,
                    )
                    self._fh.write("\n")
            json.dump(entry, self._fh)
            self._fh.write("\n")
            self._fh.flush()
        except OSError:
            # Journal I/O must never fail a campaign: the cache still
            # holds the results; only the ledger is degraded.
            self._fh = None

    def mark(self, digest, attempts=0):
        """Journal one completed unit."""
        self.completed[digest] = int(attempts)
        self.interrupted = False
        self._append({"type": "unit", "digest": digest, "attempts": int(attempts)})

    def note_interrupt(self):
        """Journal that the campaign was interrupted here."""
        self.interrupted = True
        self._append({"type": "interrupt"})

    def close(self):
        """Close the journal file handle; safe to call more than once."""
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None

    # -- queries ---------------------------------------------------------
    @property
    def complete(self):
        """Whether every unit of the campaign has been journaled done."""
        return len(self.completed) >= self.total_units

    def __contains__(self, digest):
        return digest in self.completed

    def __len__(self):
        return len(self.completed)
