"""Pinned outputs of the per-instruction FI callers.

``label_instructions`` and ``ReplicationStudy._profile`` draw every
instruction's coordinates from one RNG and classify them by fault
injection.  These digests were captured from the per-trial
implementation; they prove that batching each instruction's trials into
one ``inject_many`` sweep preserves both the RNG order and every
outcome.
"""

import hashlib
import json

from repro.arch.programs import all_programs
from repro.arch.sdc_prediction import label_instructions
from repro.arch.selective_replication import ReplicationStudy

LABELS_DIGEST = (
    "a0b8ecf30f42ce9009c914bc99f8b03bda84297d6c950950c151ad6148335e1d"
)
REPLICATION_DIGEST = (
    "7e232db6c94ffbed219abbd7165d52b99da3a00b8aec6618b3a5a18faccc3fc5"
)


def _digest(payload):
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def test_label_instructions_pinned():
    labels = {
        p.name: label_instructions(p, 40, seed=3).tolist()
        for p in all_programs()
    }
    assert _digest(labels) == LABELS_DIGEST


def test_replication_profile_pinned():
    study = ReplicationStudy(all_programs(), 30, seed=0)
    payload = {
        name: {
            "sdc_trials": [list(t) for t in study._sdc_trials[name]],
            "labels": study._labels[name].tolist(),
        }
        for name in study._sdc_trials
    }
    assert _digest(payload) == REPLICATION_DIGEST
