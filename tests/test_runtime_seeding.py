"""Vectorized trial draws (``trial_integers``) against per-trial Generators.

``trial_integers`` replays numpy's ``SeedSequence`` → ``PCG64`` →
``Generator.integers`` stream across a whole chunk.  The oracle here is
the per-trial ``trial_rng(seed, i).integers(0, h)`` loop it replaces: if
a numpy release changes that stream, these tests are what must fail.
The pinned campaign digests below were captured with per-trial
Generators, so fault-injection records stay reproducible across the
switch.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import FaultInjector
from repro.arch import programs
from repro.runtime import TrialChunk, trial_integers, trial_rng

#: Bounds at the edges of the 32-bit path: no draw (1), powers of two,
#: rejection-heavy (2**31 + 1, 3 * 2**30) and the raw-draw case (2**32).
EDGE_HIGHS = [1, 2, 32, 2**31 + 1, 3 * 2**30, 2**32]

SEEDS = st.one_of(
    st.sampled_from([0, 1, 7]),
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**64),
    # More than four entropy words: the spawn key lands in the second
    # mixing loop.
    st.integers(2**128, 2**200),
)
STARTS = st.one_of(
    st.integers(0, 5000),
    # Ranges that straddle 2**32 mix one- and two-word spawn keys.
    st.integers(2**32 - 40, 2**32 + 5),
    st.integers(2**32, 2**64 - 100),
)
HIGHS = st.lists(
    st.one_of(st.sampled_from(EDGE_HIGHS), st.integers(1, 2**32)), max_size=6
)


def _oracle(seed, indices, highs):
    rows = []
    for i in indices:
        rng = trial_rng(seed, i)
        rows.append([int(rng.integers(0, h)) for h in highs])
    return np.array(rows, dtype=np.int64).reshape(len(indices), len(highs))


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, start=STARTS, n=st.integers(0, 40), highs=HIGHS)
def test_matches_per_trial_generators(seed, start, n, highs):
    indices = range(start, start + n)
    got = trial_integers(seed, indices, highs)
    assert got.dtype == np.int64
    assert got.shape == (n, len(highs))
    np.testing.assert_array_equal(got, _oracle(seed, indices, highs))


def test_edge_highs_mixed_in_one_call():
    # Every edge bound in one call, twice over, across the 2**32 index
    # boundary: the buffered high word must carry between columns.
    highs = EDGE_HIGHS + EDGE_HIGHS[::-1]
    for seed in (0, 3, 2**40 + 1, 2**130 + 17):
        indices = range(2**32 - 8, 2**32 + 8)
        np.testing.assert_array_equal(
            trial_integers(seed, indices, highs), _oracle(seed, indices, highs)
        )


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, start=STARTS, cuts=st.lists(st.integers(0, 60), min_size=2,
                                               max_size=2), highs=HIGHS)
def test_chunk_split_invariance(seed, start, cuts, highs):
    a, b, c = start, start + min(cuts), start + max(cuts)
    whole = trial_integers(seed, range(a, c), highs)
    parts = np.concatenate([trial_integers(seed, range(a, b), highs),
                            trial_integers(seed, range(b, c), highs)])
    np.testing.assert_array_equal(whole, parts)


def test_trial_chunk_integers_matches_rngs():
    chunk = TrialChunk(seed=11, start=100, stop=140)
    draws = chunk.integers(1000, 7, 32)
    expected = [[int(r.integers(0, 1000)), int(r.integers(7)), int(r.integers(0, 32))]
                for r in chunk.rngs()]
    assert draws.tolist() == expected


@pytest.mark.parametrize("seed, indices, highs", [
    (0, range(4), [0]),
    (0, range(4), [2**32 + 1]),
    (0, range(4), [5, -3]),
    (-1, range(4), [5]),
    (0, [3, -1], [5]),
    (0, [2**64], [5]),
])
def test_invalid_inputs_rejected(seed, indices, highs):
    with pytest.raises(ValueError):
        trial_integers(seed, indices, highs)


def test_empty_inputs():
    assert trial_integers(1, range(0), [5]).shape == (0, 1)
    assert trial_integers(1, range(3), []).shape == (3, 0)


def _records_digest(records):
    # The same tuple perfbench hashes for its records digest.
    h = hashlib.sha256()
    for r in records:
        h.update(
            f"{r.program},{r.cycle},{r.element},{r.bit},{r.outcome.value},"
            f"{r.pc_at_injection},{r.opcode_at_injection};".encode()
        )
    return h.hexdigest()


#: Captured with per-trial Generators drawing each trial's coordinates.
PINNED_CAMPAIGNS = {
    "checksum": "70ede38549fc68fd7f0c135e631d39c4d183c235d3ae33a4b9137d4adfb2d9b0",
    "matmul": "7137d0dff9f1eabac1134fe6d32c33626282c160bdb100a7d749664df457a11c",
}
PINNED_ELEMENT = "395a7d5453c3551afffe18de6bc90be124063191eca03d66a37a62badd7bbe5a"


@pytest.mark.parametrize("name", sorted(PINNED_CAMPAIGNS))
def test_random_campaign_records_pinned(name):
    injector = FaultInjector(getattr(programs, name)())
    result = injector.run_campaign(n_trials=1024, seed=7)
    assert _records_digest(result.records) == PINNED_CAMPAIGNS[name]


def test_element_campaign_records_pinned():
    injector = FaultInjector(programs.checksum())
    result = injector.exhaustive_element_campaign("reg3", n_trials=300, seed=5)
    assert _records_digest(result.records) == PINNED_ELEMENT
