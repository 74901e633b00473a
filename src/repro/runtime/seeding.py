"""Deterministic per-trial seed streams for parallel campaigns.

Parallel execution must not change results: a campaign chunked over N
worker processes has to produce bit-identical outcomes to the same
campaign run serially.  The classic bug is threading one RNG through the
trial loop — any re-chunking then reorders the stream and changes every
trial after the first chunk boundary.

The fix used here is :class:`numpy.random.SeedSequence` spawning: trial
``i`` of a campaign rooted at ``seed`` always draws from

    ``SeedSequence(entropy=seed, spawn_key=(i,))``

which is exactly the ``i``-th child of ``SeedSequence(seed).spawn(n)``
(verified in ``tests/test_runtime.py``) but can be constructed for any
single index without materializing the first ``i - 1`` siblings.  A
trial's stream therefore depends only on ``(seed, i)`` — never on which
chunk, process, or campaign size it ran under.

Building a ``SeedSequence`` and a ``PCG64`` :class:`numpy.random.Generator`
per trial costs ~25 µs, about as much as injecting the fault.
:func:`trial_integers` therefore replays the same stream — the
``SeedSequence`` entropy mix, ``PCG64`` seeding and XSL-RR output, and
``Generator.integers``' buffered 32-bit Lemire draws — in numpy across a
whole chunk at once.  Fault-injection coordinates come from it;
``tests/test_runtime_seeding.py`` pins it equal to per-trial
:func:`trial_rng` draws, so a numpy release that changes its stream
fails there.  :func:`trial_rng` (and ``TrialChunk.rngs()``) remains the
API for custom workers that need other distributions.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK32 = 0xFFFFFFFF
# numpy's SeedSequence constants (bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's default 128-bit multiplier, as (high, low) 64-bit words.
_PCG_MULT_HI = np.uint64(0x2360ED051FC65DA4)
_PCG_MULT_LO = np.uint64(0x4385DF649FCCF645)
# The low word's (low, high) 32-bit halves, for the 64x64 -> 128 multiply.
_PCG_MULT_LO_32 = (np.uint64(0x9FCCF645), np.uint64(0x4385DF64))


def trial_seed_sequence(seed, index):
    """The seed stream of trial ``index`` in a campaign rooted at ``seed``."""
    if index < 0:
        raise ValueError("trial index must be non-negative")
    return np.random.SeedSequence(entropy=seed, spawn_key=(int(index),))


def trial_rng(seed, index):
    """A fresh :class:`numpy.random.Generator` for one trial."""
    return np.random.default_rng(trial_seed_sequence(seed, index))


def trial_integers(seed, indices, highs):
    """Bounded integer draws for many trials, in one vectorized pass.

    Returns an ``(len(indices), len(highs))`` int64 array whose row for
    trial ``i`` holds what ``rng = trial_rng(seed, i)`` followed by
    ``rng.integers(0, highs[0])``, ``rng.integers(0, highs[1])``, …
    would return.  Each high must satisfy ``1 <= high <= 2**32``; seed and
    indices must be non-negative integers, indices below ``2**64``.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("seed must be non-negative")
    highs = [operator.index(h) for h in highs]
    if any(not 1 <= h <= 1 << 32 for h in highs):
        raise ValueError("every high must satisfy 1 <= high <= 2**32")
    indices = [operator.index(i) for i in indices]
    out = np.zeros((len(indices), len(highs)), dtype=np.int64)
    if not indices:
        return out
    if min(indices) < 0 or max(indices) >= 1 << 64:
        raise ValueError("trial indices must satisfy 0 <= index < 2**64")
    with np.errstate(over="ignore"):
        lanes = _Pcg64Lanes(_seed_states(seed, np.array(indices, dtype=np.uint64)))
        everyone = np.arange(len(indices))
        for j, high in enumerate(highs):
            if high == 1:
                continue
            draw = lanes.next32(everyone)
            if high == 1 << 32:
                out[:, j] = draw
                continue
            # Lemire: redraw the lanes whose low word falls below the bias.
            threshold = ((1 << 32) - high) % high
            m = draw * np.uint64(high)
            redo = np.flatnonzero((m & _MASK32) < threshold)
            while redo.size:
                m[redo] = lanes.next32(redo) * np.uint64(high)
                redo = redo[(m[redo] & _MASK32) < threshold]
            out[:, j] = m >> 32
    return out


def _hashmix(value, const):
    """SeedSequence's ``hashmix``; returns the value and the next constant."""
    value = value ^ const
    const = (const * _MULT_A) & _MASK32
    value = (value * const) & _MASK32
    return value ^ (value >> 16), const


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def _seed_states(seed, indices):
    """``SeedSequence(seed, spawn_key=(i,)).generate_state(4, uint64)`` per index.

    Returns four uint64 arrays (one per state word).  The pool holds
    32-bit words in uint64: Python ints while mixing the seed words,
    which every trial shares, and arrays once the spawn key enters.
    """
    entropy = []
    while True:
        entropy.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    # A spawn key is present, so numpy pads the seed words to the pool size.
    entropy += [0] * (_POOL_SIZE - len(entropy))
    const = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        value, const = _hashmix(word, const)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            value, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], value)
    # Spawn-key words: one for indices below 2**32, two above.
    pool = [np.full(len(indices), p, dtype=np.uint64) for p in pool]
    wide = np.flatnonzero(indices > _MASK32)
    for lanes, word in ((slice(None), indices & _MASK32), (wide, indices[wide] >> 32)):
        for dst in range(_POOL_SIZE):
            value, const = _hashmix(word, const)
            pool[dst][lanes] = _mix(pool[dst][lanes], value)
    const = _INIT_B
    words = []
    for k in range(2 * _POOL_SIZE):
        value = pool[k % _POOL_SIZE] ^ const
        const = (const * _MULT_B) & _MASK32
        value = (value * const) & _MASK32
        words.append(value ^ (value >> 16))
    return [words[2 * k] | (words[2 * k + 1] << 32) for k in range(_POOL_SIZE)]


class _Pcg64Lanes:
    """One PCG64 bit generator per lane, seeded like ``PCG64(SeedSequence)``."""

    def __init__(self, state):
        s0, s1, s2, s3 = state
        # state = 0; inc = (initseq << 1) | 1; step; state += initstate; step.
        self.inc_hi = (s2 << 1) | (s3 >> 63)
        self.inc_lo = (s3 << 1) | 1
        lo = self.inc_lo + s1
        self.hi = self.inc_hi + s0 + (lo < s1)
        self.lo = lo
        self._step(slice(None))
        self.has32 = np.zeros(len(s0), dtype=bool)
        self.buf32 = np.zeros(len(s0), dtype=np.uint64)

    def _step(self, lanes):
        """``state = state * MULT + inc`` (mod 2**128) on ``lanes``."""
        hi, lo = self.hi[lanes], self.lo[lanes]
        a0, a1 = lo & _MASK32, lo >> 32
        b0, b1 = _PCG_MULT_LO_32
        p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
        mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
        carry_hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
        hi = carry_hi + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO
        lo = lo * _PCG_MULT_LO + self.inc_lo[lanes]
        self.hi[lanes] = hi + self.inc_hi[lanes] + (lo < self.inc_lo[lanes])
        self.lo[lanes] = lo

    def next32(self, lanes):
        """The next 32-bit draw of each lane (low half first, high buffered)."""
        out = np.empty(len(lanes), dtype=np.uint64)
        buffered = self.has32[lanes]
        held = lanes[buffered]
        out[buffered] = self.buf32[held]
        self.has32[held] = False
        fresh = lanes[~buffered]
        self._step(fresh)
        hi, lo = self.hi[fresh], self.lo[fresh]
        rot = hi >> 58
        xored = hi ^ lo
        word = (xored >> rot) | (xored << ((64 - rot) & 63))
        out[~buffered] = word & _MASK32
        self.buf32[fresh] = word >> 32
        self.has32[fresh] = True
        return out
