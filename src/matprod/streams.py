"""Counter-based random streams.

Trial k of a run seeded with s draws from the stream derived from (s, k).
Streams depend only on that pair, never on execution order, so estimates are
reproducible under any batching or parallel schedule.

A stream is numpy's PCG64 seeded by ``SeedSequence(entropy=s, spawn_key=key)``.
Opening one costs far more than drawing a trial's uniforms from it, so
``substreams`` opens a whole chunk of trials' streams at once. Their seed
sequences hash the same words (the seed, zero-padded to the pool size, then the
key) and differ only in the last one, k. ``SeedSequence(entropy=s,
spawn_key=key)`` hashes exactly the shared words, so its pool is the chunk's
shared state; k's mixing step and ``generate_state(4, uint64)`` then run for the
whole chunk as a few uint32 array operations on ``(T, 4)`` and ``(T, 2, 4)``
arrays, and each trial's PCG64 is seeded from its row of words. The constants
below are numpy's SeedSequence constants: NEP 19 keeps SeedSequence and PCG64
stream-stable across numpy releases, and ``tests/test_streams.py`` pins the
generators to ``substream``'s, state for state.

PCG64 reads the seed words through the raw data pointer of the array that
``generate_state`` returns and ignores its strides, so each row handed over
must be C-contiguous: a strided view silently seeds another state.
"""

from __future__ import annotations

import operator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Documented default used by the CLI and the acceptance suite.
DEFAULT_SEED = 1729

# numpy's SeedSequence hash, over a pool of 4 uint32 words
_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_L = 0xCA01F9DD
_MIX_R = 0x4973F715
_POOL = 4


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the stream identified by (seed, *key)."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))


def substreams(seed: int, key, ks):
    """Generators equal to ``substream(seed, *key, k)`` for each k in ks, in order.

    The seeds of the whole chunk are hashed together; the generators are made
    one at a time as the caller takes them. A chunk with a k outside
    [0, 2**32), whose word count differs, opens each stream with substream.
    """
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    ks = [operator.index(k) for k in ks]
    key = tuple(key)
    if ks and not 0 <= min(ks) <= max(ks) <= _MASK32:
        return (substream(seed, *key, k) for k in ks)
    words = _chunk_state(seed, key, np.array(ks, dtype=np.uint32))
    return (np.random.Generator(np.random.PCG64(_Words(row))) for row in words)


class _Words(ISeedSequence):
    """A seed sequence that hands PCG64 its four precomputed uint64 words."""

    __slots__ = ("words",)

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _hash_consts(init, mult, skip, count):
    """uint32 arrays of the hash constant before and after each of count hashes
    that follow skip hashes from init; the i-th constant is init * mult**i mod 2**32."""
    consts = [init * pow(mult, skip, 1 << 32) & _MASK32]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    consts = np.array(consts, dtype=np.uint32)
    return consts[:-1], consts[1:]


def _hash(values, before, after):
    """numpy's hashmix of uint32 arrays, under the hash constants before and after."""
    values = (values ^ before) * after
    return values ^ (values >> 16)


def _mix(x, y):
    """numpy's pool mix of uint32 arrays."""
    out = _MIX_L * x - _MIX_R * y
    return out ^ (out >> 16)


# generate_state(4, uint64) hashes the pool words in turn into 8 uint32 words
_STATE_BEFORE, _STATE_AFTER = (c.reshape(2, _POOL)
                               for c in _hash_consts(_INIT_B, _MULT_B, 0, 2 * _POOL))


def _word_count(n):
    """How many uint32 words SeedSequence splits the nonnegative int n into."""
    return max(1, -(-operator.index(n).bit_length() // 32))


def _chunk_state(seed, key, ks):
    """(T, 4) C-contiguous uint64 PCG64 seeds of the streams (seed, *key, k), for k
    in the uint32 array ks."""
    # SeedSequence(seed, key) hashes every word of (seed, *key, k) but k, so its
    # pool is what the chunk shares: a seed shorter than the pool hashes as if
    # zero-padded, as the trials' sequences pad it. Each padded word took 4 hashes.
    shared = np.random.SeedSequence(entropy=seed, spawn_key=key)
    words = max(_word_count(seed), _POOL) + sum(_word_count(part) for part in key)
    last = _hash(ks[:, None], *_hash_consts(_INIT_A, _MULT_A, 4 * words, _POOL))
    mixed = _mix(shared.pool, last)
    state = _hash(mixed[:, None], _STATE_BEFORE, _STATE_AFTER).reshape(len(ks), 2 * _POOL)
    return state.astype("<u4").view("<u8").astype(np.uint64)
