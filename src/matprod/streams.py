"""Counter-based random streams.

Trial k of a run seeded with s draws from the stream derived from (s, k).
Streams depend only on that pair, never on execution order, so estimates are
reproducible under any batching or parallel schedule.

A stream is numpy's PCG64 seeded by ``SeedSequence(entropy=s, spawn_key=key)``,
and ``substream`` opens one. Opening one costs far more than drawing a trial's
uniforms from it, so ``uniforms`` computes a whole chunk of trials' doubles
without opening a generator. Their seed sequences hash the same words (the
seed, zero-padded to the pool size, then the key) and differ only in the last
one, k. ``SeedSequence(entropy=s, spawn_key=key)`` hashes exactly the shared
words, so its pool is the chunk's shared state; k's mixing step and
``generate_state(4, uint64)`` then run for the whole chunk as a few uint32
array operations on ``(T, 4)`` and ``(T, 2, 4)`` arrays. The constants below
are numpy's SeedSequence constants.

PCG64 (O'Neill, "PCG", HMC-CS-2014-0905) is a 128-bit LCG,
state -> a * state + inc mod 2**128 with numpy's multiplier a = _PCG_MULT.
Seeded with the words (w0, w1, w2, w3), it sets inc = 2 * (w2 w3) + 1 and
state S = ((w0 w1) + inc) * a + inc, and each draw steps the state and outputs
its XSL-RR, the 64-bit rotate right of hi ^ lo by the top 6 bits of the state;
``random()`` is that output's top 53 bits times 2**-53. So draw j of a stream
has the state a**j * S + (a**(j-1) + ... + 1) * inc (Brown, "Random number
generation with arbitrary strides", Trans. ANS 1994).

NEP 19 keeps SeedSequence and PCG64 stream-stable across numpy releases, and
``tests/test_streams.py`` pins ``uniforms`` to ``substream``'s doubles, bit for
bit.
"""

from __future__ import annotations

import operator

import numpy as np
from numpy.random import SeedSequence, default_rng

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

# PCG64's LCG multiplier (numpy's PCG_DEFAULT_MULTIPLIER_128)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
# uniforms computes rows of at most this many draws. Near it a generator's
# opening costs about what the closed form's work per draw does, and the jump
# table takes 139 KB.
_CLOSED_DRAWS = 256
_BITS_2_52 = np.float64(2.0**52).view(np.uint64)


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the stream identified by (seed, *key)."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return default_rng(SeedSequence(entropy=seed, spawn_key=tuple(key)))


def uniforms(seed: int, key, ks, n: int) -> np.ndarray:
    """(T, n) doubles whose row t is ``substream(seed, *key, ks[t]).random(n)``,
    bit for bit, for T = len(ks), computed without opening a generator.

    Row t's stream is seeded with initstate x = (w0 w1) and initseq
    y = (w2 w3), its words from _chunk_state. Its seeded state is
    S = a x + (a + 1) inc with inc = 2 y + 1, so draw j steps to the state
    a**(j+1) x + c_(j+2) (2 y + 1) mod 2**128, where
    c_m = 1 + a + ... + a**(m-1). With x and y in 16-bit limbs, each 32-bit
    group of that state, plus 2**52, is an inner product of the row's 16
    limbs and a 1 with a column of _JUMPS. Every partial sum is an integer
    below 2**53, so one float64 matmul gives them all exactly, in any
    summation order, and each double's bits are 2**52's exponent bits over
    its group. Integer array operations then carry the groups into the
    state's two words and apply the output rule. A row of more than
    _CLOSED_DRAWS draws, or a chunk with a k outside [0, 2**32), is read
    from each trial's ``substream`` instead.
    """
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    ks = [operator.index(k) for k in ks]
    key = tuple(key)
    if not 0 < n <= _CLOSED_DRAWS or ks and not 0 <= min(ks) <= max(ks) <= _MASK32:
        out = np.empty((len(ks), n))
        for row, k in zip(out, ks):
            substream(seed, *key, k).random(out=row)
        return out
    words = _chunk_state(seed, key, np.array(ks, dtype=np.uint32))
    limbs = np.ones((len(ks), 17))  # x's limbs, then y's, little end first, then a 1
    limbs[:, :16] = np.ascontiguousarray(words[:, [2, 3, 0, 1, 6, 7, 4, 5]], dtype="<u4").view("<u2")
    groups = np.matmul(limbs, _JUMPS[:, :, :n]).view(np.uint64)
    groups -= _BITS_2_52
    g0, g1, hi, g3 = groups  # each (T, n), least significant first
    lo = g1 << 32
    lo += g0
    g0 >>= 32
    g0 += g1
    g0 >>= 32  # the carry out of the low word
    hi += g0
    g3 <<= 32
    hi += g3
    rot = np.right_shift(hi, 58, out=g1)
    hi ^= lo
    np.right_shift(hi, rot, out=lo)
    hi <<= np.subtract(64, rot, out=rot)  # numpy shifts by 64 to 0, so rot 0 keeps hi ^ lo
    hi |= lo
    hi >>= 11
    return hi * 2.0**-53


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
    """(T, 8) uint32 words of the streams' PCG64 seeds, w0's low half first, for
    the streams (seed, *key, k) with k in the uint32 array ks."""
    # SeedSequence(seed, key) hashes every word of (seed, *key, k) but k, so its
    # pool is what the chunk shares: a seed shorter than the pool hashes as if
    # zero-padded, as the trials' sequences pad it. Each padded word took 4 hashes.
    shared = SeedSequence(entropy=seed, spawn_key=key)
    words = max(_word_count(seed), _POOL) + sum(_word_count(part) for part in key)
    last = _hash(ks[:, None], *_hash_consts(_INIT_A, _MULT_A, 4 * words, _POOL))
    mixed = _mix(shared.pool, last)
    return _hash(mixed[:, None], _STATE_BEFORE, _STATE_AFTER).reshape(len(ks), 2 * _POOL)


def _jump_table(n):
    """(4, 17, n) float64 whose [g, r, j] is the 32-bit group g of draw j's
    state per unit of ``uniforms``' limb r. Limb q of x weighs a**(j+1) 2**(16 q),
    limb q of y weighs 2 c_(j+2) 2**(16 q), and the 1 weighs c_(j+2) + 2**52.
    Group g of m 2**(16 q) mod 2**128 is the 32 bits of m from its limb
    2 g - q on, so each entry is below 2**32, and 2**52 more for the 1."""
    power, total, consts = _PCG_MULT**2 & _MASK128, 1 + _PCG_MULT, []
    for _ in range(n):
        total = total + power & _MASK128  # c_(j+2), with power = a**(j+1)
        consts += [power, total << 1 & _MASK128, total]
        power = power * _PCG_MULT & _MASK128
    limbs = np.zeros((3 * n, 16))  # limb s of each constant at 7 + s, zeros below
    limbs[:, 7:15] = np.frombuffer(
        b"".join(c.to_bytes(16, "little") for c in consts), "<u2").reshape(-1, 8)
    windows = limbs[:, :15] + 65536.0 * limbs[:, 1:]  # [:, 7 + s]: 32 bits from limb s
    windows = windows[:, 7 + 2 * np.arange(4)[:, None] - np.arange(8)].reshape(n, 3, 4, 8)
    table = np.empty((4, 17, n))
    table[:, :16] = windows[:, :2].transpose(2, 1, 3, 0).reshape(4, 16, n)
    table[:, 16] = windows[:, 2, :, 0].T + 2.0**52
    return table


_JUMPS = _jump_table(_CLOSED_DRAWS)
