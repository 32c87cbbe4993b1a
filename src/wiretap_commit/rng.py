"""Deterministic randomness: counter-based Philox streams.

Every simulation entry point takes an integer seed and turns it into a
Philox generator.  Trial i of a Monte Carlo estimator draws from
SeedSequence(seed, spawn_key=(i,)), which by numpy's definition is
SeedSequence(seed).spawn(trials)[i]; a party stream k of that trial is
SeedSequence(seed, spawn_key=(i, k)), what make_rng(trial i).spawn(3)[k]
yields.  A stream depends only on (seed, i, k), so results are
bit-identical for a given seed no matter how trials are chunked across
workers.

Monte Carlo workers build none of these SeedSequences.  TrialSeeds.keys
derives the Philox key of stream (i, *path) for a whole chunk of trials
in one numpy pass of the SeedSequence algorithm.

Philox4x64-10 is counter-based (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC 2011): word j of a keyed stream is a
pure function of the key and j.  philox_words computes the first words
of many streams in one array pass, exactly as np.random.Philox(key=k)
.random_raw would.  Every draw the package makes is then a fixed
function of those raw words, the one numpy's Generator applies:

* integers(0, 2, size, dtype=np.uint8): bit 7 of consecutive bytes of
  the uint32 stream, which is the low then the high half of each word,
  each half little-endian.  Each call starts at the next uint32
  (byte_bits).
* integers(0, 2) with the default dtype: bit 31 of the next uint32
  (uint32_bit); after a one-byte draw that is bit 63 of word 0.
* random(): (word >> 11) * 2^-53, one word per double (doubles).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ScaleError

INDEX_LIMIT = 1 << 32  # spawn-key entries numpy keeps as one uint32 word

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_ZERO4 = np.zeros(4, dtype=np.uint64)

# Philox4x64-10 constants (Random123; numpy/random/src/philox/philox.h)
_PHILOX_MUL = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_BUMP = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(_MASK32)
_SHIFT32 = np.uint64(32)


def make_rng(seed) -> np.random.Generator:
    """Philox generator from an integer seed or SeedSequence."""
    if isinstance(seed, np.random.Generator):
        return seed
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.Generator(np.random.Philox(seed))


def rekey(gen: np.random.Generator, key: np.ndarray) -> np.random.Generator:
    """Restart gen's Philox at counter 0 under key, with an empty buffer.

    gen then draws exactly what a fresh np.random.Philox(key=key) would,
    whatever it drew before.  Returns gen.
    """
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO4, "key": key},
        "buffer": _ZERO4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return gen


def _mulhi(m: int, x: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products m * x, built from 32-bit
    halves (numpy has no 128-bit integers)."""
    m_lo, m_hi = np.uint64(m & _MASK32), np.uint64(m >> 32)
    half = x & _LOW32
    low = half * m_lo
    low >>= _SHIFT32
    mid = half * m_hi
    mid += low                                # m_hi x_lo + carry of m_lo x_lo
    np.right_shift(x, _SHIFT32, out=half)
    np.multiply(half, m_lo, out=low)
    low += mid & _LOW32                       # m_lo x_hi + low half of mid
    low >>= _SHIFT32
    mid >>= _SHIFT32
    low += mid
    np.multiply(half, m_hi, out=mid)
    mid += low                                # m_hi x_hi + both carries
    return mid


def _philox_blocks(k0: np.ndarray, k1: np.ndarray, counter: np.ndarray) -> np.ndarray:
    """(m, 4) uint64: Philox4x64-10 of 1-D counters (upper counter words
    zero) under 1-D keys (k0, k1), one output block per entry."""
    c0, c2 = counter.astype(np.uint64), np.zeros(counter.shape, dtype=np.uint64)
    c1, c3 = c2.copy(), c2.copy()
    k0, k1 = k0.copy(), k1.copy()
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0 += np.uint64(_PHILOX_BUMP[0])
            k1 += np.uint64(_PHILOX_BUMP[1])
        hi0 = _mulhi(_PHILOX_MUL[0], c0)
        hi1 = _mulhi(_PHILOX_MUL[1], c2)
        c0 *= np.uint64(_PHILOX_MUL[0])   # the low halves
        c2 *= np.uint64(_PHILOX_MUL[1])
        hi1 ^= c1
        hi1 ^= k0
        hi0 ^= c3
        hi0 ^= k1
        # (c0, c1, c2, c3) <- (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0)
        c0, c1, c2, c3 = hi1, c2, hi0, c0
    return np.stack([c0, c1, c2, c3], axis=-1)


def philox_words(keys, count):
    """The first count raw outputs of each keyed Philox4x64-10 stream.

    keys is (..., 2) uint64, one Philox key per stream, and the result
    is (..., count) uint64: row j equals
    np.random.Philox(key=keys[j]).random_raw(count).  As in numpy the
    counter is incremented before each block of four words, so block b
    (b = 0, 1, ...) of a stream is the cipher of counter b + 1.

    count may instead be a sequence with one count per entry of keys'
    first axis; the result is then a list, entry s holding the first
    count[s] words of the streams keys[s].  Either way every block of
    every stream is computed in one array pass.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    ragged = not np.isscalar(count)
    groups = keys if ragged else keys[None]
    counts = [int(c) for c in count] if ragged else [int(count)]
    if len(counts) != len(groups):
        raise ValueError(f"{len(counts)} counts for {len(groups)} groups of keys")
    key_parts, counter_parts = [], []
    for group, c in zip(groups, counts):
        flat = group.reshape(-1, 2)
        blocks = -(-c // 4)
        key_parts.append(np.repeat(flat, blocks, axis=0))
        counter_parts.append(np.tile(np.arange(1, blocks + 1, dtype=np.uint64), len(flat)))
    key = np.concatenate(key_parts)
    cipher = _philox_blocks(key[:, 0], key[:, 1], np.concatenate(counter_parts)).reshape(-1)
    out, start = [], 0
    for group, c in zip(groups, counts):
        width = -(-c // 4) * 4
        size = group.size // 2 * width
        out.append(cipher[start:start + size].reshape(*group.shape[:-1], width)[..., :c])
        start += size
    return out if ragged else out[0]


def byte_bits(words: np.ndarray, start: int, size: int):
    """Generator.integers(0, 2, size, dtype=np.uint8) from raw words.

    The draw starts at uint32 number start of the stream (the low half
    of word 0 is number 0, its high half number 1, ...) and reads one
    byte per bit, low byte first; a bit is the byte's top bit.  words
    may carry leading axes.  Returns (bits, the uint32 number the next
    draw starts at).
    """
    raw = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    bits = raw[..., 4 * start:4 * start + size] >> 7
    return bits, start + -(-size // 4)


def uint32_bit(words: np.ndarray, index: int) -> np.ndarray:
    """Generator.integers(0, 2) (default dtype) when it reads uint32
    number index of the stream: that uint32's top bit."""
    return (words[..., index // 2] >> np.uint64(32 * (index % 2) + 31)).astype(np.uint8)


def doubles(words: np.ndarray) -> np.ndarray:
    """Generator.random() from raw words: (word >> 11) * 2^-53 each."""
    return (words >> np.uint64(11)) * 2.0 ** -53


def _uint32_words(value: int) -> list:
    """value as numpy's SeedSequence reads it: little-endian uint32 words."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _philox_keys(entropy: list) -> np.ndarray:
    """(m, 2) uint64 Philox keys of m SeedSequences at once.

    entropy[w] holds word w of each sequence's assembled entropy as a
    uint32 array of shape (1,) (shared) or (m,) (per sequence).  This is
    numpy's mix_entropy with a pool of four words, which the entropy
    always fills here, followed by generate_state(2, np.uint64).  Shared
    words broadcast, so only the steps after the first per-sequence word
    cost O(m).
    """
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        value = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return value ^ (value >> np.uint32(16))

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    const = _INIT_B
    state = []
    for value in pool:  # four uint32 words, little-endian halves of the key
        value = value ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        state.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    return np.stack([state[0] | state[1] << np.uint64(32),
                     state[2] | state[3] << np.uint64(32)], axis=-1)


@dataclass(frozen=True)
class TrialSeeds(Sequence):
    """Per-trial SeedSequences of one root seed, built on access.

    Item j is SeedSequence(entropy, spawn_key=(indices[j],)).  Slicing
    returns another TrialSeeds, so a chunk of trials pickles as the
    entropy and a range.  Workers read Philox keys (keys), not items.
    """

    entropy: int
    indices: range

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return TrialSeeds(self.entropy, self.indices[j])
        return np.random.SeedSequence(self.entropy, spawn_key=(self.indices[j],))

    def keys(self, *path: int) -> np.ndarray:
        """(len, 2) uint64: row j is the Philox key of stream (indices[j], *path).

        That is the key np.random.Philox(SeedSequence(entropy,
        spawn_key=(indices[j], *path))) holds; path (k,) gives party
        stream k of each trial.  All rows come from one numpy pass.  An
        index or path entry of INDEX_LIMIT or more raises ScaleError:
        numpy splits such an entry into two words.
        """
        idx = self.indices
        ends = (idx[0], idx[-1]) if len(idx) else ()
        if not all(0 <= k < INDEX_LIMIT for k in (*ends, *path)):
            raise ScaleError(f"trial indices and stream numbers must lie in "
                             f"[0, {INDEX_LIMIT}); got indices {idx}, path {path}")
        run = _uint32_words(self.entropy)
        run += [0] * (_POOL_SIZE - len(run))  # numpy pads spawned entropy to the pool
        words = [np.array([w], dtype=np.uint32) for w in run]
        words.append(np.arange(idx.start, idx.stop, idx.step, dtype=np.uint32))
        words += [np.array([k], dtype=np.uint32) for k in path]
        return _philox_keys(words)


def trial_seeds(seed: int, trials: int) -> TrialSeeds:
    """Per-trial seeds, item i equal to SeedSequence(seed).spawn(trials)[i]."""
    return TrialSeeds(np.random.SeedSequence(seed).entropy, range(trials))
