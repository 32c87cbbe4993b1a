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
in one numpy pass of the SeedSequence algorithm, and a worker re-keys
one generator per stream it reads (rekey) for each trial.
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
