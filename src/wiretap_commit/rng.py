"""Deterministic randomness: counter-based Philox streams.

Every simulation entry point takes an integer seed and turns it into a
Philox generator.  Trial i of a Monte Carlo estimator draws from
SeedSequence(seed, spawn_key=(i,)), which by numpy's definition is
SeedSequence(seed).spawn(trials)[i]; a party stream k of that trial is
SeedSequence(seed, spawn_key=(i, k)), what make_rng(trial i).spawn(3)[k]
yields.  A stream depends only on (seed, i, k), so results are
bit-identical for a given seed no matter how trials are chunked across
workers, and a trial builds only the streams it reads.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


def make_rng(seed) -> np.random.Generator:
    """Philox generator from an integer seed or SeedSequence."""
    if isinstance(seed, np.random.Generator):
        return seed
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True)
class TrialSeeds(Sequence):
    """Per-trial SeedSequences of one root seed, built on access.

    Item j is SeedSequence(entropy, spawn_key=(indices[j],)).  Slicing
    returns another TrialSeeds, so a chunk of trials pickles as the
    entropy and a range.
    """

    entropy: int
    indices: range

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return TrialSeeds(self.entropy, self.indices[j])
        return np.random.SeedSequence(self.entropy, spawn_key=(self.indices[j],))

    def child(self, j: int, k: int) -> np.random.SeedSequence:
        """Stream k of item j: make_rng(self[j]).spawn(3)[k], without the
        parent or its siblings."""
        return np.random.SeedSequence(self.entropy, spawn_key=(self.indices[j], k))


def trial_seeds(seed: int, trials: int) -> TrialSeeds:
    """Per-trial seeds, item i equal to SeedSequence(seed).spawn(trials)[i]."""
    return TrialSeeds(np.random.SeedSequence(seed).entropy, range(trials))
