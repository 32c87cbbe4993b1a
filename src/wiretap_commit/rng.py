"""Deterministic randomness: counter-based Philox streams.

Every simulation entry point takes an integer seed and turns it into a
Philox generator; independent sub-streams (parties, trials, workers)
come from SeedSequence spawning, so results are bit-identical for a
given seed no matter how trials are chunked across workers.
"""

from __future__ import annotations

import numpy as np


def make_rng(seed) -> np.random.Generator:
    """Philox generator from an integer seed or SeedSequence."""
    if isinstance(seed, np.random.Generator):
        return seed
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.Generator(np.random.Philox(seed))


def trial_seeds(seed: int, trials: int):
    """Per-trial SeedSequences, independent of any chunking."""
    return np.random.SeedSequence(seed).spawn(trials)
