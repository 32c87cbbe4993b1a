"""Trial-level worker pool.

Estimators draw trial i of seed s from SeedSequence(s, spawn_key=(i,))
and its children (see rng.trial_seeds), so results are independent of
how trials are chunked; the pool slices the trial seeds into contiguous
chunks and concatenates per-trial outputs in order.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import DomainError


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pool_size(threads: int, trials: int, cpus: int) -> int:
    """Worker processes for a run: min(threads, cpus, trials), at least 1.

    More workers than CPUs only adds process start-up and contention, and
    more than trials leaves workers idle; neither changes the results.
    """
    if threads < 1:
        raise DomainError(f"threads must be >= 1, got {threads}")
    return max(1, min(threads, cpus, trials))


def map_trials(worker, payload, seeds, threads: int = 1) -> np.ndarray:
    """Run worker(payload, seed_chunk) over chunks of per-trial seeds.

    The worker must return an ndarray whose leading axis indexes trials
    within its chunk; chunks are slices of seeds (a TrialSeeds slice
    pickles as three integers) and are concatenated in trial order.  The
    pool has pool_size(threads, len(seeds), usable_cpus()) workers.
    """
    workers = pool_size(threads, len(seeds), usable_cpus())
    if workers == 1:
        return worker(payload, seeds)
    size, extra = divmod(len(seeds), workers)
    edges = [k * size + min(k, extra) for k in range(workers + 1)]
    chunks = [seeds[a:b] for a, b in zip(edges, edges[1:])]
    from concurrent.futures import ProcessPoolExecutor  # 1-worker runs skip this import
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(worker, [payload] * workers, chunks))
    return np.concatenate(parts, axis=0)
