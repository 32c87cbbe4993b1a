"""Trial-level worker pool.

Estimators draw trial i of seed s from SeedSequence(s, spawn_key=(i,))
and its children (see rng.trial_seeds), so results are independent of
how trials are chunked; the pool slices the trial seeds into contiguous
chunks and concatenates per-trial outputs in order.  A worker derives
the Philox keys of its whole chunk at once (rng.TrialSeeds.keys).  The
secrecy and binding workers then compute the raw words of a block of
trials in one array pass (rng.philox_words) and turn them into draws by
the word rules of rng; the soundness worker re-keys one C Philox per
trial and draws the 2 max(n) channel words of all its points at once.
Either way trial i's draws depend on i alone, not on the chunk, and a
prefix of a counter-based stream is the same words whatever follows
it, so a soundness point at n reads the 2n words a call of its own
would, and the first t trials of a longer call are a t-trial call.

One TrialPool serves every map_trials call of a run (each estimator
and each sweep point), so a run starts its worker processes once.
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


class TrialPool:
    """A process pool shared by the map_trials calls of one run.

    Nothing starts until a call has more than one chunk; the processes
    then start once and are reused, and a call with more chunks than
    the pool has workers restarts it at that size.  close() (or leaving
    a with block) shuts the processes down.
    """

    def __init__(self):
        self._executor = None
        self._workers = 0

    def map(self, worker, payload, chunks) -> list:
        """[worker(payload, chunk) for chunk in chunks], one chunk per process."""
        if len(chunks) > self._workers:
            self.close()
            from concurrent.futures import ProcessPoolExecutor  # 1-worker runs skip this import
            self._executor = ProcessPoolExecutor(max_workers=len(chunks))
            self._workers = len(chunks)
        return list(self._executor.map(worker, [payload] * len(chunks), chunks))

    def close(self):
        if self._executor is not None:
            self._executor.shutdown()
        self._executor, self._workers = None, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def map_trials(worker, payload, seeds, threads: int = 1, pool=None) -> np.ndarray:
    """Run worker(payload, seed_chunk) over chunks of per-trial seeds.

    The worker must return an ndarray whose leading axis indexes trials
    within its chunk; chunks are slices of seeds (a TrialSeeds slice
    pickles as three integers) and are concatenated in trial order.
    There are pool_size(threads, len(seeds), usable_cpus()) chunks.  With
    more than one they run on pool, a TrialPool the caller keeps open,
    or on a pool of this call's own when pool is None.
    """
    workers = pool_size(threads, len(seeds), usable_cpus())
    if workers == 1:
        return worker(payload, seeds)
    size, extra = divmod(len(seeds), workers)
    edges = [k * size + min(k, extra) for k in range(workers + 1)]
    chunks = [seeds[a:b] for a, b in zip(edges, edges[1:])]
    if pool is None:
        with TrialPool() as own:
            parts = own.map(worker, payload, chunks)
    else:
        parts = pool.map(worker, payload, chunks)
    return np.concatenate(parts, axis=0)
