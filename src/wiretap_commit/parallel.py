"""Trial-level worker processes, forked per map_trials call.

Estimators draw trial i of seed s from SeedSequence(s, spawn_key=(i,))
and its children (see rng.trial_seeds), so results are independent of
how trials are chunked; map_trials slices the trial seeds into
contiguous chunks and concatenates per-trial outputs in order.  A worker
derives the Philox keys of its whole chunk at once (rng.TrialSeeds.keys).
The secrecy and binding workers then compute the raw words of a block of
trials in one array pass (rng.philox_words) and turn them into draws by
the word rules of rng; the soundness worker re-keys one C Philox per
trial and draws the 2 max(n) channel words of all its points at once.
Either way trial i's draws depend on i alone, not on the chunk, and a
prefix of a counter-based stream is the same words whatever follows
it, so a soundness point at n reads the 2n words a call of its own
would, and the first t trials of a longer call are a t-trial call.

A call with w chunks forks w - 1 children, runs chunk 0 in the caller
and reads each child's pickled result from a pipe; no process outlives
the call.  A call forks only when every chunk gets at least FORK_WORK
units of the work its estimator states per trial, so small estimates
run in the caller.  Where os.fork does not exist every call runs in the
caller, which by the above gives the same results.
"""

from __future__ import annotations

import os
import pickle

import numpy as np

from .errors import DomainError

# Work units a chunk needs before a fork pays for itself.  Splitting W
# units of t seconds each over w chunks saves W t (1 - 1/w) and costs
# w - 1 forks of c seconds, so it pays exactly when one chunk's W t / w
# exceeds c, whatever w is.  On a 2-core x86-64 host with the package
# loaded (39 MB resident), a 2-worker call of an empty worker took
# c = 3.2 ms (median of 41) against 0 at one worker.  Per unit, at one
# worker on the demo configs, a secrecy scanned word took 3.7 ns, a
# soundness word 11 ns and a binding drawn word 60 ns.  c over the
# cheapest unit is 3.2 ms / 3.7 ns = 8.6e5 units, rounded up to 2^20.
FORK_WORK = 1 << 20


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


def map_trials(worker, payload, seeds, threads: int = 1, work: int = 1) -> np.ndarray:
    """Run worker(payload, seed_chunk) over chunks of per-trial seeds.

    The worker must return an ndarray whose leading axis indexes trials
    within its chunk; chunks are contiguous slices of seeds, and their
    outputs are concatenated in trial order.  work is the worker's cost
    per trial in the units of FORK_WORK.
    There are pool_size(threads, len(seeds), usable_cpus()) chunks, but
    no more than leave FORK_WORK units to each.
    """
    workers = pool_size(threads, len(seeds), usable_cpus())
    workers = min(workers, max(1, len(seeds) * work // FORK_WORK))
    if workers == 1 or not hasattr(os, "fork"):
        return worker(payload, seeds)
    size, extra = divmod(len(seeds), workers)
    edges = [k * size + min(k, extra) for k in range(workers + 1)]
    chunks = [seeds[a:b] for a, b in zip(edges, edges[1:])]
    pids, pipes, messages = [], [], []
    try:
        for chunk in chunks[1:]:
            pid, pipe = _fork(worker, payload, chunk)
            pids.append(pid)
            pipes.append(pipe)
        parts = [worker(payload, chunks[0])]
        messages = [pipe.read() for pipe in pipes]
    finally:
        # closed read ends make a child still writing fail instead of block
        for pipe in pipes:
            pipe.close()
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    for pid, status, message in zip(pids, statuses, messages):
        if not message:
            raise ChildProcessError(f"trial worker {pid} ended without a result "
                                    f"(exit status {os.waitstatus_to_exitcode(status)})")
        ok, result = pickle.loads(message)
        if not ok:
            raise result
        parts.append(result)
    return np.concatenate(parts, axis=0)


def _fork(worker, payload, chunk):
    """Fork a child that pickles (ok, result or exception) of
    worker(payload, chunk) into a pipe and leaves through os._exit;
    return its pid and the read end of the pipe."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, os.fdopen(read, "rb")
    code = 1
    try:
        os.close(read)
        try:
            message = (True, worker(payload, chunk))
        except BaseException as e:  # raised in the caller instead
            message = (False, e)
        data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)  # all or nothing
        with os.fdopen(write, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)
