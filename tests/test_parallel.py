"""Worker processes: the size clamp is checked on the pure helper; the
other tests fork small calls (FORK_WORK patched down) to check that
chunking changes no result, that a call forks only when its work pays,
that a child's failure reaches the caller, that no child outlives a
call, and one imports the package in a fresh interpreter to check that
it loads no process-pool machinery."""

import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from wiretap_commit import parallel
from wiretap_commit.errors import DomainError, ScaleError
from wiretap_commit.parallel import map_trials, pool_size, usable_cpus
from wiretap_commit.rng import make_rng, rekey, trial_seeds

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(autouse=True)
def deadline():
    """Turn a call that hangs on a child into a failure after 60 s."""
    def expire(signum, frame):
        raise TimeoutError("map_trials did not return within 60 s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("threads,trials,cpus,expected", [
    (1, 100, 8, 1),
    (8, 100, 2, 2),     # capped by the CPUs
    (4, 3, 8, 3),       # capped by the trials
    (2, 100, 2, 2),
    (64, 1, 64, 1),
    (3, 0, 4, 1),       # an empty run still gets one (serial) worker
])
def test_pool_size_clamp(threads, trials, cpus, expected):
    assert pool_size(threads, trials, cpus) == expected


@pytest.mark.parametrize("threads", [0, -3])
def test_pool_size_rejects_threads_below_one(threads):
    with pytest.raises(DomainError):
        pool_size(threads, 10, 2)


def test_usable_cpus_positive():
    assert usable_cpus() >= 1


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _first_draws(payload, seeds):
    # per trial: one draw from the trial stream and one from its child,
    # through one generator re-keyed per draw
    stream = make_rng(0)
    return np.array([[rekey(stream, trial).random(), rekey(stream, child).random()]
                     for trial, child in zip(seeds.keys(), seeds.keys(payload))])


def test_map_trials_chunking_keeps_results(fork_small_calls, monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
    seeds = trial_seeds(5, 7)
    serial = map_trials(_first_draws, 2, seeds, threads=1)
    for threads in (2, 3):
        assert np.array_equal(map_trials(_first_draws, 2, seeds, threads=threads), serial)
    assert serial.shape == (7, 2)
    spawned = np.random.SeedSequence(5).spawn(7)
    assert np.array_equal(serial[:, 0], [make_rng(s).random() for s in spawned])
    assert np.array_equal(serial[:, 1], [make_rng(s).spawn(3)[2].random()
                                         for s in spawned])
    _assert_no_children()


def _pids(payload, seeds):
    return np.full(len(seeds), os.getpid())


@pytest.mark.parametrize("trials,work,chunks", [
    (10, 19, 1),      # 190 units: under 2 x FORK_WORK, stays in the caller
    (10, 20, 2),      # 200 units: one chunk of 100 each
    (30, 10, 3),      # 300 units: three chunks
    (1000, 1, 3),     # as many chunks as CPUs allow
    (2, 10**6, 2),    # no more chunks than trials
])
def test_map_trials_forks_only_when_each_chunk_gets_fork_work(monkeypatch, trials, work,
                                                              chunks):
    monkeypatch.setattr(parallel, "FORK_WORK", 100)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
    pids = map_trials(_pids, None, trial_seeds(1, trials), 3, work)
    assert pids.shape == (trials,)
    assert len(set(pids)) == chunks
    assert pids[0] == os.getpid()  # the caller runs chunk 0
    _assert_no_children()


def test_map_trials_without_fork_runs_in_the_caller(fork_small_calls, monkeypatch):
    seeds = trial_seeds(5, 7)
    forked = map_trials(_first_draws, 2, seeds, 2)
    monkeypatch.delattr(os, "fork")
    assert np.array_equal(map_trials(_first_draws, 2, seeds, 2), forked)
    assert set(map_trials(_pids, None, seeds, 2)) == {os.getpid()}


def _fail_after_chunk_0(payload, seeds):
    if seeds.indices.start > 0:
        raise ScaleError(f"chunk at {seeds.indices.start} refused")
    return np.zeros(len(seeds))


def test_child_exception_reaches_the_caller(fork_small_calls):
    with pytest.raises(ScaleError, match=r"^chunk at 4 refused$"):
        map_trials(_fail_after_chunk_0, None, trial_seeds(3, 8), 2)
    _assert_no_children()


def _exit_after_chunk_0(payload, seeds):
    if seeds.indices.start > 0:
        os._exit(3)
    return np.zeros(len(seeds))


def test_child_that_exits_without_a_result_raises(fork_small_calls):
    with pytest.raises(ChildProcessError, match="exit status 3"):
        map_trials(_exit_after_chunk_0, None, trial_seeds(3, 8), 2)
    _assert_no_children()


def _caller_fails_child_writes_a_lot(caller, seeds):
    if os.getpid() == caller:
        raise ScaleError("caller refused")
    return np.zeros((len(seeds), 1 << 17))  # far more than a pipe holds


def test_caller_failure_reaps_a_child_blocked_on_its_pipe(fork_small_calls):
    with pytest.raises(ScaleError, match="caller refused"):
        map_trials(_caller_fails_child_writes_a_lot, os.getpid(), trial_seeds(3, 8), 2)
    _assert_no_children()


def test_package_import_leaves_the_process_pool_unloaded():
    # trial workers are forked with os.fork: no executor or multiprocessing
    code = ("import sys, wiretap_commit; "
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
            "if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
