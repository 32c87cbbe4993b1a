"""Worker pool: the size clamp is checked on the pure helper; one test
starts a two-process pool to check that chunking changes no result, and
one imports the package in a fresh interpreter to check that the pool
is imported lazily."""

import os
import subprocess
import sys

import numpy as np
import pytest

from wiretap_commit import parallel
from wiretap_commit.errors import DomainError
from wiretap_commit.parallel import map_trials, pool_size, usable_cpus
from wiretap_commit.rng import make_rng, trial_seeds

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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


def _first_draws(payload, seeds):
    # per trial: one draw from the trial stream and one from its child
    return np.array([[make_rng(seeds[i]).random(),
                      make_rng(seeds.child(i, payload)).random()]
                     for i in range(len(seeds))])


def test_map_trials_chunking_keeps_results(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    seeds = trial_seeds(5, 7)
    serial = map_trials(_first_draws, 2, seeds, threads=1)
    pooled = map_trials(_first_draws, 2, seeds, threads=2)
    assert serial.shape == (7, 2) and np.array_equal(serial, pooled)
    assert np.array_equal(serial[:, 0], [make_rng(s).random()
                                         for s in np.random.SeedSequence(5).spawn(7)])


def test_package_import_leaves_the_process_pool_unloaded():
    # map_trials imports the pool on its first multi-worker call only
    code = ("import sys, wiretap_commit; "
            "print('concurrent.futures.process' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
