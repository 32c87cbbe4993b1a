"""Worker pool: the size clamp is checked on the pure helper; a few
tests start small pools to check that chunking changes no result and
that a TrialPool starts its processes once, and one imports the package
in a fresh interpreter to check that the pool is imported lazily."""

import os
import subprocess
import sys
from concurrent import futures
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from wiretap_commit import parallel
from wiretap_commit.errors import DomainError
from wiretap_commit.harness import ExperimentConfig, run_experiment
from wiretap_commit.parallel import TrialPool, map_trials, pool_size, usable_cpus
from wiretap_commit.rng import make_rng, rekey, trial_seeds

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
    # per trial: one draw from the trial stream and one from its child,
    # through one generator re-keyed per draw
    stream = make_rng(0)
    return np.array([[rekey(stream, trial).random(), rekey(stream, child).random()]
                     for trial, child in zip(seeds.keys(), seeds.keys(payload))])


def test_map_trials_chunking_keeps_results(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    seeds = trial_seeds(5, 7)
    serial = map_trials(_first_draws, 2, seeds, threads=1)
    pooled = map_trials(_first_draws, 2, seeds, threads=2)
    assert serial.shape == (7, 2) and np.array_equal(serial, pooled)
    spawned = np.random.SeedSequence(5).spawn(7)
    assert np.array_equal(serial[:, 0], [make_rng(s).random() for s in spawned])
    assert np.array_equal(serial[:, 1], [make_rng(s).spawn(3)[2].random()
                                         for s in spawned])


class _CountingExecutor(ProcessPoolExecutor):
    started, shut = [], []

    def __init__(self, max_workers):
        super().__init__(max_workers=max_workers)
        self.started.append(max_workers)

    def shutdown(self, *args, **kwargs):
        self.shut.append(self)
        super().shutdown(*args, **kwargs)


@pytest.fixture
def counting_executor(monkeypatch):
    monkeypatch.setattr(futures, "ProcessPoolExecutor", _CountingExecutor)
    monkeypatch.setattr(_CountingExecutor, "started", [])
    monkeypatch.setattr(_CountingExecutor, "shut", [])
    return _CountingExecutor


def test_trial_pool_starts_once_and_grows_on_demand(monkeypatch, counting_executor):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
    seeds = trial_seeds(8, 9)
    serial = map_trials(_first_draws, 1, seeds, threads=1)
    assert counting_executor.started == []          # one worker starts no pool
    with TrialPool() as pool:
        for threads in (2, 2, 1, 3, 2):
            assert np.array_equal(map_trials(_first_draws, 1, seeds, threads, pool), serial)
        # started at 2 workers, restarted at 3 for the 3-chunk call, then reused
        assert counting_executor.started == [2, 3]
        assert len(counting_executor.shut) == 1
    assert len(counting_executor.shut) == 2
    pool.close()                                    # closing twice is harmless
    assert len(counting_executor.shut) == 2


def test_map_trials_without_a_pool_shuts_its_own(monkeypatch, counting_executor):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    map_trials(_first_draws, 0, trial_seeds(2, 4), threads=2)
    assert counting_executor.started == [2] and len(counting_executor.shut) == 1


def test_sweep_starts_one_pool_for_all_points(monkeypatch, counting_executor):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    soundness = {"version": 1, "kind": "soundness",
                 "params": {"n": 200, "p": 0.1, "q": 0.2, "privacy": "one",
                            "alpha1": 0.05, "beta1": 0.05, "beta2": 0.1}}
    doc = {"version": 1, "kind": "sweep", "seed": 4, "trials": 30,
           "sweep": {"variable": "params.n", "values": [100, 200, 300],
                     "experiment": soundness}}
    serial = run_experiment(ExperimentConfig.from_dict(dict(doc, threads=1)))
    assert counting_executor.started == []
    pooled = run_experiment(ExperimentConfig.from_dict(dict(doc, threads=2)))
    assert pooled == serial
    assert counting_executor.started == [2] and len(counting_executor.shut) == 1


def test_package_import_leaves_the_process_pool_unloaded():
    # map_trials imports the pool on its first multi-worker call only
    code = ("import sys, wiretap_commit; "
            "print('concurrent.futures.process' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
