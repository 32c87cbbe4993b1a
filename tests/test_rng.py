"""Lazy trial seeds against numpy's own spawning: item i of
trial_seeds(s, N) is SeedSequence(s).spawn(N)[i], and child(i, k) is the
k-th child a generator on item i spawns."""

import pickle

import numpy as np
import pytest

from wiretap_commit.rng import make_rng, trial_seeds


def _same(a, b):
    return (a.entropy == b.entropy and a.spawn_key == b.spawn_key
            and np.array_equal(make_rng(a).random(4), make_rng(b).random(4)))


@pytest.mark.parametrize("seed", [0, 42, 2**70 + 3])
def test_items_slices_and_iteration_match_spawn(seed):
    spawned = np.random.SeedSequence(seed).spawn(9)
    seeds = trial_seeds(seed, 9)
    assert len(seeds) == 9
    assert all(_same(seeds[i], spawned[i]) for i in range(-9, 9))
    assert all(_same(a, b) for a, b in zip(seeds, spawned, strict=True))
    for part, reference in ((seeds[2:7], spawned[2:7]), (seeds[::-3], spawned[::-3]),
                            (seeds[4:1], spawned[4:1])):
        assert len(part) == len(reference)
        assert all(_same(a, b) for a, b in zip(part, reference, strict=True))
    with pytest.raises(IndexError):
        seeds[9]


@pytest.mark.parametrize("k", [0, 1, 2])
def test_child_draws_what_the_trial_generator_spawns(k):
    seeds = trial_seeds(7, 12)
    chunk = seeds[5:12]
    for i in range(12):
        # a fresh parent per trial: SeedSequence.spawn advances its counter
        spawned = make_rng(np.random.SeedSequence(7).spawn(12)[i]).spawn(3)[k]
        expected = spawned.random(6)
        assert np.array_equal(make_rng(seeds.child(i, k)).random(6), expected)
        if i >= 5:
            assert np.array_equal(make_rng(chunk.child(i - 5, k)).random(6), expected)


def test_chunk_pickles_as_its_range():
    chunk = trial_seeds(3, 34_000)[17_000:34_000]
    again = pickle.loads(pickle.dumps(chunk))
    assert again == chunk and len(pickle.dumps(chunk)) < 200
