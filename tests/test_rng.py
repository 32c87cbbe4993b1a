"""Lazy trial seeds and their bulk keys against numpy's own spawning:
item i of trial_seeds(s, N) is SeedSequence(s).spawn(N)[i], and
keys(k) holds the Philox keys of the k-th child a generator on each
item spawns.  The key test doubles as a tripwire: a numpy whose
SeedSequence derives other keys fails it."""

import pickle

import numpy as np
import pytest

from wiretap_commit.errors import ScaleError
from wiretap_commit.rng import INDEX_LIMIT, TrialSeeds, make_rng, rekey, trial_seeds


def _same(a, b):
    return (a.entropy == b.entropy and a.spawn_key == b.spawn_key
            and np.array_equal(make_rng(a).random(4), make_rng(b).random(4)))


def _keyed(key):
    return np.random.Generator(np.random.Philox(key=key))


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
        assert np.array_equal(_keyed(seeds.keys(k)[i]).random(6), expected)
        if i >= 5:
            assert np.array_equal(_keyed(chunk.keys(k)[i - 5]).random(6), expected)


_OS_ENTROPY = np.random.SeedSequence().entropy  # 128 bits, fresh per run


@pytest.mark.parametrize("seed", [0, 1, 42, 2**32 - 1, 2**32, 2**64 - 1, _OS_ENTROPY],
                         ids=["0", "1", "42", "2^32-1", "2^32", "2^64-1", "os-entropy"])
@pytest.mark.parametrize("path", [(), (0,), (1,), (2,)], ids=str)
def test_keys_match_numpy_seed_sequence(seed, path):
    entropy = np.random.SeedSequence(seed).entropy
    for indices in (range(0, 2), range(2**31, 2**31 + 1), range(2**32 - 1, 2**32),
                    range(2**32 - 1, 2**31 - 1, -(2**31))):
        expected = [np.random.Philox(np.random.SeedSequence(
            entropy, spawn_key=(i, *path))).state["state"]["key"] for i in indices]
        keys = TrialSeeds(entropy, indices).keys(*path)
        assert keys.dtype == np.uint64 and keys.shape == (len(indices), 2)
        assert np.array_equal(keys, expected), f"seed {seed}, indices {indices}"


def test_keys_of_an_empty_chunk():
    assert trial_seeds(3, 5)[4:1].keys(2).shape == (0, 2)


@pytest.mark.parametrize("indices,path", [
    (range(INDEX_LIMIT - 1, INDEX_LIMIT + 1), ()),
    (range(INDEX_LIMIT, INDEX_LIMIT + 1), (0,)),
    (range(3), (INDEX_LIMIT,)),
    (range(-1, 2), ()),
])
def test_keys_beyond_one_word_per_entry_raise(indices, path):
    # numpy splits an entry of 2^32 or more into two words
    with pytest.raises(ScaleError):
        TrialSeeds(5, indices).keys(*path)


@pytest.mark.parametrize("half_used", [
    lambda g: g.random(3),                                    # 3 of 4 buffered words
    lambda g: g.integers(0, 2**32, size=3, dtype=np.uint32),  # a spare 32-bit half
    lambda g: g.integers(0, 2, size=7, dtype=np.uint8),
    lambda g: g.random(5, dtype=np.float32),
], ids=["3-doubles", "3-uint32", "7-uint8", "5-float32"])
def test_rekeyed_generator_draws_what_a_fresh_one_draws(half_used):
    keys = trial_seeds(11, 4).keys(1)
    gen = make_rng(0)
    for key in keys:
        half_used(gen)
        rekey(gen, key)
        fresh = _keyed(key)
        for draw in (lambda g: g.integers(0, 2, size=5, dtype=np.uint8),
                     lambda g: g.random(3),
                     lambda g: g.integers(0, 2**32, size=3, dtype=np.uint32),
                     lambda g: g.random((4, 2))):
            assert np.array_equal(draw(gen), draw(fresh))


def test_chunk_pickles_as_its_range():
    chunk = trial_seeds(3, 34_000)[17_000:34_000]
    again = pickle.loads(pickle.dumps(chunk))
    assert again == chunk and len(pickle.dumps(chunk)) < 200
