"""Lazy trial seeds and their bulk keys against numpy's own spawning:
item i of trial_seeds(s, N) is SeedSequence(s).spawn(N)[i], and
keys(k) holds the Philox keys of the k-th child a generator on each
item spawns.  The array Philox and the word-to-draw rules are checked
against np.random.Philox and Generator.  These tests double as a
tripwire: a numpy whose SeedSequence derives other keys, or whose
Philox or Generator draws other values from the same words, fails
them."""

import pickle

import numpy as np
import pytest

from wiretap_commit.errors import ScaleError
from wiretap_commit.rng import (
    INDEX_LIMIT,
    TrialSeeds,
    byte_bits,
    doubles,
    make_rng,
    philox_words,
    rekey,
    trial_seeds,
    uint32_bit,
)


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


# ---------------------------------------------------------------------------
# the array Philox and the word rules against numpy


def _seeded_key(seed):
    return np.random.Philox(seed).state["state"]["key"]


_KEYS = {
    "seed-0": _seeded_key(0),
    "seed-1": _seeded_key(1),
    "seed-2^32": _seeded_key(2**32),
    "seed-2^64-1": _seeded_key(2**64 - 1),
    "os-entropy": _seeded_key(_OS_ENTROPY),
    "all-zero": np.zeros(2, dtype=np.uint64),
    "all-ones": np.full(2, 2**64 - 1, dtype=np.uint64),
}
_COUNTS = [*range(1, 10), 3999, 4001, 4095, 4097]


@pytest.mark.parametrize("name", _KEYS)
def test_philox_words_equal_numpy_random_raw(name):
    keys = np.stack(list(_KEYS.values()))
    for count in _COUNTS:
        words = philox_words(keys, count)
        assert words.dtype == np.uint64 and words.shape == (len(keys), count)
        expected = np.random.Philox(key=_KEYS[name]).random_raw(count)
        assert np.array_equal(words[list(_KEYS).index(name)], expected), (
            f"numpy's Philox4x64-10 (counter incremented before each block, "
            f"key bumped each round) gives other raw words for key {name}, "
            f"count {count}")


def test_philox_words_keep_leading_axes_and_take_counts_per_group():
    keys = trial_seeds(9, 6).keys(1).reshape(2, 3, 2)
    words = philox_words(keys, 7)
    assert words.shape == (2, 3, 7)
    groups = philox_words(keys, [5, 13])
    assert [g.shape for g in groups] == [(3, 5), (3, 13)]
    for s, count in enumerate((5, 13)):
        for j in range(3):
            philox = np.random.Philox(key=keys[s, j])
            assert np.array_equal(words[s, j], philox.random_raw(7))
            expected = np.random.Philox(key=keys[s, j]).random_raw(count)
            assert np.array_equal(groups[s][j], expected), (
                "a stream's words depend only on its key, whatever else is computed")


@pytest.mark.parametrize("name", ["seed-0", "seed-2^64-1", "os-entropy"])
@pytest.mark.parametrize("second", [*range(1, 10), 2000, 2736])
def test_byte_bits_equal_two_uint8_integers_calls(name, second):
    key = _KEYS[name]
    words = philox_words(key, 1000)
    for first in range(1, 10):
        gen = np.random.Generator(np.random.Philox(key=key))
        a = gen.integers(0, 2, size=first, dtype=np.uint8)
        b = gen.integers(0, 2, size=second, dtype=np.uint8)
        got_a, start = byte_bits(words, 0, first)
        got_b, _ = byte_bits(words, start, second)
        assert np.array_equal(got_a, a) and np.array_equal(got_b, b), (
            "Generator.integers(0, 2, size, uint8) no longer takes bit 7 of "
            "each byte of the uint32 stream (low half of a word first, low "
            "byte first), a fresh uint32 per call: "
            f"sizes {first}, {second}")


@pytest.mark.parametrize("name", ["seed-1", "seed-2^32", "all-ones"])
@pytest.mark.parametrize("n", [1, 2, 7, 2000])
def test_doubles_equal_random(name, n):
    key = _KEYS[name]
    expected = np.random.Generator(np.random.Philox(key=key)).random((n, 2))
    got = doubles(philox_words(key, 2 * n)).reshape(n, 2)
    assert np.array_equal(got, expected), (
        "Generator.random() is no longer (word >> 11) * 2^-53, one raw word "
        "per double, in row-major order")


@pytest.mark.parametrize("name", _KEYS)
def test_uint32_bit_equals_integers_after_a_byte_draw(name):
    key = _KEYS[name]
    gen = np.random.Generator(np.random.Philox(key=key))
    gen.integers(0, 2, size=1, dtype=np.uint8)
    expected = gen.integers(0, 2)
    got = uint32_bit(philox_words(key, 1), 1)
    assert got == expected, (
        "Generator.integers(0, 2) after a one-byte draw no longer returns the "
        "top bit of the buffered high half of word 0")
