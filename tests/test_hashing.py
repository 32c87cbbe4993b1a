"""Toeplitz family: universality by exhaustive seed enumeration,
linearity, and the extractor property against the leftover-hash bound."""

import itertools

import numpy as np
import pytest

from wiretap_commit.bits import BitVector
from wiretap_commit.channel import make_channel
from wiretap_commit.errors import DimensionError
from wiretap_commit.hashing import (
    HashSpec,
    _fft_length,
    _toeplitz_bits,
    hash_all_inputs,
    hash_evaluate,
    lhl_bound,
    sample_hash,
)
from wiretap_commit.measures import CrossoverPair
from wiretap_commit.protocol import RevealClaim, bob_test, commit_phase, explicit_params
from wiretap_commit.rng import make_rng

from toeplitz_reference import pow2_hash_evaluate, toeplitz_matrix


def all_specs(n, l):
    for s in range(1 << (n + l - 1)):
        yield HashSpec(n, l, BitVector.from_int(s, n + l - 1))


def naive_eval(spec: HashSpec, x: BitVector) -> BitVector:
    """Bit-by-bit GF(2) matrix-vector product, independent of the
    sliding-window implementation."""
    n, l = spec.input_bits, spec.output_bits
    seed = list(spec.seed)
    out = []
    for i in range(l):
        acc = 0
        for j in range(n):
            acc ^= seed[i + n - 1 - j] & x[j]
        out.append(acc)
    return BitVector(out)


class TestSampleHash:
    def test_seed_length(self):
        h = sample_hash(make_rng(0), 4, 2)
        assert len(h.seed) == 5
        assert h.input_bits == 4 and h.output_bits == 2

    def test_one_bit_family(self):
        # n = l = 1: the two members are the zero map and the identity
        outputs = set()
        for spec in all_specs(1, 1):
            outputs.add((hash_evaluate(spec, BitVector([0]))[0],
                         hash_evaluate(spec, BitVector([1]))[0]))
        assert outputs == {(0, 0), (0, 1)}

    def test_dimension_errors(self):
        with pytest.raises(DimensionError):
            sample_hash(make_rng(0), 4, 5)
        with pytest.raises(DimensionError):
            sample_hash(make_rng(0), 4, 0)

    def test_xor_universality_exact_n4_l2(self):
        # every distinct pair collides on exactly 8 of the 32 seeds
        tables = [hash_all_inputs(spec) for spec in all_specs(4, 2)]
        for a, b in itertools.combinations(range(16), 2):
            collisions = sum(int(t[a] == t[b]) for t in tables)
            assert collisions == 8, (a, b, collisions)

    def test_xor_universality_exact_small_sizes(self):
        for n, l in ((3, 1), (3, 2), (4, 3), (5, 2)):
            tables = np.stack([hash_all_inputs(spec) for spec in all_specs(n, l)])
            expected = tables.shape[0] >> l
            for a, b in itertools.combinations(range(1 << n), 2):
                assert int((tables[:, a] == tables[:, b]).sum()) == expected


class TestHashEvaluate:
    def test_zero_maps_to_zero(self):
        rng = make_rng(1)
        for _ in range(20):
            h = sample_hash(rng, 9, 4)
            assert hash_evaluate(h, BitVector.zeros(9)) == BitVector.zeros(4)

    def test_identity_seed(self):
        # seed with the single 1 on the main diagonal gives T = I
        n = 5
        seed = BitVector([1 if i == n - 1 else 0 for i in range(2 * n - 1)])
        h = HashSpec(n, n, seed)
        assert np.array_equal(toeplitz_matrix(h), np.eye(n, dtype=np.uint8))
        rng = make_rng(2)
        for _ in range(10):
            x = BitVector.random(rng, n)
            assert hash_evaluate(h, x) == x

    def test_against_naive_oracle(self):
        rng = make_rng(3)
        for _ in range(200):
            h = sample_hash(rng, 8, 3)
            x = BitVector.random(rng, 8)
            assert hash_evaluate(h, x) == naive_eval(h, x)

    def test_matches_matrix(self):
        rng = make_rng(4)
        h = sample_hash(rng, 8, 3)
        x = BitVector.random(rng, 8)
        expected = (toeplitz_matrix(h) @ x.bits.astype(np.int64)) & 1
        assert np.array_equal(hash_evaluate(h, x).bits, expected.astype(np.uint8))

    def test_length_mismatch(self):
        h = sample_hash(make_rng(5), 8, 3)
        with pytest.raises(DimensionError):
            hash_evaluate(h, BitVector.zeros(7))

    def test_linearity(self):
        rng = make_rng(6)
        for _ in range(10_000):
            h = sample_hash(rng, 12, 5)
            x1 = BitVector.random(rng, 12)
            x2 = BitVector.random(rng, 12)
            assert hash_evaluate(h, x1 ^ x2) == hash_evaluate(h, x1) ^ hash_evaluate(h, x2)

    def test_determinism(self):
        h = sample_hash(make_rng(7), 16, 8)
        x = BitVector.random(make_rng(8), 16)
        assert hash_evaluate(h, x) == hash_evaluate(h, x)

    def test_hash_all_inputs_matches_pointwise(self):
        rng = make_rng(9)
        for _ in range(10):
            h = sample_hash(rng, 6, 4)
            table = hash_all_inputs(h)
            for i in range(64):
                assert int(table[i]) == hash_evaluate(h, BitVector.from_int(i, 6)).to_int()


def matrix_eval(spec: HashSpec, x: BitVector) -> np.ndarray:
    """Reference product (toeplitz_matrix @ x) mod 2, in row blocks so
    the int64 product stays small at n = 8000."""
    m = toeplitz_matrix(spec)
    xs = x.bits.astype(np.int64)
    blocks = [(m[i : i + 512].astype(np.int64) @ xs) & 1 for i in range(0, len(m), 512)]
    return np.concatenate(blocks).astype(np.uint8)


def _is_prime(m):
    return m > 1 and all(m % d for d in range(2, int(m ** 0.5) + 1))


def _is_5_smooth(m):
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


# (n, l) with n + l - 1 prime, exactly 5-smooth, or a power of two plus one
PRIME_SIZES = [(2000, 12), (63, 5), (8000, 10)]              # 2011, 67, 8009
SMOOTH_SIZES = [(2000, 161), (2000, 881), (8000, 641)]       # 2160, 2880, 8640
POW2_PLUS_ONE_SIZES = [(64, 2), (4000, 98), (8000, 194)]     # 65, 4097, 8193

GRID_SIZES = sorted({(n, l) for n in (1, 2, 63, 64, 65, 2000, 8000)
                     for l in (1, n // 3, n) if l >= 1})
PROTOCOL_SIZES = [(2000, 100), (2000, 737), (8000, 400), (8000, 2951)]


class TestFFTProduct:
    """hash_evaluate's FFT convolution against the matrix, bit for bit."""

    @pytest.mark.parametrize("n,l", GRID_SIZES + PROTOCOL_SIZES + PRIME_SIZES
                             + SMOOTH_SIZES + POW2_PLUS_ONE_SIZES)
    def test_random_matches_matrix(self, n, l):
        rng = make_rng(n * 10_007 + l)
        for _ in range(2):
            h = sample_hash(rng, n, l)
            x = BitVector.random(rng, n)
            assert np.array_equal(hash_evaluate(h, x).bits, matrix_eval(h, x))

    @pytest.mark.parametrize("n,l", GRID_SIZES + PROTOCOL_SIZES)
    def test_all_ones_matches_matrix(self, n, l):
        # every count is n, the largest possible value and the hardest
        # case for rounding the float result
        h = HashSpec(n, l, BitVector(np.ones(n + l - 1, dtype=np.uint8)))
        x = BitVector(np.ones(n, dtype=np.uint8))
        out = hash_evaluate(h, x)
        assert np.array_equal(out.bits, matrix_eval(h, x))
        assert out == BitVector(np.full(l, n & 1, dtype=np.uint8))

    @pytest.mark.parametrize("noise", [0.3, np.nan])
    def test_inexact_transform_raises(self, monkeypatch, noise):
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: irfft(*a, **k) + noise)
        h = sample_hash(make_rng(13), 64, 21)
        with pytest.raises(FloatingPointError):
            hash_evaluate(h, BitVector.random(make_rng(14), 64))

    @pytest.mark.parametrize("noise", [0.3, np.nan])
    def test_inexact_transform_raises_in_the_protocol(self, monkeypatch, noise):
        # commit_phase and bob_test call the joint kernel, not hash_evaluate
        params = explicit_params(64, CrossoverPair(0.1, 0.1), "one", alpha1=0.5,
                                 challenge_bits=21, commit_bits=9)
        channel = make_channel(0.1, 0.1)
        c = BitVector.random(make_rng(15), 9)
        session = commit_phase(params, c, channel, make_rng(16))
        claim = RevealClaim(c, session.alice_view.x)
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: irfft(*a, **k) + noise)
        with pytest.raises(FloatingPointError):
            commit_phase(params, c, channel, make_rng(16))
        with pytest.raises(FloatingPointError):
            bob_test(session.bob_view, session.transcript, claim, params)


class TestFFTLength:
    def test_least_5_smooth_by_brute_force(self):
        limit = 20_000
        smooth = np.array(sorted(2 ** a * 3 ** b * 5 ** c
                                 for a in range(16) for b in range(10) for c in range(7)
                                 if 2 ** a * 3 ** b * 5 ** c < 2 * limit))
        m = np.arange(1, limit + 1)
        expected = smooth[np.searchsorted(smooth, m)]
        search = _fft_length.__wrapped__  # uncached, so the cache stays small
        lengths = [search(v) for v in m.tolist()]
        assert lengths == expected.tolist()
        assert all(size <= 1 << (v - 1).bit_length() for v, size in zip(m.tolist(), lengths))

    def test_protocol_lengths(self):
        # n + l - 1 at the protocol sizes: 2099, 2736, 8399, 10950
        assert [_fft_length(n + l - 1) for n, l in PROTOCOL_SIZES] == [2160, 2880, 8640, 11250]


class TestToeplitzKernel:
    """_toeplitz_bits: the one transform under hash_evaluate, commit_phase
    and bob_test, against two one-seed calls and the power-of-two product."""

    def test_size_classes(self):
        # the premise of the extra TestFFTProduct sizes
        assert all(_is_prime(n + l - 1) for n, l in PRIME_SIZES)
        assert all(_is_5_smooth(n + l - 1) for n, l in SMOOTH_SIZES)
        assert all(n + l - 2 == 1 << (n + l - 2).bit_length() - 1
                   for n, l in POW2_PLUS_ONE_SIZES)

    @pytest.mark.parametrize("n,lg,le", [(1, 1, 1), (5, 5, 2), (64, 21, 9),
                                         (2000, 100, 737), (8000, 2951, 400)])
    def test_joint_equals_two_one_seed_calls(self, n, lg, le):
        rng = make_rng(n + 31 * lg + le)
        g, e = sample_hash(rng, n, lg), sample_hash(rng, n, le)
        x = BitVector.random(rng, n)
        g_bits, e_bits = _toeplitz_bits(x.bits, g.seed.bits, e.seed.bits)
        assert g_bits.dtype == e_bits.dtype == np.uint8
        assert np.array_equal(g_bits, hash_evaluate(g, x).bits)
        assert np.array_equal(e_bits, hash_evaluate(e, x).bits)

    def test_equals_power_of_two_product_on_random_sizes(self):
        rng = make_rng(17)
        for n in rng.integers(1, 8001, size=200).tolist():
            l = int(rng.integers(1, n + 1))
            h = sample_hash(rng, n, l)
            x = BitVector.random(rng, n)
            assert hash_evaluate(h, x) == pow2_hash_evaluate(h, x), (n, l)

    @pytest.mark.parametrize("n,l", PROTOCOL_SIZES + [(8000, 8000), (7999, 1)])
    def test_equals_power_of_two_product_all_ones(self, n, l):
        h = HashSpec(n, l, BitVector(np.ones(n + l - 1, dtype=np.uint8)))
        x = BitVector(np.ones(n, dtype=np.uint8))
        assert hash_evaluate(h, x) == pow2_hash_evaluate(h, x)


def exact_extractor_distance(n, l, subset):
    """SD of (seed, h(X)) from (seed, uniform), X uniform on subset.

    Full enumeration over every seed; independent of the production
    code paths except hash_all_inputs (itself tested pointwise above).
    """
    seeds = 1 << (n + l - 1)
    total = 0.0
    uni = 1.0 / (1 << l)
    for s in range(seeds):
        spec = HashSpec(n, l, BitVector.from_int(s, n + l - 1))
        table = hash_all_inputs(spec)
        counts = np.bincount(table[subset], minlength=1 << l)
        dist = counts / len(subset)
        total += 0.5 * np.abs(dist - uni).sum()
    return total / seeds


class TestLeftoverHash:
    @pytest.mark.parametrize("k,l,expected", [
        (2, 2, 0.5),
        (4, 2, 0.25),
        (10, 2, 0.03125),
    ])
    def test_bound_values(self, k, l, expected):
        assert lhl_bound(k, l) == pytest.approx(expected, abs=1e-15)

    def test_bound_caps_at_one(self):
        assert lhl_bound(0, 8) == 1.0

    def test_extractor_distance_below_bound(self):
        # flat sources on random supports of size 2^k
        n, l = 8, 2
        rng = np.random.default_rng(10)
        for k in (3, 5, 7):
            for _ in range(3):
                subset = rng.choice(1 << n, size=1 << k, replace=False)
                sd = exact_extractor_distance(n, l, subset)
                assert sd <= lhl_bound(k, l) + 1e-12


class TestSerialization:
    def test_config_roundtrip(self):
        h = sample_hash(make_rng(11), 10, 4)
        assert HashSpec.from_config(h.to_config()) == h

    def test_config_fields(self):
        h = sample_hash(make_rng(12), 10, 4)
        cfg = h.to_config()
        assert set(cfg) == {"n", "l", "seed"}
        assert cfg["n"] == 10 and cfg["l"] == 4
        assert len(cfg["seed"]) == 2 * ((10 + 4 - 1 + 7) // 8)
