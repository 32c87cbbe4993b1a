"""Toeplitz hashing over GF(2): the 2-universal (XOR-universal) family
used both as the binding challenge and as the randomness extractor.

A member with n input bits and l output bits is described by a seed of
n + l - 1 bits packing the first row (reversed) and first column of an
l x n Toeplitz matrix T: T[i][j] = seed[i + n - 1 - j], so row i reads
the seed window [i, i + n) right-to-left.  Evaluation is T @ x over
GF(2); the map is linear in x, and over a uniform seed any fixed pair
x != x' collides with probability exactly 2^-l.

Because T[i][j] depends only on i - j, the integer product T @ x is
entries n-1 .. n+l-2 of the linear convolution seed * x (Krawczyk,
"LFSR-based hashing and authentication", CRYPTO 1994).  _toeplitz_bits
computes that convolution with real FFTs at the least 5-smooth length
>= n + l - 1 (_fft_length), in O((n+l) log(n+l)) time and O(n+l)
memory instead of the O(l n) of the matrix, and hashes one word under
several seeds with a single transform of the word.  The convolution
entries are integer counts in [0, n], so rounding the float64 result
recovers them exactly; a residual check guards that.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .bits import BitVector
from .config import REQUIRED, read_block
from .errors import DimensionError


@dataclass(frozen=True)
class HashSpec:
    """One member of the Toeplitz family: dimensions plus seed."""

    input_bits: int
    output_bits: int
    seed: BitVector

    def __post_init__(self):
        n, l = self.input_bits, self.output_bits
        _dimension_check(n, l)
        if len(self.seed) != n + l - 1:
            raise DimensionError(
                f"seed length {len(self.seed)} != n + l - 1 = {n + l - 1}"
            )

    def to_config(self) -> dict:
        values = (self.input_bits, self.output_bits, self.seed.to_hex())
        return {key: value for (key, _, _), value in zip(HASH_FIELDS, values)}

    @classmethod
    def from_config(cls, cfg: dict, where: str = "hash") -> "HashSpec":
        """Inverse of to_config: the block `where` read against
        HASH_FIELDS (config.read_block), with a seed that must be hex
        and dimensions that are checked before the seed is read."""
        f = read_block(cfg, where, HASH_FIELDS)
        _dimension_check(f["n"], f["l"])
        return cls(f["n"], f["l"], BitVector.from_hex(f["seed"], f["n"] + f["l"] - 1))


# a hash block, in HashSpec.to_config's order; the seed is hex
HASH_FIELDS = (("n", int, REQUIRED), ("l", int, REQUIRED), ("seed", str, REQUIRED))


def _dimension_check(n: int, l: int):
    """An (n -> l) hash needs 1 <= l <= n."""
    if n < 1 or l < 1 or l > n:
        raise DimensionError(f"need 1 <= output_bits <= input_bits, got n={n}, l={l}")


def sample_hash(rng: np.random.Generator, n: int, l: int) -> HashSpec:
    """Uniform member of the (n -> l) Toeplitz family."""
    _dimension_check(n, l)
    return HashSpec(n, l, BitVector.random(rng, n + l - 1))


def hash_evaluate(h: HashSpec, x: BitVector) -> BitVector:
    """Toeplitz matrix-vector product over GF(2), by FFT convolution.

    Output bit i is the parity of sum_j seed[i + n - 1 - j] * x[j], the
    (i + n - 1)-th entry of the convolution seed * x, computed by
    _toeplitz_bits at the least 5-smooth length >= n + l - 1.  The
    counts are exact integers, so the bits equal the matrix product's;
    FloatingPointError is raised if the transform's rounding residual
    says otherwise.

    Cost: O((n+l) log(n+l)) time and O(n+l) memory.
    """
    n = h.input_bits
    if len(x) != n:
        raise DimensionError(f"input length {len(x)} != input_bits {n}")
    return BitVector(_toeplitz_bits(x.bits, h.seed.bits)[0])


@functools.lru_cache(maxsize=256)
def _fft_length(m: int) -> int:
    """Least 5-smooth number (2^a 3^b 5^c) >= m, for m >= 1.

    It is never above the least power of two >= m, where the search
    starts, and pocketfft transforms it on its radix-2/3/4/5 kernels.
    The search takes about 10 us, so the lengths are cached.
    """
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # least p35 * 2^a >= m
            best = min(best, p35 << (-(-m // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _toeplitz_bits(x: np.ndarray, *seeds: np.ndarray) -> list:
    """Toeplitz products over GF(2) of one word under several seeds.

    x is a uint8 word of n bits, each seed a uint8 seed of n + l - 1
    bits for its own l.  Returns the l-bit uint8 product for each seed.
    The rows [*seeds, x] are zero-padded to one length, the least
    5-smooth length >= n + l_max - 1, and transformed in one rfft call,
    so x is transformed once however many seeds hash it; one irfft call
    gives every product.  Entries n-1 .. n+l_max-2 of each cyclic
    convolution do not wrap, since the linear one ends at index
    2n + l - 3 < (n - 1) + size for every l <= l_max.

    Each entry is an integer count in [0, n], and the float64 round-off
    of the transform is about 1e-10 at n = 8000, so rounding to the
    nearest integer recovers it exactly.  The largest rounding residual
    over every row is still checked: at 0.25 or above the counts are
    not trustworthy and FloatingPointError is raised instead.
    """
    n = len(x)
    top = max(len(seed) for seed in seeds)  # n + l_max - 1
    size = _fft_length(top)
    operands = np.zeros((len(seeds) + 1, size))
    for row, seed in zip(operands, seeds):
        row[: len(seed)] = seed
    operands[-1, :n] = x
    spectra = np.fft.rfft(operands)
    counts = np.fft.irfft(spectra[:-1] * spectra[-1], size)[:, n - 1 : top]
    rounded = np.rint(counts)
    counts -= rounded
    residual = float(np.abs(counts).max())
    if not residual < 0.25:  # also catches NaN
        raise FloatingPointError(
            f"FFT Toeplitz product inexact: rounding residual {residual:.3g} "
            f"at n={n}, l={top - n + 1}"
        )
    bits = rounded.astype(np.int64).astype(np.uint8) & 1  # the cast keeps the low bit
    return [row[: len(seed) - n + 1] for row, seed in zip(bits, seeds)]


def hash_all_inputs(h: HashSpec) -> np.ndarray:
    """Hash values of every x in {0,1}^n, packed as integers.

    Entry i is the hash of the word whose big-endian integer encoding
    is i (bit j of the word = bit n-1-j of i).  Built by a linearity
    doubling pass, so it costs O(2^n) XORs; requires n <= 24 (and so
    l <= n fits the uint32 entries).
    """
    n, l = h.input_bits, h.output_bits
    if n > 24:
        raise DimensionError(f"exhaustive hashing limited to n <= 24, got {n}")
    return _linear_table(_toeplitz_columns(h.seed.bits, n, l))


def _toeplitz_columns(seeds: np.ndarray, n: int, l: int) -> np.ndarray:
    """Packed columns of (n -> l) Toeplitz hashes, as uint32.

    seeds holds uint8 seed bits on its last axis, after any leading
    axes.  Entry k of the result is seed bits [k, k + l) read MSB-first:
    column n-1-k of T, the hash of the word whose only set bit is index
    bit k (weight 2^k in the big-endian encoding).  With l = 0 every
    column is 0.
    """
    cols = np.zeros((*seeds.shape[:-1], n), dtype=np.uint32)
    for j in range(l):
        cols |= seeds[..., j:j + n].astype(np.uint32) << np.uint32(l - 1 - j)
    return cols


def _linear_table(cols: np.ndarray) -> np.ndarray:
    """Entry i on the last axis: the XOR of cols[..., k] over the set
    bits k of i, i.e. the packed hash of every word when cols are a
    hash's columns (_toeplitz_columns), in the dtype of cols.  One
    doubling pass: the words with index bit k set are those below 2^k
    plus column k."""
    n = cols.shape[-1]
    out = np.empty((*cols.shape[:-1], 1 << n), dtype=cols.dtype)
    out[..., 0] = 0
    for k in range(n):
        np.bitwise_xor(out[..., : 1 << k], cols[..., k:k + 1],
                       out=out[..., 1 << k : 2 << k])
    return out


def lhl_bound(min_entropy_k: float, l: int) -> float:
    """Leftover-hash-lemma distance bound: min(1, 0.5 * 2^((l-k)/2)).

    Statistical distance of (seed, hash(X)) from (seed, uniform l bits)
    when X has min-entropy at least k.
    """
    if l < 1:
        raise DimensionError(f"output length must be >= 1, got {l}")
    return min(1.0, 0.5 * 2.0 ** ((l - min_entropy_k) / 2.0))
