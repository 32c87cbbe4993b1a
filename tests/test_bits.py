"""BitVector construction, GF(2) arithmetic and hex encoding."""

import numpy as np
import pytest

from wiretap_commit.bits import BitVector
from wiretap_commit.errors import DimensionError
from wiretap_commit.rng import make_rng


def test_msb_first_hex():
    assert BitVector([1, 0, 0, 0, 0, 0, 0, 0]).to_hex() == "80"
    assert BitVector([0, 0, 0, 0, 0, 0, 0, 1]).to_hex() == "01"
    # padding fills the low bits of the final byte
    assert BitVector([1, 1, 1]).to_hex() == "e0"


def test_hex_roundtrip():
    rng = make_rng(0)
    for n in (1, 5, 8, 13, 64):
        v = BitVector.random(rng, n)
        assert BitVector.from_hex(v.to_hex(), n) == v


def test_hex_rejects_dirty_padding():
    with pytest.raises(DimensionError):
        BitVector.from_hex("e1", 3)  # low bits must be zero
    with pytest.raises(DimensionError):
        BitVector.from_hex("e000", 3)  # wrong byte count


def test_int_roundtrip():
    for n, v in ((4, 0b1011), (1, 1), (9, 257)):
        bv = BitVector.from_int(v, n)
        assert bv.to_int() == v
    with pytest.raises(DimensionError):
        BitVector.from_int(16, 4)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 2000])
def test_int_roundtrip_sizes(n):
    rng = make_rng(n)
    words = [BitVector.zeros(n), BitVector(np.ones(n, dtype=np.uint8))]
    words += [BitVector.random(rng, n) for _ in range(20)]
    for v in words:
        value = 0
        for b in v:  # big-endian reference: bit 0 is the MSB
            value = (value << 1) | b
        assert v.to_int() == value
        assert BitVector.from_int(value, n) == v
    with pytest.raises(DimensionError):
        BitVector.from_int(1 << n, n)
    with pytest.raises(DimensionError):
        BitVector.from_int(-1, n)


def test_xor_and_distance():
    a = BitVector([1, 0, 1, 1])
    b = BitVector([0, 0, 1, 0])
    assert (a ^ b) == BitVector([1, 0, 0, 1])
    assert a.hamming_distance(b) == 2
    assert a.weight() == 3
    with pytest.raises(DimensionError):
        a ^ BitVector([1, 0])


def test_immutability():
    v = BitVector([1, 0, 1])
    with pytest.raises(ValueError):
        v.bits[0] = 0


def test_equality_and_hash():
    assert BitVector([1, 0]) == BitVector([1, 0])
    assert BitVector([1, 0]) != BitVector([1, 0, 0])
    assert hash(BitVector([1, 0])) != hash(BitVector([1, 0, 0]))


def test_validation():
    with pytest.raises(DimensionError):
        BitVector([0, 2, 1])
    with pytest.raises(DimensionError):
        BitVector(np.zeros((2, 2), dtype=np.uint8))
