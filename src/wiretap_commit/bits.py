"""Fixed-length binary words over GF(2).

BitVector is the carrier for channel inputs/outputs, hash values, commit
strings and one-time pads.  Index 0 is the most significant / first
transmitted bit; hex serialization packs bits MSB-first and zero-pads to
a byte boundary.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import ConfigError, DimensionError


class BitVector:
    """Immutable sequence of bits with GF(2) arithmetic."""

    __slots__ = ("_bits",)

    def __init__(self, bits):
        arr = np.asarray(bits, dtype=np.uint8)
        if arr.ndim != 1:
            raise DimensionError(f"bits must be one-dimensional, got shape {arr.shape}")
        if arr.size and arr.max() > 1:
            raise DimensionError("bits must be 0 or 1")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "_bits", arr)

    @classmethod
    def zeros(cls, n: int) -> "BitVector":
        return cls(np.zeros(n, dtype=np.uint8))

    @classmethod
    def random(cls, rng: np.random.Generator, n: int) -> "BitVector":
        """Uniform word of length n drawn from rng."""
        return cls(rng.integers(0, 2, size=n, dtype=np.uint8))

    @classmethod
    def from_int(cls, value: int, n: int) -> "BitVector":
        """Big-endian expansion of an integer: bit 0 is the MSB."""
        value = operator.index(value)
        if value < 0 or value >> n:
            raise DimensionError(f"{value} does not fit in {n} bits")
        # left-align in whole bytes, so the first n unpacked bits are the word
        data = (value << (-n % 8)).to_bytes((n + 7) // 8, "big")
        return cls(np.unpackbits(np.frombuffer(data, dtype=np.uint8))[:n])

    @classmethod
    def from_hex(cls, hexstr: str, n: int) -> "BitVector":
        """Inverse of to_hex; rejects a string that is not hex (ConfigError)
        and nonzero padding bits."""
        try:
            data = bytes.fromhex(hexstr)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"not a hex string: {hexstr!r}") from e
        if len(data) != (n + 7) // 8:
            raise DimensionError(f"hex length {len(data)} bytes does not match {n} bits")
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
        if bits[n:].any():
            raise DimensionError("nonzero padding bits in hex encoding")
        return cls(bits[:n])

    @property
    def bits(self) -> np.ndarray:
        """Read-only uint8 view of the bits."""
        return self._bits

    def to_hex(self) -> str:
        return np.packbits(self._bits).tobytes().hex()

    def to_int(self) -> int:
        """Big-endian integer value: inverse of from_int."""
        return int.from_bytes(np.packbits(self._bits).tobytes(), "big") >> (-len(self) % 8)

    def weight(self) -> int:
        """Hamming weight."""
        return int(self._bits.sum())

    def hamming_distance(self, other: "BitVector") -> int:
        return (self ^ other).weight()

    def __xor__(self, other: "BitVector") -> "BitVector":
        if not isinstance(other, BitVector):
            return NotImplemented
        if len(self) != len(other):
            raise DimensionError(
                f"XOR of unequal lengths {len(self)} and {len(other)}"
            )
        return BitVector(self._bits ^ other._bits)

    def __len__(self) -> int:
        return self._bits.size

    def __getitem__(self, i) -> int:
        return int(self._bits[i])

    def __iter__(self):
        return iter(int(b) for b in self._bits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return len(self) == len(other) and bool(np.array_equal(self._bits, other._bits))

    def __hash__(self) -> int:
        return hash((self._bits.size, self._bits.tobytes()))

    def __repr__(self) -> str:
        return f"BitVector({''.join(str(int(b)) for b in self._bits)})"
