"""Reference Toeplitz products the tests check the package against.

toeplitz_matrix is the l x n matrix a HashSpec describes, and
pow2_hash_evaluate is the FFT product padded to a power of two that
hashing evaluated before it moved to 5-smooth lengths, kept verbatim
so the current kernel can be checked against it bit for bit.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from wiretap_commit.bits import BitVector
from wiretap_commit.errors import DimensionError
from wiretap_commit.hashing import HashSpec


def toeplitz_matrix(h: HashSpec) -> np.ndarray:
    """The l x n Toeplitz matrix, row i = seed[i : i+n] reversed."""
    windows = sliding_window_view(h.seed.bits, h.input_bits)
    return windows[: h.output_bits, ::-1].copy()


def pow2_hash_evaluate(h: HashSpec, x: BitVector) -> BitVector:
    n, l = h.input_bits, h.output_bits
    if len(x) != n:
        raise DimensionError(f"input length {len(x)} != input_bits {n}")
    size = 1 << (n + l - 2).bit_length()  # least power of two >= n + l - 1
    operands = np.zeros((2, size))
    operands[0, : n + l - 1] = h.seed.bits
    operands[1, :n] = x.bits
    spectra = np.fft.rfft(operands)
    counts = np.fft.irfft(spectra[0] * spectra[1], size)[n - 1 : n + l - 1]
    rounded = np.rint(counts)
    residual = float(np.abs(counts - rounded).max())
    if not residual < 0.25:  # also catches NaN
        raise FloatingPointError(
            f"FFT Toeplitz product inexact: rounding residual {residual:.3g} "
            f"at n={n}, l={l}"
        )
    return BitVector((rounded.astype(np.int64) & 1).astype(np.uint8))
