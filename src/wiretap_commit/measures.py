"""Commitment capacities and converse rate bounds, in closed form.

Everything here is base-2: entropies are in bits and 0*log(0) is taken
as 0 by continuity.  For a binary symmetric broadcast channel with Bob
crossover p and Eve crossover q the module evaluates

* one-private capacity  min{H(p), H(q)}
* two-private capacity  H(p) + H(q) - H(p*q)   (binary convolution)

and the corresponding converse rate bounds max_{P_X} H(X|Y) and
max_{P_X} H(X|Y,Z).  Both are closed forms, not searches: the noise is
additive, so the conditional entropy of the input given the outputs is
concave and symmetric in the input bias and peaks at P_X(1) = 1/2,
where the two-private bound is H(N_B, N_E) - h(p + q - 2r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


def binary_entropy(p: float) -> float:
    """H(p) = -p log2 p - (1-p) log2(1-p), in bits."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"binary_entropy requires p in [0,1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def binary_convolution(p: float, q: float) -> float:
    """Crossover of two cascaded BSCs: p(1-q) + q(1-p)."""
    if not 0.0 <= p <= 1.0 or not 0.0 <= q <= 1.0:
        raise DomainError(f"binary_convolution requires p,q in [0,1], got ({p},{q})")
    return _convolve(p, q)


def _convolve(p, q):
    """p conv q = p(1-q) + q(1-p), unchecked; p and q may be arrays."""
    return p * (1.0 - q) + q * (1.0 - p)


def noise_pair_pmf(p, q, r) -> tuple:
    """(P(0,0), P(0,1), P(1,0), P(1,1)) over flips (N_B, N_E) of marginals
    p and q and joint flip r = P(1,1); p, q and r may be arrays."""
    return (1.0 - p - q + r, q - r, p - r, r)


def _xor_crossover(p, q, r):
    """P(N_B XOR N_E = 1) = p + q - 2r for that flip pair; arrays too."""
    return p + q - 2.0 * r


def binary_deconvolution(a, b):
    """theta with a = b conv theta: the crossover (a - b) / (1 - 2b) of
    the BSC that follows a BSC(b) in a cascade of crossover a.  It lies
    in [0, 1/2) for b <= a < 1/2; a and b may be arrays."""
    return (a - b) / (1.0 - 2.0 * b)


@dataclass(frozen=True)
class CrossoverPair:
    """Bob and Eve marginal crossover probabilities, both strictly interior."""

    p: float
    q: float

    def __post_init__(self):
        if not 0.0 < self.p < 0.5:
            raise DomainError(f"p must lie in (0, 1/2), got {self.p}")
        if not 0.0 < self.q < 0.5:
            raise DomainError(f"q must lie in (0, 1/2), got {self.q}")


def capacity_one_private(pq: CrossoverPair) -> float:
    """One-private commitment capacity: min{H(p), H(q)} bits per use."""
    return min(binary_entropy(pq.p), binary_entropy(pq.q))


def capacity_two_private(pq: CrossoverPair) -> float:
    """Two-private commitment capacity for independent noise:
    H(p) + H(q) - H(p*q)."""
    return (
        binary_entropy(pq.p)
        + binary_entropy(pq.q)
        - binary_entropy(binary_convolution(pq.p, pq.q))
    )


def rate_bound_one_private(pq: CrossoverPair) -> float:
    """Converse rate bound under 1-privacy.

    When Bob's channel is a degraded version of Eve's (p >= q) the bound
    is min{max H(X|Y), max H(X|Z)} = H(q); otherwise it is
    max H(X|Y) = H(p).  For a binary symmetric broadcast channel both
    branches collapse to min{H(p), H(q)}.
    """
    if pq.p >= pq.q:
        return binary_entropy(pq.q)
    return binary_entropy(pq.p)


def rate_bound_two_private(channel) -> float:
    """Converse rate bound under 2-privacy: max over P_X of H(X|Y,Z).

    The noise is additive, so for input bias t = P_X(1)

        H(X|Y,Z) = H(X,Y,Z) - H(Y,Z) = h(t) + H(N_B,N_E) - H(Y,Z).

    It is concave in t (conditional entropy of the input is concave in
    the input law) and symmetric under t <-> 1-t (complementing x, y and
    z maps one law onto the other), so the maximum is at t = 1/2.  There
    Y XOR Z = N_B XOR N_E is independent of Y and has crossover
    p + q - 2r, so H(Y,Z) = 1 + h(p + q - 2r) and

        max H(X|Y,Z) = H(N_B,N_E) - h(p + q - 2r),

    with H(N_B,N_E) summed over the non-zero cells of the noise pmf.
    """
    noise_entropy = sum(-w * math.log2(w) for w in channel.noise_pair_pmf() if w > 0.0)
    return noise_entropy - binary_entropy(_xor_crossover(channel.p, channel.q, channel.r))


# ---------------------------------------------------------------------------
# the same closed forms on a (p, q) grid, as arrays
#
# Each array form runs the +, -, * and / of its scalar form above in the
# same order, and takes every logarithm with math.log2, so each entry
# equals the scalar function at its (p, q) bit for bit.  np.log2 would
# not do: it differs from math.log2 in the last bit on about 0.2 % of
# inputs on a 2-core x86-64 host.


def _entropy_terms(w: np.ndarray) -> np.ndarray:
    """-w log2(w) per entry, 0 where w = 0 (the terms the scalar sums skip)."""
    positive = w > 0.0
    out = np.zeros_like(w)
    out[positive] = -w[positive] * np.fromiter(map(math.log2, w[positive].tolist()),
                                               np.float64)
    return out


def _binary_entropy_array(p: np.ndarray) -> np.ndarray:
    """binary_entropy of each entry of p, for p in [0, 1]."""
    return _entropy_terms(p) + _entropy_terms(1.0 - p)


def capacity_grid(ps: np.ndarray, qs: np.ndarray) -> dict:
    """The closed forms at every point of the grid ps x qs, as arrays
    indexed [i, j] for (p, q) = (ps[i], qs[j]), in the order of the grid
    table's columns:

    * capacity_1, capacity_2: capacity_one_private, capacity_two_private;
    * rate_bound_1: rate_bound_one_private;
    * rate_bound_2: rate_bound_two_private on the independent channel;
    * bob_degraded, theta: whether channel.degradation_check finds a
      theta (p >= q), and that theta (NaN where it finds none).
    """
    p, q = np.meshgrid(ps, qs, indexing="ij")
    h_p = _binary_entropy_array(ps)[:, None]
    h_q = _binary_entropy_array(qs)[None, :]
    degraded = p >= q
    r = p * q  # make_channel's independent coupling
    noise_entropy = sum(map(_entropy_terms, noise_pair_pmf(p, q, r)))
    return {
        "p": p,
        "q": q,
        "capacity_1": np.minimum(h_p, h_q),
        "capacity_2": h_p + h_q - _binary_entropy_array(_convolve(p, q)),
        "rate_bound_1": np.where(degraded, h_q, h_p),
        "rate_bound_2": noise_entropy - _binary_entropy_array(_xor_crossover(p, q, r)),
        "bob_degraded": degraded,
        "theta": np.where(degraded, binary_deconvolution(p, q), np.nan),
    }
