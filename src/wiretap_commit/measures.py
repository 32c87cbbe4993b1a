"""Exact information measures on explicit finite distributions.

Everything here is base-2: entropies are in bits and 0*log(0) is taken
as 0 by continuity.  Joint distributions are represented as explicit
Pmf objects whose labels are tuples of coordinates, so conditional
quantities reduce to exact finite sums; nothing in this module samples.
Min-entropies are the exact (non-smoothed) quantities, which lower-bound
any smoothed variant.

Alongside the generic measures, the module evaluates the commitment
capacity formulas for a binary symmetric broadcast channel with Bob
crossover p and Eve crossover q:

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
from typing import NamedTuple

import numpy as np

from .errors import CoordinateError, DomainError, OutcomeSpaceError

PROB_TOL = 1e-12

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
    return p * (1.0 - q) + q * (1.0 - p)


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


class Pmf:
    """Explicit finite distribution: labels with probabilities summing to 1.

    Labels of joint distributions are tuples; coordinate-indexed
    operations (marginals, conditionals) require that.  Probabilities
    must be nonnegative and sum to 1 within PROB_TOL; sums inside the
    tolerance are renormalized, anything worse is rejected.
    """

    __slots__ = ("_outcomes",)

    def __init__(self, outcomes):
        items = [(label, float(p)) for label, p in outcomes]
        if not items:
            raise DomainError("empty pmf")
        seen = set()
        for label, p in items:
            if label in seen:
                raise DomainError(f"duplicate outcome label {label!r}")
            seen.add(label)
            if p < -PROB_TOL:
                raise DomainError(f"negative probability {p} for {label!r}")
        total = sum(p for _, p in items)
        if abs(total - 1.0) > PROB_TOL:
            raise DomainError(f"probabilities sum to {total}, not 1")
        self._outcomes = tuple(
            (label, max(p, 0.0) / total) for label, p in items
        )

    @classmethod
    def uniform(cls, labels) -> "Pmf":
        labels = list(labels)
        w = 1.0 / len(labels)
        return cls((lab, w) for lab in labels)

    @property
    def outcomes(self):
        return self._outcomes

    def probabilities(self) -> np.ndarray:
        return np.array([p for _, p in self._outcomes])

    def as_dict(self) -> dict:
        return dict(self._outcomes)

    def support(self):
        return [lab for lab, p in self._outcomes if p > 0.0]

    def __len__(self) -> int:
        return len(self._outcomes)

    def __repr__(self) -> str:
        return f"Pmf({list(self._outcomes)!r})"

    def _coords(self, coords) -> tuple:
        """Validate coordinate indices against the (tuple) labels."""
        first = self._outcomes[0][0]
        if not isinstance(first, tuple):
            raise CoordinateError("labels are not tuples; no coordinates to index")
        width = len(first)
        coords = tuple(coords)
        for c in coords:
            if not 0 <= c < width:
                raise CoordinateError(f"coordinate {c} out of range for width {width}")
        if len(set(coords)) != len(coords):
            raise CoordinateError(f"repeated coordinates in {coords}")
        for lab, _ in self._outcomes:
            if not isinstance(lab, tuple) or len(lab) != width:
                raise CoordinateError("inconsistent label widths")
        return coords

    def marginal(self, coords) -> "Pmf":
        """Marginal pmf of the given coordinates (kept in the given order)."""
        coords = self._coords(coords)
        acc: dict = {}
        for lab, p in self._outcomes:
            key = tuple(lab[c] for c in coords)
            acc[key] = acc.get(key, 0.0) + p
        return Pmf(acc.items())

    def group_by(self, coords) -> dict:
        """Map from value of `coords` to list of (full label, prob)."""
        coords = self._coords(coords)
        acc: dict = {}
        for lab, p in self._outcomes:
            key = tuple(lab[c] for c in coords)
            acc.setdefault(key, []).append((lab, p))
        return acc


def entropy(pmf: Pmf) -> float:
    """Shannon entropy in bits."""
    return float(sum(-p * math.log2(p) for _, p in pmf.outcomes if p > 0.0))


def conditional_entropy(joint: Pmf, target, given) -> float:
    """H(target | given) in bits, both arguments coordinate index sets."""
    target = joint._coords(target)
    given = joint._coords(given)
    if set(target) & set(given):
        raise CoordinateError("target and conditioning coordinates overlap")
    total = 0.0
    for _, cell in joint.group_by(given).items():
        p_cond = sum(p for _, p in cell)
        if p_cond <= 0.0:
            continue
        acc: dict = {}
        for lab, p in cell:
            key = tuple(lab[c] for c in target)
            acc[key] = acc.get(key, 0.0) + p
        total += sum(-p * math.log2(p / p_cond) for p in acc.values() if p > 0.0)
    return total


def mutual_information(joint: Pmf, split) -> float:
    """I(A;B) where A is the coordinates in `split` and B the rest."""
    split = joint._coords(split)
    width = len(joint.outcomes[0][0])
    rest = tuple(c for c in range(width) if c not in split)
    if not rest:
        raise CoordinateError("split must leave at least one coordinate")
    h_a = entropy(joint.marginal(split))
    h_b = entropy(joint.marginal(rest))
    h_ab = entropy(joint)
    return h_a + h_b - h_ab


def conditional_mutual_information(joint: Pmf, a, b, given) -> float:
    """I(A;B | C) from coordinate index sets, via three conditional entropies."""
    a, b, given = tuple(a), tuple(b), tuple(given)
    return (
        conditional_entropy(joint, a, given)
        + conditional_entropy(joint, b, given)
        - conditional_entropy(joint, tuple(a) + tuple(b), given)
    )


def min_entropy(pmf: Pmf) -> float:
    """H_inf(X) = -log2 max_x P(x)."""
    return -math.log2(max(p for _, p in pmf.outcomes))


def conditional_min_entropy(joint: Pmf, target=(0,), given=None) -> float:
    """Worst-case conditional min-entropy: min_y H_inf(target | given=y).

    By default the first coordinate is the target and all remaining
    coordinates condition.
    """
    width = len(joint.outcomes[0][0]) if isinstance(joint.outcomes[0][0], tuple) else None
    if width is None:
        raise CoordinateError("labels are not tuples; no coordinates to index")
    target = joint._coords(target)
    if given is None:
        given = tuple(c for c in range(width) if c not in target)
    given = joint._coords(given)
    if set(target) & set(given):
        raise CoordinateError("target and conditioning coordinates overlap")
    worst = math.inf
    for _, cell in joint.group_by(given).items():
        p_cond = sum(p for _, p in cell)
        if p_cond <= 0.0:
            continue
        acc: dict = {}
        for lab, p in cell:
            key = tuple(lab[c] for c in target)
            acc[key] = acc.get(key, 0.0) + p
        worst = min(worst, -math.log2(max(acc.values()) / p_cond))
    return worst


def statistical_distance(a: Pmf, b: Pmf) -> float:
    """Half the L1 distance between two pmfs on the same outcome space."""
    da, db = a.as_dict(), b.as_dict()
    if set(da) != set(db):
        raise OutcomeSpaceError("pmfs are defined on different outcome spaces")
    return 0.5 * sum(abs(da[k] - db[k]) for k in da)


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
    from .channel import degradation_check  # local import to avoid a cycle

    if degradation_check(pq.p, pq.q) is not None:
        return binary_entropy(pq.q)
    return binary_entropy(pq.p)


class RateBound(NamedTuple):
    value: float
    input_bias: float  # argmax P_X(1)


def rate_bound_two_private(channel) -> RateBound:
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
    xor_flip = channel.p + channel.q - 2.0 * channel.r
    return RateBound(value=noise_entropy - binary_entropy(xor_flip), input_bias=0.5)
