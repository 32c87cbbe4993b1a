"""Explicit-pmf information measures the tests check the closed forms against.

Pmf is an explicit finite distribution whose joint labels are tuples of
coordinates, so conditional quantities reduce to exact finite sums, and
one_shot_joint is the exact 8-outcome pmf of (X, Y, Z) for one channel
use.  The package kept these until only the tests called them; they
stay here verbatim, less the methods no test calls, as an independent
reference for the converse formulas and for the Markov structure of
the channel couplings.
"""

import math

import numpy as np

from wiretap_commit.channel import WiretapChannel
from wiretap_commit.errors import DomainError, WiretapCommitError

PROB_TOL = 1e-12


class CoordinateError(WiretapCommitError, ValueError):
    """Bad coordinate indices for a joint distribution."""


class Pmf:
    """Explicit finite distribution: labels with probabilities summing to 1.

    Labels of joint distributions are tuples; coordinate-indexed
    operations (conditionals) require that.  Probabilities must be
    nonnegative and sum to 1 within PROB_TOL; sums inside the tolerance
    are renormalized, anything worse is rejected.
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

    def as_dict(self) -> dict:
        return dict(self._outcomes)

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

    def group_by(self, coords) -> dict:
        """Map from value of `coords` to list of (full label, prob)."""
        coords = self._coords(coords)
        acc: dict = {}
        for lab, p in self._outcomes:
            key = tuple(lab[c] for c in coords)
            acc.setdefault(key, []).append((lab, p))
        return acc


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


def conditional_mutual_information(joint: Pmf, a, b, given) -> float:
    """I(A;B | C) from coordinate index sets, via three conditional entropies."""
    a, b, given = tuple(a), tuple(b), tuple(given)
    return (
        conditional_entropy(joint, a, given)
        + conditional_entropy(joint, b, given)
        - conditional_entropy(joint, tuple(a) + tuple(b), given)
    )


def one_shot_joint(ch: WiretapChannel, px1: float) -> Pmf:
    """Exact 8-outcome joint pmf of (X, Y, Z) for a single channel use."""
    if not 0.0 <= px1 <= 1.0:
        raise DomainError(f"px1 must lie in [0,1], got {px1}")
    pi = np.asarray(ch.noise_pair_pmf()).reshape(2, 2)
    px = (1.0 - px1, px1)
    outcomes = []
    for x in (0, 1):
        for y in (0, 1):
            for z in (0, 1):
                outcomes.append(((x, y, z), px[x] * pi[x ^ y, x ^ z]))
    return Pmf(outcomes)
