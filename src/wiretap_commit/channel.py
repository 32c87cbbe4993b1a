"""Memoryless binary symmetric broadcast wiretap channel BS-BC(p, q).

One channel use flips Bob's bit with probability p and Eve's with
probability q; the per-symbol flip pair (N_B, N_E) may be correlated.
The joint flip probability r = P(N_B=1, N_E=1) parameterizes the whole
class: r = p*q gives independent noise (Markov Y-X-Z); the degraded
member (Markov X-Y-Z, Z = Y through a BSC(theta) with theta solving
q = p conv theta) has r = p*(1-theta); and any r inside the Frechet
interval [max(0, p+q-1), min(p,q)] is a valid custom coupling.

The channel also provides degradation analysis (can Eve locally
simulate Bob's noisier channel by cascading a BSC(theta)?) and Eve's
degrading strategy itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bits import BitVector
from .errors import CouplingError, DomainError
from .measures import CrossoverPair, Pmf

COUPLINGS = ("independent", "degraded", "custom")


@dataclass(frozen=True)
class WiretapChannel:
    """Validated BS-BC(p, q) with joint flip probability r."""

    p: float
    q: float
    coupling: str
    r: float
    theta: Optional[float] = None  # BSC(theta) from Y to Z, degraded only

    def noise_pair_pmf(self) -> tuple:
        """(P(0,0), P(0,1), P(1,0), P(1,1)) over (N_B, N_E)."""
        p, q, r = self.p, self.q, self.r
        return (1.0 - p - q + r, q - r, p - r, r)


def make_channel(p: float, q: float, coupling: str = "independent",
                 r: Optional[float] = None) -> WiretapChannel:
    """Construct a validated channel for one of the three coupling modes."""
    pq = CrossoverPair(p, q)  # validates the interior constraint
    lo = max(0.0, p + q - 1.0)
    hi = min(p, q)
    if coupling == "independent":
        if r is not None:
            raise CouplingError("independent coupling takes no r parameter")
        return WiretapChannel(p=p, q=q, coupling="independent", r=p * q)
    if coupling == "degraded":
        if r is not None:
            raise CouplingError("degraded coupling takes no r parameter")
        if q < p:
            raise CouplingError(
                f"degraded coupling needs q >= p (Eve noisier), got p={p}, q={q}"
            )
        theta = (q - p) / (1.0 - 2.0 * p)
        r_deg = p * (1.0 - theta)
        return WiretapChannel(p=p, q=q, coupling="degraded", r=r_deg, theta=theta)
    if coupling == "custom":
        if r is None:
            raise CouplingError("custom coupling requires r")
        if not lo - 1e-15 <= r <= hi + 1e-15:
            raise CouplingError(
                f"r={r} outside Frechet bounds [{lo}, {hi}] for p={p}, q={q}"
            )
        return WiretapChannel(p=p, q=q, coupling="custom", r=float(min(max(r, lo), hi)))
    raise CouplingError(f"unknown coupling {coupling!r}; expected one of {COUPLINGS}")


def _noise_pair(ch: WiretapChannel, n: int, rng: np.random.Generator):
    """Draw n iid flip pairs.

    Per symbol: u1 decides N_B; u2 decides N_E through its conditional
    law given N_B, so the pair follows the joint noise pmf exactly and
    the uniform stream consumed is the same for every coupling.
    """
    u = rng.random((n, 2))
    nb = u[:, 0] < ch.p
    cond1 = ch.r / ch.p              # P(N_E=1 | N_B=1)
    cond0 = (ch.q - ch.r) / (1.0 - ch.p)  # P(N_E=1 | N_B=0)
    ne = np.where(nb, u[:, 1] < cond1, u[:, 1] < cond0)
    return nb.astype(np.uint8), ne.astype(np.uint8)


def transmit(ch: WiretapChannel, x: BitVector, rng: np.random.Generator):
    """One block transmission: returns (y, z) as seen by Bob and Eve."""
    nb, ne = _noise_pair(ch, len(x), rng)
    return BitVector(x.bits ^ nb), BitVector(x.bits ^ ne)


def degradation_check(p: float, q: float) -> Optional[float]:
    """Is Bob's BSC(p) a degraded version of Eve's BSC(q)?

    Returns theta with p = q conv theta = q(1 - theta) + (1 - q)theta,
    i.e. BSC(p) = BSC(q) followed by BSC(theta), which exists exactly
    when p >= q; None otherwise.
    """
    CrossoverPair(p, q)
    if p < q:
        return None
    return (p - q) / (1.0 - 2.0 * q)


def eve_degrade(z: BitVector, theta: float, rng: np.random.Generator) -> BitVector:
    """Eve's local channel simulation: pass z through BSC(theta)."""
    if not 0.0 <= theta < 0.5:
        raise DomainError(f"theta must lie in [0, 1/2), got {theta}")
    flips = (rng.random(len(z)) < theta).astype(np.uint8)
    return BitVector(z.bits ^ flips)


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
