#!/usr/bin/env python3
"""Eve's degrading strategy: simulating Bob's channel locally.

When Bob's channel BSC(p) is a degraded version of Eve's BSC(q)
(p >= q), Eve can cascade her received word through a local BSC(theta)
with q conv theta = p and obtain a word distributed exactly like
Bob's.  This script solves for theta, checks the composition law
q conv theta = p with binary_convolution, and confirms it by
simulation.
"""

import math

from wiretap_commit import (
    BitVector,
    binary_convolution,
    degradation_check,
    eve_degrade,
    make_channel,
    make_rng,
    transmit,
)


def main():
    p, q = 0.3, 0.1  # Bob noisier than Eve: the dangerous direction
    theta = degradation_check(p, q)
    print(f"Bob sees BSC({p}), Eve sees BSC({q})")
    print(f"degradation_check -> theta = {theta:.6f} "
          f"(q conv theta = {binary_convolution(q, theta):.6f} = p)")
    print()

    n = 200_000
    ch = make_channel(p, q, "independent")
    rng = make_rng(31337)
    x = BitVector.random(rng, n)
    y, z = transmit(ch, x, rng)
    y_tilde = eve_degrade(z, theta, rng)

    rate_bob = (x.bits ^ y.bits).mean()
    rate_sim = (x.bits ^ y_tilde.bits).mean()
    sigma = math.sqrt(p * (1 - p) / n)
    print(f"empirical flip rate, Bob's word        : {rate_bob:.5f}")
    print(f"empirical flip rate, Eve's simulation  : {rate_sim:.5f}")
    print(f"target p = {p}, binomial sigma = {sigma:.5f}")
    print()
    print("Eve now holds a statistical clone of Bob's view, which is why")
    print("the one-private converse carries the extra branch min{H(p),H(q)}")
    print("whenever this direction of degradation exists: anything the")
    print("protocol trusts Bob to know, Eve can manufacture.")
    print()
    print("The reverse direction (q >= p) is the built-in degraded coupling:")
    ch_deg = make_channel(0.1, binary_convolution(0.1, 0.25), "degraded")
    print(f"make_channel(0.1, {ch_deg.q:.3f}, 'degraded') -> theta = "
          f"{ch_deg.theta:.3f}, joint flip prob r = {ch_deg.r:.3f}")


if __name__ == "__main__":
    main()
