#!/usr/bin/env python3
"""Capacity landscape of the binary symmetric broadcast channel.

Walks a small (p, q) grid and prints, per point, the one-private and
two-private commitment capacities next to the converse rate bounds,
all four in closed form.  The last two columns show whether Bob's
channel is a degraded version of Eve's and the crossover of the
degrading channel when it is.
"""

import numpy as np

from wiretap_commit import (
    CrossoverPair,
    capacity_one_private,
    capacity_two_private,
    degradation_check,
    make_channel,
    rate_bound_one_private,
    rate_bound_two_private,
)


def main():
    grid = np.linspace(0.05, 0.45, 5)
    print(f"{'p':>6} {'q':>6} {'C1':>8} {'C2':>8} {'bound1':>8} "
          f"{'bound2':>8} {'deg':>4} {'theta':>7}")
    for p in grid:
        for q in grid:
            pq = CrossoverPair(float(p), float(q))
            c1 = capacity_one_private(pq)
            c2 = capacity_two_private(pq)
            b1 = rate_bound_one_private(pq)
            b2 = rate_bound_two_private(make_channel(pq.p, pq.q))
            theta = degradation_check(pq.p, pq.q)
            deg = "yes" if theta is not None else "no"
            theta_s = f"{theta:7.4f}" if theta is not None else "      -"
            print(f"{p:6.2f} {q:6.2f} {c1:8.5f} {c2:8.5f} {b1:8.5f} "
                  f"{b2:8.5f} {deg:>4} {theta_s}")

    print()
    print("Notes:")
    print(" * C1 = min{H(p), H(q)}; the converse bound1 picks the branch")
    print("   that matches the degradation direction and lands on the same value.")
    print(" * C2 = H(p) + H(q) - H(p conv q) and equals bound2, the exact")
    print("   maximization of H(X|Y,Z) over the input bias, for independent noise.")
    print(" * C2 < C1 strictly whenever p != q: a colluding Bob+Eve pair")
    print("   always learns at least as much as either alone.")


if __name__ == "__main__":
    main()
