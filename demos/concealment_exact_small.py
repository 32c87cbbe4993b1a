#!/usr/bin/env python3
"""Exact leakage of the commit bit at enumerable block length.

Enumerates every word, noise pattern and hash seed at n = 6 and
reports, for Bob's view, Eve's view and their union, the statistical
distance between the views under c=0 and c=1, the mutual information
with the commit bit, and the leftover-hash reference computed from the
exact conditional min-entropy.  A sampled pass then replaces the
extracted pad with a fresh uniform bit, the null model of a perfect
one-time pad, where the MAP distinguisher's advantage is zero within
its interval.
"""

from wiretap_commit import (
    CrossoverPair,
    concealment_exact,
    concealment_monte_carlo,
    explicit_params,
    make_channel,
)


def main():
    params = explicit_params(6, CrossoverPair(0.25, 0.25), "two",
                             alpha1=0.2, challenge_bits=1, commit_bits=1)
    channel = make_channel(0.25, 0.25, "independent")

    reports = concealment_exact(params, channel)
    print("exact enumeration at n=6, p=q=0.25, one challenge bit, one pad bit")
    print(f"{'view':>6} {'SD(c=0,c=1)':>12} {'I(C;view)':>10} "
          f"{'k_hat':>7} {'2*LHL':>8}")
    for view in ("bob", "eve", "joint"):
        sd = reports[f"sd_{view}"]
        mi = reports[f"mi_{view}"]
        print(f"{view:>6} {sd.estimate:>12.6f} {mi.estimate:>10.6f} "
              f"{sd.details['k_hat']:>7.3f} {sd.reference_bound:>8.4f}")
    print()
    print("chain rule: I(C;V_E) <= I(C;V_B,V_E):",
          reports["mi_eve"].estimate <= reports["mi_joint"].estimate)

    print("uniform pad (null model), sampled MAP-distinguisher advantage:")
    for view in ("bob", "eve", "joint"):
        null = concealment_monte_carlo(params, channel, trials=3000, seed=99,
                                       view=view, uniform_pad=True)
        print(f"{view:>6} {null.estimate:>8.4f} [{null.ci_lo:.4f}, {null.ci_hi:.4f}]")
    print()

    mc = concealment_monte_carlo(params, channel, trials=3000, seed=99, view="bob")
    print(f"sampled MAP-distinguisher advantage on Bob's view: "
          f"{mc.estimate:.4f} [{mc.ci_lo:.4f}, {mc.ci_hi:.4f}]")
    print(f"it lower-bounds the exact distance {reports['sd_bob'].estimate:.4f}.")
    print()
    print("Leakage at n=6 is large: these block lengths exist to check the")
    print("machinery exactly, not to hide anything.  The distance shrinks")
    print("with n (rerun at n=4 and n=8 over Bob's view to see the drop).")


if __name__ == "__main__":
    main()
