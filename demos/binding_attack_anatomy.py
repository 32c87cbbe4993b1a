#!/usr/bin/env python3
"""Anatomy of the binding attack at desk scale.

A cheating Alice wants two reveal claims with different commit strings
that Bob both accepts.  Candidates must fall in Bob's distance band
and match the hash challenge she already answered; this script
enumerates that confusable set exhaustively at n=16, runs the attack
over fresh channel draws at two challenge lengths from paired seeds,
and shows collusion with Eve changing nothing when the two channel
noises are independent.
"""

import numpy as np

from wiretap_commit import (
    BitVector,
    CrossoverPair,
    binding_attack,
    commit_phase,
    enumerate_confusables,
    explicit_params,
    make_channel,
    make_rng,
)


def build_session(lg, seed):
    params = explicit_params(16, CrossoverPair(0.25, 0.25), "one",
                             alpha1=0.125, challenge_bits=lg, commit_bits=4)
    channel = make_channel(0.25, 0.25, "independent")
    rng = make_rng(np.random.SeedSequence([seed, 0xD390]))
    c = BitVector.random(rng, params.commit_bits)
    return params, channel, commit_phase(params, c, channel, rng)


def main():
    seed = 7
    for lg in (8, 12):
        params, channel, session = build_session(lg, seed)
        cs = enumerate_confusables(session, params)
        rep = binding_attack(session, params, channel, trials=800, seed=seed)
        d = rep.details
        flag = "ok" if d["beta1_exceeds_2eta"] else "VIOLATED"
        print(f"challenge bits l_g = {lg}")
        print(f"  confusables at Bob's true word : {cs.size} (eta_hat {cs.eta_hat:.3f})")
        print(f"  attack success rate            : {rep.estimate:.3f} "
              f"[{rep.ci_lo:.3f}, {rep.ci_hi:.3f}]")
        print(f"  mean |A|^2 2^-l ceiling        : {d['mean_ceiling']:.3f}")
        print(f"  beta1 > 2 eta_hat              : {flag} "
              f"(beta' = {d['beta_prime']:.3f})")
        print()

    params, channel, session = build_session(8, seed)
    alone = binding_attack(session, params, channel, mode="alone", trials=800, seed=seed)
    joint = binding_attack(session, params, channel, mode="with_eve", trials=800, seed=seed)
    same = np.array_equal(alone.details["success_indicators"],
                          joint.details["success_indicators"])
    print(f"alone vs with_eve, independent noise, paired seeds: "
          f"identical on every trial = {same}")
    print()
    print("At n = 16 the distance band holds ~2^13.9 words, so beta1 would")
    print("need to defeat 2*eta ~ 1.7 bits/use: far beyond any l_g <= n.")
    print("The attack therefore wins almost always here; the asymptotic")
    print("guarantee needs n large enough that beta1 > 2*eta is affordable.")
    print("Lengthening the challenge still only ever shrinks the set.")


if __name__ == "__main__":
    main()
