"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime (run with `pytest tests/test_acceptance.py -s` to
see the lines live).

Every expected value is either computed here by an independent
re-evaluation (separate code path from the library), enumerated
exhaustively, or bounded by the analytic reference at the stated
tolerance.  Runtime ceilings are part of the criteria and asserted.
"""

import itertools
import math
import time

import numpy as np
import pytest

from wiretap_commit.adversary import (
    binding_attack,
    concealment_exact,
    estimate_soundness,
    wilson_interval,
)
from wiretap_commit.bits import BitVector
from wiretap_commit.channel import degradation_check, make_channel
from wiretap_commit.hashing import HashSpec, hash_all_inputs, lhl_bound
from wiretap_commit.measures import (
    CrossoverPair,
    binary_convolution,
    binary_entropy,
    capacity_one_private,
    capacity_two_private,
    rate_bound_two_private,
)
from wiretap_commit.protocol import commit_phase, derive_params, explicit_params
from wiretap_commit.rng import make_rng

from measures_reference import conditional_mutual_information, one_shot_joint

GRID = np.linspace(0.05, 0.45, 20)


class _Criterion:
    """Context manager printing one pass/fail line with the runtime."""

    def __init__(self, number, description, budget_s):
        self.number = number
        self.description = description
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.number:2d}] {status} {self.description} "
              f"({elapsed:.2f}s, budget {self.budget_s:g}s)", flush=True)
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.2f}s >= {self.budget_s}s"
            )
        return False


def independent_entropy(p: float) -> float:
    """Re-evaluation through natural logs, separate from the library."""
    if p in (0.0, 1.0):
        return 0.0
    ln2 = math.log(2.0)
    return (-p * math.log(p) - (1.0 - p) * math.log(1.0 - p)) / ln2


def test_criterion_1_capacity_formulas():
    with _Criterion(1, "capacity formulas on the 20x20 grid", 1.0):
        for p in GRID:
            for q in GRID:
                pq = CrossoverPair(float(p), float(q))
                c1 = capacity_one_private(pq)
                c2 = capacity_two_private(pq)
                ref1 = min(independent_entropy(p), independent_entropy(q))
                ref2 = (independent_entropy(p) + independent_entropy(q)
                        - independent_entropy(p + q - 2 * p * q))
                assert abs(c1 - ref1) <= 1e-12
                assert abs(c2 - ref2) <= 1e-12
                assert c2 <= c1 + 1e-12


def test_criterion_2_converse_formula_consistency():
    with _Criterion(2, "converse bound matches formulas on the grid", 10.0):
        for p in GRID:
            for q in GRID:
                ch = make_channel(float(p), float(q), "independent")
                rb = rate_bound_two_private(ch)
                formula = (binary_entropy(float(p)) + binary_entropy(float(q))
                           - binary_entropy(binary_convolution(float(p), float(q))))
                assert abs(rb - formula) <= 1e-10
        # degraded coupling: the eavesdropper's word adds nothing given
        # Bob's, so the bound collapses to H(p); q = p conv theta always
        # yields a valid degraded channel
        for p in GRID[::2]:
            for theta in np.linspace(0.0, 0.45, 10):
                q = binary_convolution(float(p), float(theta))
                if not q < 0.5:
                    continue
                ch = make_channel(float(p), q, "degraded")
                rb = rate_bound_two_private(ch)
                assert abs(rb - binary_entropy(float(p))) <= 1e-10


def test_criterion_3_xor_universality_exact():
    with _Criterion(3, "exact XOR-universality at n=4, l=2", 1.0):
        tables = np.stack([
            hash_all_inputs(HashSpec(4, 2, BitVector.from_int(s, 5)))
            for s in range(32)
        ])
        pairs = list(itertools.combinations(range(16), 2))
        assert len(pairs) == 120
        for a, b in pairs:
            assert int((tables[:, a] == tables[:, b]).sum()) == 8


def test_criterion_4_leftover_hash_exact():
    with _Criterion(4, "exact extractor distance under the LHL bound", 30.0):
        n, l = 8, 2
        seeds = 1 << (n + l - 1)
        tables = np.stack([
            hash_all_inputs(HashSpec(n, l, BitVector.from_int(s, n + l - 1)))
            for s in range(seeds)
        ])
        uni = 1.0 / (1 << l)
        rng = np.random.default_rng(20240)
        for k in range(3, 9):
            for _ in range(20):
                subset = rng.choice(1 << n, size=1 << k, replace=False)
                counts = np.stack([np.bincount(t[subset], minlength=1 << l)
                                   for t in tables])
                sd = float(0.5 * np.abs(counts / (1 << k) - uni).sum(axis=1).mean())
                assert sd <= lhl_bound(k, l) + 1e-12


def test_criterion_5_soundness():
    with _Criterion(5, "honest rejection rate below 1% at n=2000", 5.0):
        params = derive_params(2000, CrossoverPair(0.1, 0.2), "one",
                               alpha1=0.04, beta1=0.05, beta2=0.1)
        report = estimate_soundness(params, trials=10_000, seed=20245)
        assert report.reference_bound == pytest.approx(
            2 * math.exp(-6.4), rel=1e-12)
        assert report.estimate < 0.01


def _binding_session(lg: int, seed: int):
    params = explicit_params(16, CrossoverPair(0.25, 0.25), "one",
                             alpha1=0.125, challenge_bits=lg, commit_bits=4)
    rng = make_rng(np.random.SeedSequence([seed, 0xB1D]))
    c = BitVector.random(rng, params.commit_bits)
    return params, commit_phase(params, c, params.channel, rng)


def test_criterion_6_binding():
    with _Criterion(6, "binding success within the confusable-set ceiling", 120.0):
        seed = 20246
        params8, session8 = _binding_session(8, seed)
        report8 = binding_attack(session8, params8, trials=1000, seed=seed)
        mean_ceiling = report8.details["mean_ceiling"]
        lo95, _ = wilson_interval(int(round(report8.estimate * 1000)), 1000)
        assert lo95 <= mean_ceiling + 1e-12
        # paired seeds, longer challenge: the same master seed makes the
        # l=12 challenge seed extend the l=8 one, so success never grows
        params12, session12 = _binding_session(12, seed)
        report12 = binding_attack(session12, params12, trials=1000, seed=seed)
        s8 = report8.details["success_indicators"]
        s12 = report12.details["success_indicators"]
        assert np.all(s12 <= s8)
        assert report12.estimate <= report8.estimate


def test_criterion_7_concealment_and_secrecy_exact():
    with _Criterion(7, "exact concealment under twice the LHL bound at n=6", 60.0):
        params = explicit_params(6, CrossoverPair(0.25, 0.25), "two",
                                 alpha1=0.2, challenge_bits=1, commit_bits=1)
        reports = concealment_exact(params)
        for view in ("bob", "eve", "joint"):
            rep = reports[f"sd_{view}"]
            k_hat = rep.details["k_hat"]
            assert rep.estimate <= 2.0 * lhl_bound(k_hat, 1) + 1e-12
        assert reports["mi_eve"].estimate <= reports["mi_joint"].estimate + 1e-12


def test_criterion_8_collusion_irrelevance_for_binding():
    with _Criterion(8, "Eve collusion never changes a binding trial", 120.0):
        seed = 20248
        params, session = _binding_session(8, seed)
        alone = binding_attack(session, params, mode="alone", trials=1000, seed=seed)
        with_eve = binding_attack(session, params, mode="with_eve", trials=1000, seed=seed)
        assert np.array_equal(alone.details["success_indicators"],
                              with_eve.details["success_indicators"])


def test_criterion_9_degradation_analysis():
    with _Criterion(9, "degradation check and Eve's channel simulation", 10.0):
        theta = degradation_check(0.3, 0.1)
        assert abs(theta - 0.25) <= 1e-12
        # exact one-shot law of Eve's simulated word: enumerate the
        # symbol, her noise and the simulation noise
        q = 0.1
        mismatch = 0.0
        for ne in (0, 1):
            for ns in (0, 1):
                pr = (q if ne else 1 - q) * (theta if ns else 1 - theta)
                if ne ^ ns:
                    mismatch += pr
        assert abs(mismatch - binary_convolution(q, theta)) <= 1e-12
        assert abs(mismatch - 0.3) <= 1e-12


def test_criterion_10_markov_structure():
    with _Criterion(10, "coupling Markov structure on the 10x10 grid", 30.0):
        grid = np.linspace(0.05, 0.45, 10)
        for p in grid:
            for q in grid:
                ch = make_channel(float(p), float(q), "independent")
                joint = one_shot_joint(ch, 0.5)
                assert abs(conditional_mutual_information(
                    joint, (1,), (2,), (0,))) <= 1e-12
        for p in grid:
            for theta in np.linspace(0.0, 0.45, 10):
                q = binary_convolution(float(p), float(theta))
                if not q < 0.5:
                    continue
                ch = make_channel(float(p), q, "degraded")
                joint = one_shot_joint(ch, 0.5)
                assert abs(conditional_mutual_information(
                    joint, (0,), (2,), (1,))) <= 1e-12
