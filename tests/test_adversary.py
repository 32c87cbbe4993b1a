"""Security estimators against independent oracles: brute-force view
enumeration for exact concealment, binomial references for confusable
sets, and paired-seed comparisons for the binding attack."""

import dataclasses
import functools
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from wiretap_commit import adversary
from wiretap_commit.adversary import (
    BLOCK_BYTES,
    ENUM_LIMIT,
    EXACT_WORK_LIMIT,
    MC_BLOCK,
    TRIAL_LIMIT,
    VIEWS,
    WORD_LIMIT,
    _all_seed_tables,
    _binding_worker,
    _concealment_check,
    _concealment_mc_worker,
    _cs_table,
    _kernel_rows,
    _mi_rows,
    _noise_table,
    _pad_rows,
    _soundness_worker,
    binding_attack,
    concealment_exact,
    concealment_monte_carlo,
    enumerate_confusables,
    estimate_soundness,
    soundness_reports,
    wilson_interval,
)
from wiretap_commit.bits import BitVector
from wiretap_commit.channel import make_channel
from wiretap_commit.errors import CouplingError, DomainError, ScaleError
from wiretap_commit.hashing import (
    HashSpec,
    _packed_table,
    hash_all_inputs,
    hash_evaluate,
    lhl_bound,
)
from wiretap_commit.measures import CrossoverPair
from wiretap_commit.parallel import map_trials
from wiretap_commit.protocol import (
    RevealClaim,
    bob_test,
    commit_phase,
    derive_params,
    explicit_params,
    honest_run,
)
from wiretap_commit.rng import make_rng, rekey, trial_seeds

from toeplitz_reference import toeplitz_matrix


def small_session(n=16, p=0.25, alpha1=0.125, lg=8, mc=4, seed=7,
                  coupling="independent", r=None, q=None):
    q = p if q is None else q
    params = explicit_params(n, CrossoverPair(p, q), "one", alpha1=alpha1,
                             challenge_bits=lg, commit_bits=mc,
                             coupling=coupling, coupling_r=r)
    channel = make_channel(p, q, coupling, r=r)
    rng = make_rng(np.random.SeedSequence([seed, 0xC0117]))
    c = BitVector.random(rng, mc)
    return params, channel, commit_phase(params, c, channel, rng)


class TestWilson:
    def test_extremes(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == pytest.approx(0.0, abs=1e-12) and 0.0 < hi < 0.05
        lo, hi = wilson_interval(100, 100)
        assert 0.95 < lo < 1.0 and hi == pytest.approx(1.0, abs=1e-12)

    def test_covers_point_estimate(self):
        lo, hi = wilson_interval(37, 200)
        assert lo < 37 / 200 < hi


class TestSoundness:
    def test_matches_full_honest_runs(self):
        # the fast path must reproduce full protocol runs trial for trial;
        # SeedSequence children are stateful under spawn, so each pass
        # gets its own freshly derived (identical) children
        params = derive_params(300, CrossoverPair(0.1, 0.15), "one",
                               alpha1=0.035, beta1=0.05, beta2=0.1)
        channel = make_channel(0.1, 0.15)
        fast = _soundness_worker(((params.n, params.pq.p, params.alpha1),),
                                 trial_seeds(99, 60))[:, 0]
        slow = np.array([0 if honest_run(params, channel, make_rng(s))[0] else 1
                         for s in trial_seeds(99, 60)], dtype=np.uint8)
        assert np.array_equal(fast, slow)

    def test_wide_band_never_rejects(self):
        params = derive_params(500, CrossoverPair(0.1, 0.1), "one",
                               alpha1=0.45, beta1=0.05, beta2=0.1)
        channel = make_channel(0.1, 0.1)
        report = estimate_soundness(params, channel, trials=400, seed=1)
        assert report.estimate == 0.0

    def test_empty_band_always_rejects(self):
        params = explicit_params(1, CrossoverPair(0.1, 0.1), "one",
                                 alpha1=0.05, challenge_bits=1, commit_bits=1)
        channel = make_channel(0.1, 0.1)
        report = estimate_soundness(params, channel, trials=50, seed=2)
        assert report.estimate == 1.0

    def test_reference_is_hoeffding(self):
        params = derive_params(2000, CrossoverPair(0.1, 0.1), "one",
                               alpha1=0.04, beta1=0.05, beta2=0.1)
        channel = make_channel(0.1, 0.1)
        report = estimate_soundness(params, channel, trials=10, seed=3)
        assert report.reference_bound == pytest.approx(
            2 * math.exp(-2 * 2000 * 0.04 ** 2), abs=1e-15)

    def test_reproducible(self):
        params = derive_params(200, CrossoverPair(0.2, 0.2), "one",
                               alpha1=0.05, beta1=0.05, beta2=0.1)
        channel = make_channel(0.2, 0.2)
        r1 = estimate_soundness(params, channel, trials=200, seed=5)
        r2 = estimate_soundness(params, channel, trials=200, seed=5)
        assert r1 == r2

    def test_channel_must_match_params(self):
        params = derive_params(200, CrossoverPair(0.2, 0.2), "one",
                               alpha1=0.05, beta1=0.05, beta2=0.1)
        with pytest.raises(CouplingError):
            estimate_soundness(params, make_channel(0.2, 0.25), trials=10, seed=0)
        with pytest.raises(CouplingError):
            estimate_soundness(params, make_channel(0.2, 0.2, "custom", r=0.2),
                               trials=10, seed=0)

    def test_threads_do_not_change_results(self, fork_small_calls):
        params = derive_params(200, CrossoverPair(0.2, 0.2), "one",
                               alpha1=0.05, beta1=0.05, beta2=0.1)
        channel = make_channel(0.2, 0.2)
        r1 = estimate_soundness(params, channel, trials=120, seed=6, threads=1)
        r2 = estimate_soundness(params, channel, trials=120, seed=6, threads=3)
        assert r1.estimate == r2.estimate and r1.ci_lo == r2.ci_lo

    def test_points_of_one_call_equal_their_own_estimates(self, fork_small_calls):
        # one draw for all points; each reads the first trials rows of it
        points = []
        for n, p, alpha1, trials in ((200, 0.2, 0.05, 120), (60, 0.1, 0.1, 7),
                                     (500, 0.3, 0.02, 300), (200, 0.2, 0.05, 1)):
            params = derive_params(n, CrossoverPair(p, p), "one",
                                   alpha1=alpha1, beta1=0.05, beta2=0.1)
            points.append((params, make_channel(p, p), trials))
        for threads in (1, 2):
            assert soundness_reports(points, seed=8, threads=threads) == [
                estimate_soundness(*point, seed=8) for point in points]

    def test_word_limit_checked_before_any_trial(self, monkeypatch):
        def no_trials(*args, **kwargs):
            raise AssertionError("map_trials ran past the word limit")

        monkeypatch.setattr(adversary, "map_trials", no_trials)
        channel = make_channel(0.1, 0.1)
        small = derive_params(200, CrossoverPair(0.1, 0.1), "one",
                              alpha1=0.05, beta1=0.05, beta2=0.1)
        big = dataclasses.replace(small, n=WORD_LIMIT // 2 + 1)
        with pytest.raises(ScaleError, match="2n raw words"):
            estimate_soundness(big, channel, trials=1, seed=0)
        with pytest.raises(ScaleError, match="2n raw words"):
            soundness_reports([(small, channel, 5), (big, channel, 5)], seed=0)


class TestConfusables:
    def test_self_membership_when_in_band(self):
        params, channel, session = small_session(seed=11)
        x_int = session.alice_view.x.to_int()
        cs = enumerate_confusables(session, params)
        d = session.alice_view.x.hamming_distance(session.bob_view.y)
        in_band = params.n * (params.pq.p - params.alpha1) <= d <= \
            params.n * (params.pq.p + params.alpha1)
        assert (x_int in cs.members.tolist()) == in_band

    def test_members_pass_first_two_reveal_conditions(self):
        params, channel, session = small_session(seed=12)
        cs = enumerate_confusables(session, params)
        t = session.transcript
        for xv in [BitVector.from_int(int(m), cs.n) for m in cs.members[:30]]:
            claim = RevealClaim(t.pad ^ hash_evaluate(t.extractor, xv), xv)
            assert bob_test(session.bob_view, t, claim, params).accepted

    def test_full_band_halving(self):
        # band covering every distance, one challenge bit: about half of
        # the remaining words hash-match; binomial 3-sigma window
        params, channel, session = small_session(
            n=8, p=0.25, alpha1=1.0, lg=1, mc=1, seed=13)
        cs = enumerate_confusables(session, params)
        mean, sigma = 1 + 255 / 2, math.sqrt(255 * 0.25)
        assert abs(cs.size - mean) <= 3 * sigma
        assert cs.eta_hat == pytest.approx(math.log2(cs.size) / 8)

    def test_empty_band(self):
        params, channel, session = small_session(
            n=8, p=0.1, alpha1=0.01, lg=1, mc=1, seed=14)
        cs = enumerate_confusables(session, params)
        assert cs.size == 0 and cs.eta_hat == 0.0

    def test_scale_error(self):
        params, channel, session = small_session(n=21, p=0.25, lg=4, mc=2, seed=15)
        with pytest.raises(ScaleError):
            enumerate_confusables(session, params)


def _all_word_scan(session):
    """The binding worker as a band scan over all 2^n words per trial,
    with the session's full hash tables in place of the payload's
    per-syndrome tables."""
    t = session.transcript
    hash_match = hash_all_inputs(t.challenge) == np.uint32(t.challenge_value.to_int())
    ext_all = hash_all_inputs(t.extractor)

    def worker(payload, seeds):
        params, channel, x_int, ne_bits, _, _, _, _, thresh_mode = payload
        n, alpha1 = params.n, params.alpha1
        p, q, r = channel.p, channel.q, channel.r
        lo, hi = n * (p - alpha1), n * (p + alpha1)
        if thresh_mode == "alone":
            thresh = np.full(n, p)
        else:
            thresh = np.where(ne_bits == 1, r / q, (p - r) / (1.0 - q))
        weights = (1 << np.arange(n - 1, -1, -1)).astype(np.uint64)
        all_words = np.arange(1 << n, dtype=np.uint32)
        out = np.empty((len(seeds), 2), dtype=np.int64)
        for i, s in enumerate(seeds):
            rng = make_rng(s)
            nb = (rng.random(n) < thresh).astype(np.uint64)
            y_int = np.uint32(x_int) ^ np.uint32((nb * weights).sum())
            d = np.bitwise_count(all_words ^ y_int)
            members = np.nonzero(hash_match & (d >= lo) & (d <= hi))[0]
            distinct = np.unique(ext_all[members]).size
            out[i, 0] = 1 if distinct >= 2 else 0
            out[i, 1] = members.size
        return out

    return worker


class TestBindingAttack:
    @pytest.mark.parametrize("mode", ["alone", "with_eve"])
    @pytest.mark.parametrize("coupling,r", [
        ("independent", None),
        ("degraded", None),
        ("custom", 0.1),
    ])
    def test_matches_all_word_scan(self, monkeypatch, mode, coupling, r):
        # a few members per trial and one commit bit, so some sets of two
        # or more members share one extractor value and some do not
        params, channel, session = small_session(
            n=12, p=0.25, q=0.3, alpha1=0.15, lg=8, mc=1, seed=29,
            coupling=coupling, r=r)
        fast = binding_attack(session, params, channel, mode=mode, trials=300, seed=29)
        monkeypatch.setattr(adversary, "_binding_worker", _all_word_scan(session))
        slow = binding_attack(session, params, channel, mode=mode, trials=300, seed=29)
        for key in ("success_indicators", "confusable_sizes"):
            assert np.array_equal(fast.details[key], slow.details[key])
        wins = fast.details["success_indicators"]
        several = fast.details["confusable_sizes"] >= 2
        assert wins.any() and not wins[several].all()

    def test_injective_hash_defeats_attack(self):
        # identity challenge (l_g = n) leaves no colliding pair
        params, channel, session = small_session(n=12, p=0.25, alpha1=0.3,
                                                 lg=12, mc=3, seed=21)
        n = params.n
        ident = HashSpec(n, n, BitVector([1 if i == n - 1 else 0
                                          for i in range(2 * n - 1)]))
        t = dataclasses.replace(
            session.transcript, challenge=ident,
            challenge_value=hash_evaluate(ident, session.alice_view.x))
        session = dataclasses.replace(
            session,
            alice_view=dataclasses.replace(session.alice_view, transcript=t),
            bob_view=dataclasses.replace(session.bob_view, transcript=t),
            eve_view=dataclasses.replace(session.eve_view, transcript=t))
        report = binding_attack(session, params, channel, trials=200, seed=21)
        assert report.estimate == 0.0

    def test_longer_challenge_never_helps_alice(self):
        # same master seed: the longer challenge seed extends the
        # shorter one, so the confusable set can only shrink
        results = {}
        for lg in (3, 4):
            params, channel, session = small_session(
                n=12, p=0.25, alpha1=0.25, lg=lg, mc=3, seed=22)
            rep = binding_attack(session, params, channel, trials=300, seed=22)
            results[lg] = rep.details["success_indicators"]
        assert np.all(results[4] <= results[3])

    def test_collusion_irrelevant_on_independent_coupling(self):
        params, channel, session = small_session(seed=23)
        alone = binding_attack(session, params, channel, mode="alone",
                               trials=300, seed=23)
        with_eve = binding_attack(session, params, channel, mode="with_eve",
                                  trials=300, seed=23)
        assert np.array_equal(alone.details["success_indicators"],
                              with_eve.details["success_indicators"])
        # overlapping Wilson intervals follow from equality
        assert alone.ci_lo <= with_eve.ci_hi and with_eve.ci_lo <= alone.ci_hi

    def test_success_requires_two_distinct_commit_values(self):
        # one-member confusable sets can never produce two claims
        params, channel, session = small_session(n=10, p=0.1, alpha1=0.02,
                                                 lg=10, mc=2, seed=24)
        report = binding_attack(session, params, channel, trials=100, seed=24)
        sizes = report.details["confusable_sizes"]
        wins = report.details["success_indicators"]
        assert np.all(wins[sizes < 2] == 0)

    def test_reference_bound_fields(self):
        params, channel, session = small_session(seed=25)
        report = binding_attack(session, params, channel, trials=100, seed=25)
        eta = report.details["eta_hat"]
        assert report.details["beta_prime"] == pytest.approx(params.beta1 - 2 * eta)
        assert report.reference_bound == pytest.approx(
            min(1.0, 2.0 ** (-params.n * (params.beta1 - 2 * eta))))
        assert report.details["beta1_exceeds_2eta"] == (params.beta1 > 2 * eta)

    def test_mode_validation(self):
        params, channel, session = small_session(seed=26)
        with pytest.raises(DomainError):
            binding_attack(session, params, channel, mode="sideways", trials=10, seed=0)

    def test_reproducible_and_pool_invariant(self, fork_small_calls):
        params, channel, session = small_session(n=12, p=0.25, alpha1=0.25,
                                                 lg=4, mc=2, seed=28)
        r1 = binding_attack(session, params, channel, trials=60, seed=28, threads=1)
        r2 = binding_attack(session, params, channel, trials=60, seed=28, threads=2)
        assert r1.estimate == r2.estimate
        assert np.array_equal(r1.details["success_indicators"],
                              r2.details["success_indicators"])

    def test_scale_error(self):
        params, channel, session = small_session(n=21, p=0.25, lg=4, mc=2, seed=27)
        with pytest.raises(ScaleError):
            binding_attack(session, params, channel, trials=10, seed=0)

    @pytest.mark.parametrize("other", [
        make_channel(0.25, 0.3),               # another q
        make_channel(0.25, 0.25, "custom", r=0.0),  # another coupling
    ])
    def test_channel_must_match_params(self, other):
        params, channel, session = small_session(seed=30)
        with pytest.raises(CouplingError):
            binding_attack(session, params, other, trials=10, seed=0)


# --------------------------------------------------------------------------
# exact concealment against a dictionary-based brute force


def brute_force_view_distributions(n, lg, p, q, r):
    """Full enumeration of (c, x, noise, seeds) into view distributions.

    Independent of the production code: its own Toeplitz convention,
    its own probability bookkeeping.
    """
    pi = {
        (0, 0): 1 - p - q + r, (0, 1): q - r, (1, 0): p - r, (1, 1): r,
    }

    def words(k):
        return list(itertools.product((0, 1), repeat=k))

    def toeplitz(seed, x, l):
        return tuple(
            int(np.bitwise_xor.reduce([seed[i + len(x) - 1 - j] & x[j]
                                       for j in range(len(x))]))
            for i in range(l)
        )

    g_seeds, e_seeds = words(n + lg - 1), words(n)
    dist = {v: {0: {}, 1: {}} for v in ("bob", "eve", "joint")}
    for c in (0, 1):
        for x in words(n):
            for nb in words(n):
                for ne in words(n):
                    pn = 1.0
                    for i in range(n):
                        pn *= pi[(nb[i], ne[i])]
                    if pn == 0.0:
                        continue
                    y = tuple(a ^ b for a, b in zip(x, nb))
                    z = tuple(a ^ b for a, b in zip(x, ne))
                    for gs in g_seeds:
                        gbar = toeplitz(gs, x, lg)
                        for es in e_seeds:
                            ext = toeplitz(es, x, 1)[0]
                            pad = c ^ ext
                            w = pn / (2 ** n * len(g_seeds) * len(e_seeds))
                            for key, view in (
                                ((y, gs, gbar, es, pad), "bob"),
                                ((z, gs, gbar, es, pad), "eve"),
                                ((y, z, gs, gbar, es, pad), "joint"),
                            ):
                                bucket = dist[view][c]
                                bucket[key] = bucket.get(key, 0.0) + w
    return dist


def dict_sd(d0, d1):
    keys = set(d0) | set(d1)
    return 0.5 * sum(abs(d0.get(k, 0.0) - d1.get(k, 0.0)) for k in keys)


def dict_mi(d0, d1):
    total = 0.0
    for k in set(d0) | set(d1):
        a, b = d0.get(k, 0.0), d1.get(k, 0.0)
        mid = 0.5 * (a + b)
        for v in (a, b):
            if v > 0.0:
                total += 0.5 * v * math.log2(v / mid)
    return total


def _bsc_kernel(n: int, flip: float) -> np.ndarray:
    """W[x, y] = flip^d (1-flip)^(n-d) over all word pairs."""
    words = np.arange(1 << n, dtype=np.uint32)
    d = np.bitwise_count(words[:, None] ^ words[None, :]).astype(np.float64)
    return flip ** d * (1.0 - flip) ** (n - d)


def _pair_kernel(n: int, noise_pmf) -> np.ndarray:
    """W[x, (y,z)] for one block under the joint per-symbol noise pmf."""
    p00, p01, p10, p11 = noise_pmf
    words = np.arange(1 << n, dtype=np.uint32)
    nb = words[:, None, None] ^ words[None, :, None]   # x ^ y
    ne = words[:, None, None] ^ words[None, None, :]   # x ^ z
    c11 = np.bitwise_count(nb & ne).astype(np.int64)
    cb = np.bitwise_count(nb).astype(np.int64)
    ce = np.bitwise_count(ne).astype(np.int64)
    c10 = cb - c11
    c01 = ce - c11
    c00 = n - c11 - c10 - c01
    shape = (1 << n, 1 << n, 1 << n)
    log_prob = np.zeros(shape, dtype=np.float64)
    impossible = np.zeros(shape, dtype=bool)
    for count, pi in ((c00, p00), (c01, p01), (c10, p10), (c11, p11)):
        if pi > 0.0:
            log_prob += count * math.log(pi)
        else:
            impossible |= count > 0
    out = np.where(impossible, 0.0, np.exp(log_prob))
    return out.reshape(1 << n, 1 << (2 * n))


def _all_seed_hashes(n: int, l: int) -> np.ndarray:
    """Row s: the (n -> l) Toeplitz hash with seed s, on every word."""
    return np.array([hash_all_inputs(HashSpec(n, l, BitVector.from_int(s, n + l - 1)))
                     for s in range(1 << (n + l - 1))])


def _reference_mi_term(m0, m1):
    """Sum of M0 lg(M0/mu) + M1 lg(M1/mu) with mu the average."""
    mu = 0.5 * (m0 + m1)
    total = 0.0
    for m in (m0, m1):
        pos = m > 0.0
        total += float((m[pos] * np.log2(m[pos] / mu[pos])).sum())
    return total


def _reference_concealment_exact(params, channel):
    """The exact-concealment kernel with the full loop over every coset
    {x : G(x) = gamma} of every G seed.  Returns view -> (sd, mi, bound)."""
    n, lg = params.n, params.challenge_bits
    g_hash = _all_seed_hashes(n, lg)
    e_bit = _all_seed_hashes(n, 1).astype(np.float64)
    sign = 1.0 - 2.0 * e_bit
    kernels = {
        "bob": _bsc_kernel(n, params.pq.p),
        "eve": _bsc_kernel(n, params.pq.q),
        "joint": _pair_kernel(n, channel.noise_pair_pmf()),
    }
    x_weight = 1.0 / (1 << n)
    seed_weight = 1.0 / (g_hash.shape[0] * e_bit.shape[0])
    out = {}
    for v, kernel in kernels.items():
        sd_acc = mi_acc = max_posterior = 0.0
        for values in g_hash:
            for gamma in range(1 << lg):
                idx = np.nonzero(values == gamma)[0]
                if idx.size == 0:
                    continue
                sub_sign = sign[:, idx] * x_weight
                k_sub = kernel[idx]
                s_vec = k_sub.sum(axis=0) * x_weight
                d_mat = sub_sign @ k_sub
                sd_acc += float(np.abs(d_mat).sum())
                m0 = np.clip(0.5 * (s_vec[None, :] + d_mat), 0.0, None)
                m1 = np.clip(0.5 * (s_vec[None, :] - d_mat), 0.0, None)
                mi_acc += _reference_mi_term(m0, m1)
                colsum = k_sub.sum(axis=0)
                pos = colsum > 0.0
                if pos.any():
                    ratio = float((k_sub.max(axis=0)[pos] / colsum[pos]).max())
                    max_posterior = max(max_posterior, ratio)
        k_hat = -math.log2(max_posterior) if max_posterior > 0 else math.inf
        bound = min(1.0, 2.0 * lhl_bound(k_hat, 1))
        out[v] = (seed_weight * sd_acc, seed_weight * mi_acc, bound)
    return out


def _reference_kernel_coset_concealment_exact(params, channel):
    """The exact-concealment kernel over ker G alone, every Ext seed and
    every view column, weighted by the coset count 2^rank(G).  Returns
    view -> (sd, mi, bound)."""
    n, lg = params.n, params.challenge_bits
    g_hash = _all_seed_hashes(n, lg)
    e_bit = _all_seed_hashes(n, 1).astype(np.float64)
    sign = 1.0 - 2.0 * e_bit
    kernels = {
        "bob": _bsc_kernel(n, params.pq.p),
        "eve": _bsc_kernel(n, params.pq.q),
        "joint": _pair_kernel(n, channel.noise_pair_pmf()),
    }
    x_weight = 1.0 / (1 << n)
    seed_weight = 1.0 / (g_hash.shape[0] * e_bit.shape[0])
    sd_acc = {v: 0.0 for v in VIEWS}
    mi_acc = {v: 0.0 for v in VIEWS}
    max_posterior = {v: 0.0 for v in VIEWS}
    for values in g_hash:
        cosets = np.unique(values).size
        idx = np.nonzero(values == 0)[0]
        sub_sign = sign[:, idx] * x_weight
        for v in VIEWS:
            k_sub = kernels[v][idx]
            colsum = k_sub.sum(axis=0)
            d_mat = sub_sign @ k_sub
            sd_acc[v] += cosets * float(np.abs(d_mat).sum())
            s_vec = colsum * x_weight
            m0 = 0.5 * (s_vec[None, :] + d_mat)
            m1 = 0.5 * (s_vec[None, :] - d_mat)
            np.clip(m0, 0.0, None, out=m0)
            np.clip(m1, 0.0, None, out=m1)
            mi_acc[v] += cosets * _reference_mi_term(m0, m1)
            colmax = k_sub.max(axis=0)
            pos = colsum > 0.0
            if pos.any():
                ratio = float((colmax[pos] / colsum[pos]).max())
                max_posterior[v] = max(max_posterior[v], ratio)
    out = {}
    for v in VIEWS:
        k_hat = -math.log2(max_posterior[v]) if max_posterior[v] > 0 else math.inf
        bound = min(1.0, 2.0 * lhl_bound(k_hat, 1))
        out[v] = (seed_weight * sd_acc[v], seed_weight * mi_acc[v], bound)
    return out


def _reference_orbit_concealment_exact(params, channel, views=VIEWS):
    """The orbit loop of concealment_exact over kernel tables of every
    word pair (every (y, z) for the joint view).  Returns
    view -> (sd, mi, bound, k_hat)."""
    n, lg = params.n, params.challenge_bits
    big_n = 1 << n
    g_hash = _all_seed_tables(n, lg)
    sign = 1.0 - 2.0 * _all_seed_tables(n, 1)
    kernels = {
        "bob": lambda: _bsc_kernel(n, params.pq.p),
        "eve": lambda: _bsc_kernel(n, params.pq.q),
        "joint": lambda: _pair_kernel(n, channel.noise_pair_pmf()),
    }
    kernels = {v: kernels[v]().reshape(big_n, big_n, -1) for v in views}
    x_weight = 1.0 / big_n
    seed_weight = 1.0 / (g_hash.shape[0] * sign.shape[0])
    sd_acc = {v: 0.0 for v in views}
    mi_acc = {v: 0.0 for v in views}
    max_posterior = {v: 0.0 for v in views}
    for values in g_hash:
        leaders = np.unique(values, return_index=True)[1]
        idx = np.flatnonzero(values == 0)
        rows, counts = np.unique(sign[:, idx], axis=0, return_counts=True)
        rows *= x_weight
        weight = counts * (leaders.size * idx.size)
        for v in views:
            k_rep = kernels[v][np.ix_(idx, leaders)].reshape(idx.size, -1)
            colsum = k_rep.sum(axis=0)
            d_mat = rows @ k_rep
            sd_acc[v] += float(weight @ np.abs(d_mat).sum(axis=1))
            s_vec = colsum * x_weight
            m0 = 0.5 * (s_vec[None, :] + d_mat)
            m1 = 0.5 * (s_vec[None, :] - d_mat)
            np.clip(m0, 0.0, None, out=m0)
            np.clip(m1, 0.0, None, out=m1)
            mi_acc[v] += float(weight @ _reference_mi_rows(m0, m1))
            colmax = k_rep.max(axis=0)
            pos = colsum > 0.0
            if pos.any():
                ratio = float((colmax[pos] / colsum[pos]).max())
                max_posterior[v] = max(max_posterior[v], ratio)
    out = {}
    for v in views:
        k_hat = -math.log2(max_posterior[v]) if max_posterior[v] > 0 else math.inf
        bound = min(1.0, 2.0 * lhl_bound(k_hat, 1))
        out[v] = (seed_weight * sd_acc[v], seed_weight * mi_acc[v], bound, k_hat)
    return out


def _reference_mi_rows(m0: np.ndarray, m1: np.ndarray) -> np.ndarray:
    """Per row: the sum of M0 lg(M0/mu) + M1 lg(M1/mu), mu the average."""
    mu = 0.5 * (m0 + m1)
    total = np.zeros(m0.shape[0])
    for m in (m0, m1):
        # entries with m = 0 add 0 lg 1
        ratio = np.divide(m, mu, out=np.ones_like(m), where=m > 0.0)
        total += (m * np.log2(ratio)).sum(axis=1)
    return total


def _three_index_kernel(table, x, y, w):
    """k[x, (y, w)] = T[|x XOR y|, |w|, |(x XOR y) AND w|] as a
    three-array fancy index into the (n+1)^3 table; columns run over y,
    then w."""
    d = x[..., :, None, None] ^ y[..., None, :, None]
    return table[np.bitwise_count(d), np.bitwise_count(w),
                 np.bitwise_count(d & w)].reshape(*x.shape, -1)


def _masked_divide_mi_rows(m0, m1):
    """_mi_rows with the ratio taken by a divide masked to m > 0."""
    mu = m0 + m1
    mu *= 0.5
    total = np.zeros(m0.shape[:-1])
    for m in (m0, m1):
        # entries with m = 0 add 0 lg 1
        ratio = np.divide(m, mu, out=np.ones_like(m), where=m > 0.0)
        np.log2(ratio, out=ratio)
        ratio *= m
        total += ratio.sum(axis=-1)
    return total


def _reference_pad_row_concealment_exact(params, channel, views=VIEWS):
    """concealment_exact as one loop over the G seeds, with the distinct
    pad rows on K and the coset leaders found by np.unique per seed.
    Returns view -> (sd, mi, bound, k_hat)."""
    n, lg = params.n, params.challenge_bits
    big_n = 1 << n

    g_hash = _all_seed_hashes(n, lg)
    sign = 1.0 - 2.0 * _all_seed_hashes(n, 1)

    p, q = params.pq.p, params.pq.q
    pmfs = {"bob": (1.0 - p, 0.0, 0.0, p), "eve": (1.0 - q, 0.0, 0.0, q),
            "joint": channel.noise_pair_pmf()}
    tables = {v: _noise_table(n, pmfs[v]) for v in views}
    w_words = {v: np.arange(big_n if v == "joint" else 1) for v in views}

    x_weight = 1.0 / big_n
    seed_weight = 1.0 / (g_hash.shape[0] * sign.shape[0])
    sd_acc = {v: 0.0 for v in views}
    mi_acc = {v: 0.0 for v in views}
    max_posterior = {v: 0.0 for v in views}

    for values in g_hash:
        leaders = np.unique(values, return_index=True)[1]
        idx = np.flatnonzero(values == 0)
        rows, counts = np.unique(sign[:, idx], axis=0, return_counts=True)
        rows *= x_weight
        weight = counts * (leaders.size * idx.size)
        for v in views:
            k_rep = _three_index_kernel(tables[v], idx, leaders, w_words[v])
            colsum = k_rep.sum(axis=0)
            d_mat = rows @ k_rep
            sd_acc[v] += float(weight @ np.abs(d_mat).sum(axis=1))
            s_vec = colsum * x_weight
            m0 = 0.5 * (s_vec[None, :] + d_mat)
            m1 = 0.5 * (s_vec[None, :] - d_mat)
            np.clip(m0, 0.0, None, out=m0)
            np.clip(m1, 0.0, None, out=m1)
            mi_acc[v] += float(weight @ _reference_mi_rows(m0, m1))
            colmax = k_rep.max(axis=0)
            pos = colsum > 0.0
            if pos.any():
                ratio = float((colmax[pos] / colsum[pos]).max())
                max_posterior[v] = max(max_posterior[v], ratio)

    out = {}
    for v in views:
        k_hat = -math.log2(max_posterior[v]) if max_posterior[v] > 0 else math.inf
        bound = min(1.0, 2.0 * lhl_bound(k_hat, 1))
        out[v] = (seed_weight * sd_acc[v], seed_weight * mi_acc[v], bound, k_hat)
    return out


# Bob's crossover below Eve's q = 0.3, and equal to it, where Bob's and
# Eve's views share one law and concealment_exact one evaluation of it
P_BELOW_AND_AT_Q = [pytest.param(0.2, id="p-below-q"), pytest.param(0.3, id="p-equals-q")]

P_Q_COUPLINGS = [
    # p = 0.2, q = 0.3: the Frechet interval of r is [0, 0.2]
    ("independent", None),
    ("degraded", None),
    ("custom", 0.0),
    ("custom", 0.05),
    ("custom", 0.2),
]


def _exact_work(n: int, lg: int, joint: bool) -> int:
    """W of an exact concealment call: 2^(n+l_G-1) G seeds times 4^n,
    times 2^n with the joint view."""
    return (1 << (n + lg - 1)) * 4 ** n * (1 << n if joint else 1)


def _gf2_rank(matrix: np.ndarray) -> int:
    """Rank over GF(2) by Gaussian elimination."""
    rows = [int("".join(map(str, row)), 2) for row in matrix]
    rank = 0
    while rows:
        pivot = max(rows)
        rows.remove(pivot)
        if pivot == 0:
            break
        rank += 1
        top = 1 << (pivot.bit_length() - 1)
        rows = [r ^ pivot if r & top else r for r in rows]
    return rank


class TestNoiseKernel:
    """The popcount kernel against kernel tables over every word pair."""

    @pytest.mark.parametrize("coupling,r", P_Q_COUPLINGS)
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_blocks_match_word_pair_kernels(self, n, coupling, r):
        p, q = 0.2, 0.3
        channel = make_channel(p, q, coupling, r=r)
        big_n = 1 << n
        words = np.arange(big_n)
        zero = np.zeros(1, dtype=np.int64)
        # column (y, w) of the joint kernel is column (y, z = y ^ w) of the reference
        z_of = (words[:, None] ^ words[None, :]).reshape(-1)
        y_of = np.repeat(words, big_n)
        references = {
            "bob": (_noise_table(n, (1.0 - p, 0.0, 0.0, p)), zero, _bsc_kernel(n, p)),
            "eve": (_noise_table(n, (1.0 - q, 0.0, 0.0, q)), zero, _bsc_kernel(n, q)),
            "joint": (_noise_table(n, channel.noise_pair_pmf()), words,
                      _pair_kernel(n, channel.noise_pair_pmf())[:, y_of * big_n + z_of]),
        }
        rows = {v: _kernel_rows(table, w) for v, (table, w, _) in references.items()}
        for lg in range(1, min(n, 3) + 1):
            for values in _all_seed_tables(n, lg):
                leaders = np.unique(values, return_index=True)[1]
                idx = np.flatnonzero(values == 0)
                for v, (_, _, reference) in references.items():
                    block = rows[v][idx[:, None] ^ leaders[None, :]].reshape(idx.size, -1)
                    expected = reference.reshape(big_n, big_n, -1)[np.ix_(idx, leaders)]
                    expected = expected.reshape(idx.size, -1)
                    if v == "joint":
                        # the reference takes exp of a sum of up to n logs, so
                        # its relative error grows with n (2.5e-15 at n = 6);
                        # the table's own error is checked against exact
                        # rationals below
                        np.testing.assert_allclose(block, expected, atol=0.0,
                                                   rtol=4 * n * np.finfo(np.float64).eps)
                        assert np.array_equal(block == 0.0, expected == 0.0)
                    else:
                        np.testing.assert_array_equal(block, expected)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_flat_gather_matches_three_index_gather(self, n):
        # Bob's and Eve's w = 0, the joint view's every w, and a random w
        rng = np.random.default_rng(n)
        big_n = 1 << n
        words = np.arange(big_n, dtype=np.min_scalar_type(big_n - 1))
        table = _noise_table(n, rng.dirichlet(np.ones(4)))
        for w in (words[:1], words, rng.choice(words, size=3)):
            got = _kernel_rows(table, w)
            expected = _three_index_kernel(table, words, words[:1], w)
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("coupling,r", P_Q_COUPLINGS)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_rows_by_xor_match_the_kernel(self, n, coupling, r):
        # every (x, y) pair, for the three views; custom r = 0 and r = p
        # leave a zero pmf cell, whose entries are exact zeros (0.0**0 == 1)
        p, q = 0.2, 0.3
        words = np.arange(1 << n)
        views = (((1.0 - p, 0.0, 0.0, p), words[:1]), ((1.0 - q, 0.0, 0.0, q), words[:1]),
                 (make_channel(p, q, coupling, r=r).noise_pair_pmf(), words))
        for pmf, w in views:
            table = _noise_table(n, pmf)
            rows = _kernel_rows(table, w)
            assert rows.shape == (words.size, w.size)
            got = rows[words[:, None] ^ words[None, :]].reshape(words.size, -1)
            assert np.array_equal(got, _three_index_kernel(table, words, words, w))

    @pytest.mark.parametrize("shape", [(1, 1, 1), (4, 8, 64), (16, 2, 33), (3, 64, 8)])
    def test_mi_rows_match_masked_divide(self, shape):
        # scattered zeros, and whole rows where m0, m1 or both (mu = 0) are 0
        rng = np.random.default_rng(sum(shape))
        m0 = rng.random(shape) * 10.0 ** -rng.integers(0, 12, size=shape)
        m1 = rng.random(shape) * 10.0 ** -rng.integers(0, 12, size=shape)
        m0[rng.random(shape) < 0.2] = 0.0
        m1[rng.random(shape) < 0.2] = 0.0
        rows = m0.reshape(-1, shape[-1]).shape[0]
        for m, every in ((m0, slice(0, rows, 3)), (m1, slice(1, rows, 3)),
                         (m0, slice(2, rows, 5)), (m1, slice(2, rows, 5))):
            m.reshape(-1, shape[-1])[every] = 0.0
        got = _mi_rows(m0.copy(), m1.copy())
        expected = _masked_divide_mi_rows(m0.copy(), m1.copy())
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("coupling,r", P_Q_COUPLINGS)
    def test_table_matches_exact_rationals(self, coupling, r):
        # every feasible entry against the same product in exact arithmetic
        # on the double-valued pmf; zero pmf entries give exact zeros
        pmf = make_channel(0.2, 0.3, coupling, r=r).noise_pair_pmf()
        p00, p01, p10, p11 = (Fraction(v) for v in pmf)
        n = 6
        table = _noise_table(n, pmf)
        assert np.isfinite(table).all()  # zero pmf entries meet no negative exponent
        for a, b, c in itertools.product(range(n + 1), repeat=3):
            if c > min(a, b) or a + b - c > n:
                continue
            exact = p11 ** (a - c) * p00 ** (n - a - b + c) * p10 ** c * p01 ** (b - c)
            if exact == 0:
                assert table[a, b, c] == 0.0
            else:
                assert abs(Fraction(float(table[a, b, c])) - exact) <= exact / 10 ** 15

    @pytest.mark.parametrize("n,lg,p", [
        pytest.param(n, lg, p.values[0], id=f"{n}-{lg}-{p.id}")
        for n in (2, 3, 4, 5, 6, 8, 9) for lg in (1, 2, 3) for p in P_BELOW_AND_AT_Q
        if lg <= n and (n <= 6 or lg == 1) and (n <= 8 or p.id == "p-below-q")])
    def test_single_party_reports_are_bit_identical(self, n, lg, p):
        # the single-party pmfs do not depend on the coupling; the joint
        # reports are checked against the reference loops further down;
        # at p == q Bob's and Eve's reports come from one evaluation (not
        # at n = 9, which takes about 7 s a case)
        params = explicit_params(n, CrossoverPair(p, 0.3), "one", alpha1=0.3,
                                 challenge_bits=lg, commit_bits=1)
        channel = make_channel(p, 0.3)
        views = ("bob", "eve")
        reports = concealment_exact(params, channel, views=views)
        reference = _reference_orbit_concealment_exact(params, channel, views)
        for v in views:
            assert (reports[f"sd_{v}"].estimate, reports[f"mi_{v}"].estimate,
                    reports[f"sd_{v}"].reference_bound,
                    reports[f"sd_{v}"].details["k_hat"]) == reference[v]


class TestConcealmentExact:
    @pytest.mark.parametrize("coupling,r", [
        ("independent", None),
        ("custom", 0.1),
    ])
    def test_against_brute_force(self, coupling, r):
        n, lg, p, q = 2, 1, 0.2, 0.3
        params = explicit_params(n, CrossoverPair(p, q), "one", alpha1=0.3,
                                 challenge_bits=lg, commit_bits=1,
                                 coupling=coupling, coupling_r=r)
        channel = make_channel(p, q, coupling, r=r)
        oracle = brute_force_view_distributions(n, lg, p, q, channel.r)
        reports = concealment_exact(params, channel)
        for v in ("bob", "eve", "joint"):
            sd = dict_sd(oracle[v][0], oracle[v][1])
            mi = dict_mi(oracle[v][0], oracle[v][1])
            assert reports[f"sd_{v}"].estimate == pytest.approx(sd, abs=1e-12)
            assert reports[f"mi_{v}"].estimate == pytest.approx(mi, abs=1e-12)

    @pytest.mark.parametrize("coupling,r", [
        ("independent", None),
        ("degraded", None),
        ("custom", 0.05),
    ])
    @pytest.mark.parametrize("n,lg", [(n, lg) for n in (3, 4, 5) for lg in (1, 2, 3)])
    @pytest.mark.parametrize("p", P_BELOW_AND_AT_Q)
    def test_kernel_coset_matches_coset_loop(self, n, lg, coupling, r, p):
        q = 0.3
        params = explicit_params(n, CrossoverPair(p, q), "one", alpha1=0.3,
                                 challenge_bits=lg, commit_bits=1,
                                 coupling=coupling, coupling_r=r)
        channel = make_channel(p, q, coupling, r=r)
        reports = concealment_exact(params, channel)
        reference = _reference_concealment_exact(params, channel)
        for v in VIEWS:
            sd, mi, bound = reference[v]
            assert abs(reports[f"sd_{v}"].estimate - sd) <= 1e-12
            assert abs(reports[f"mi_{v}"].estimate - mi) <= 1e-12
            assert abs(reports[f"sd_{v}"].reference_bound - bound) <= 1e-12

    @pytest.mark.parametrize("lg", [1, 2])
    def test_orbits_match_kernel_coset_body_at_n6(self, lg):
        # the demo size: every view, every Ext seed and every view column
        # of ker G against one row per pad pattern and one column per orbit
        n, p, q, r = 6, 0.2, 0.3, 0.05
        params = explicit_params(n, CrossoverPair(p, q), "one", alpha1=0.3,
                                 challenge_bits=lg, commit_bits=1,
                                 coupling="custom", coupling_r=r)
        channel = make_channel(p, q, "custom", r=r)
        reports = concealment_exact(params, channel)
        reference = _reference_kernel_coset_concealment_exact(params, channel)
        for v in VIEWS:
            sd, mi, bound = reference[v]
            assert abs(reports[f"sd_{v}"].estimate - sd) <= 1e-12
            assert abs(reports[f"mi_{v}"].estimate - mi) <= 1e-12
            assert abs(reports[f"sd_{v}"].reference_bound - bound) <= 1e-12

    @pytest.mark.parametrize("lg", [1, 2, 3])
    def test_pad_rows_and_coset_leaders_on_kernel(self, lg):
        # per G seed: 2^dim K distinct pad rows on K, each repeated
        # 2^rank(G) times, and 2^rank(G) coset leaders min(y XOR K)
        n = 5
        sign = 1 - 2 * _all_seed_hashes(n, 1).astype(np.int64)
        for s, values in enumerate(_all_seed_hashes(n, lg)):
            rank = _gf2_rank(toeplitz_matrix(HashSpec(n, lg, BitVector.from_int(s, n + lg - 1))))
            kernel = np.flatnonzero(values == 0)
            assert kernel.size == 1 << (n - rank)
            _, counts = np.unique(sign[:, kernel], axis=0, return_counts=True)
            assert counts.size == 1 << (n - rank)
            assert (counts == 1 << rank).all()
            leaders = np.unique(values, return_index=True)[1]
            assert leaders.size == 1 << rank
            assert {int((y ^ kernel).min()) for y in range(1 << n)} == set(leaders.tolist())

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_seed_tables_match_hash_specs(self, n):
        for l in range(1, n + 1):
            np.testing.assert_array_equal(_all_seed_tables(n, l), _all_seed_hashes(n, l))

    def test_coset_counts_vary_across_challenge_seeds(self):
        # the weight must be per seed: seed 0 is the zero map (one coset),
        # and some non-zero seeds are rank-deficient
        n, lg = 4, 3
        cosets = [np.unique(values).size for values in _all_seed_hashes(n, lg)]
        assert cosets[0] == 1
        assert {1, 2, 4, 8} <= set(cosets)

    def test_sd_within_lhl_reference(self):
        params = explicit_params(5, CrossoverPair(0.2, 0.3), "one", alpha1=0.2,
                                 challenge_bits=1, commit_bits=1)
        channel = make_channel(0.2, 0.3)
        reports = concealment_exact(params, channel)
        for v in ("bob", "eve", "joint"):
            rep = reports[f"sd_{v}"]
            assert rep.estimate <= rep.reference_bound + 1e-12

    def test_chain_rule_eve_vs_joint(self):
        params = explicit_params(4, CrossoverPair(0.2, 0.25), "one", alpha1=0.2,
                                 challenge_bits=1, commit_bits=1)
        channel = make_channel(0.2, 0.25)
        reports = concealment_exact(params, channel)
        assert reports["mi_eve"].estimate <= reports["mi_joint"].estimate + 1e-12

    def test_block_length_strictly_tightens_bob_sd(self):
        # fixed rates beta1 = 0.25, one pad bit: n = 4 vs n = 8
        values = {}
        for n in (4, 8):
            params = explicit_params(n, CrossoverPair(0.25, 0.25), "one",
                                     alpha1=0.2, challenge_bits=n // 4,
                                     commit_bits=1)
            channel = make_channel(0.25, 0.25)
            reports = concealment_exact(params, channel, views=("bob",))
            values[n] = reports["sd_bob"].estimate
        assert values[8] < values[4]

    def test_scale_guards(self):
        channel = make_channel(0.25, 0.25)
        big = explicit_params(7, CrossoverPair(0.25, 0.25), "one", alpha1=0.2,
                              challenge_bits=3, commit_bits=1)
        with pytest.raises(ScaleError):
            concealment_exact(big, channel)  # the joint view's W = 2^30
        wide = explicit_params(6, CrossoverPair(0.25, 0.25), "one", alpha1=0.2,
                               challenge_bits=2, commit_bits=2)
        with pytest.raises(ScaleError):
            concealment_exact(wide, channel)  # needs one pad bit

    @pytest.mark.parametrize("other", [
        make_channel(0.25, 0.35),                    # other p and q
        make_channel(0.2, 0.3, "custom", r=0.0),     # other coupling
        make_channel(0.2, 0.3, "custom", r=0.1),     # other r
    ])
    def test_channel_must_match_params(self, other):
        params = explicit_params(4, CrossoverPair(0.2, 0.3), "one", alpha1=0.2,
                                 challenge_bits=1, commit_bits=1,
                                 coupling="custom", coupling_r=0.05)
        with pytest.raises(CouplingError):
            concealment_exact(params, other)

    def test_exact_reports_are_flagged(self):
        params = explicit_params(4, CrossoverPair(0.25, 0.25), "one", alpha1=0.2,
                                 challenge_bits=1, commit_bits=1)
        reports = concealment_exact(params, make_channel(0.25, 0.25), views=("eve",))
        assert reports["sd_eve"].exact and reports["sd_eve"].trials == 0


class TestSeedBlocks:
    """concealment_exact on stacked blocks of G seeds against the
    per-seed loop, and the three facts the blocks rest on, over every
    seed at n <= 6."""

    @pytest.mark.parametrize("p", P_BELOW_AND_AT_Q)
    @pytest.mark.parametrize("n,lg", [(n, lg) for n in range(2, 9) for lg in (1, 2, 3)
                                      if lg <= n])
    def test_matches_pad_row_loop(self, n, lg, p):
        # Bob's and Eve's pmfs do not depend on the coupling, so one
        # coupling covers them; past n = 6 it covers the joint view too,
        # where the work limit admits it, to keep the loop's time down
        joint = _exact_work(n, lg, joint=True) <= EXACT_WORK_LIMIT
        couplings = P_Q_COUPLINGS if n <= 6 else P_Q_COUPLINGS[:1]
        for i, (coupling, r) in enumerate(couplings):
            views = ("joint",) if i else VIEWS if joint else ("bob", "eve")
            params = explicit_params(n, CrossoverPair(p, 0.3), "one", alpha1=0.3,
                                     challenge_bits=lg, commit_bits=1,
                                     coupling=coupling, coupling_r=r)
            channel = make_channel(p, 0.3, coupling, r=r)
            reports = concealment_exact(params, channel, views=views)
            reference = _reference_pad_row_concealment_exact(params, channel, views)
            # every per-seed product and sum runs in the loop's order, so
            # the reports are equal, not merely within 1e-12
            for v in views:
                assert (reports[f"sd_{v}"].estimate, reports[f"mi_{v}"].estimate,
                        reports[f"sd_{v}"].reference_bound,
                        reports[f"sd_{v}"].details["k_hat"]) == reference[v]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_sorted_kernel_counts_in_its_echelon_basis(self, n):
        # element t of sorted K is the XOR of elements 2^j over the set bits of t
        for lg in range(1, n + 1):
            for values in _all_seed_hashes(n, lg):
                kernel = np.flatnonzero(values == 0)
                dim = kernel.size.bit_length() - 1
                assert kernel.size == 1 << dim
                counted = np.zeros(1, dtype=kernel.dtype)
                for j in range(dim):
                    counted = np.concatenate([counted, counted ^ kernel[1 << j]])
                np.testing.assert_array_equal(kernel, counted)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_pad_rows_are_the_distinct_sign_rows(self, n):
        # the distinct extractor sign patterns on K, in sorted order, each
        # 2^rank(G) times, are the rows _pad_rows(dim K) transforms with
        sign = 1.0 - 2.0 * _all_seed_hashes(n, 1)
        for lg in range(1, n + 1):
            for values in _all_seed_hashes(n, lg):
                kernel = np.flatnonzero(values == 0)
                dim = kernel.size.bit_length() - 1
                rows, counts = np.unique(sign[:, kernel], axis=0, return_counts=True)
                np.testing.assert_array_equal(rows, _pad_rows(dim))
                assert (counts == 1 << (n - dim)).all()

    @pytest.mark.parametrize("dim", range(9))
    def test_pad_rows_are_a_hadamard_matrix(self, dim):
        rows = _pad_rows(dim)
        assert set(np.unique(rows).tolist()) <= {-1.0, 1.0}
        np.testing.assert_array_equal(rows @ rows.T, (1 << dim) * np.eye(1 << dim))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_pad_rows_slice_to_every_smaller_order(self, n):
        # concealment_exact builds P_n once and reads P_d off it per dim K
        rows = _pad_rows(n)
        for dim in range(n + 1):
            np.testing.assert_array_equal(rows[::1 << (n - dim), :1 << dim], _pad_rows(dim))

    def test_pad_rows_built_once_per_call(self, monkeypatch):
        # two view laws (p != q) and dims K 6 to 9 share one P_9
        calls = []

        def counted(dim):
            calls.append(dim)
            return _pad_rows(dim)

        monkeypatch.setattr(adversary, "_pad_rows", counted)
        params = explicit_params(9, CrossoverPair(0.2, 0.3), "one", alpha1=0.3,
                                 challenge_bits=3, commit_bits=1)
        concealment_exact(params, make_channel(0.2, 0.3), views=("bob", "eve"))
        assert calls == [9]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_sorted_leaders_are_the_coset_minima(self, n):
        # the stable sort by hash value, read as (coset, element of K), is
        # the standard array: K first, then each leader XOR K, the leaders
        # in the order of np.unique's first occurrences, i.e. of hash value
        for lg in range(1, n + 1):
            g_hash = _all_seed_hashes(n, lg)
            kernel_sizes = np.count_nonzero(g_hash == 0, axis=1)
            seen = np.zeros(g_hash.shape[0], dtype=bool)
            for dim in range(n + 1):
                group = np.flatnonzero(kernel_sizes == 1 << dim)
                for start in range(0, group.size, 7):
                    seeds = group[start:start + 7]
                    order = np.argsort(g_hash[seeds], axis=1, kind="stable")
                    kernel, leaders = order[:, :1 << dim], order[:, ::1 << dim]
                    assert kernel.shape == (seeds.size, 1 << dim)
                    assert leaders.shape == (seeds.size, 1 << (n - dim))
                    np.testing.assert_array_equal(
                        order.reshape(seeds.size, 1 << (n - dim), 1 << dim),
                        leaders[:, :, None] ^ kernel[:, None, :])
                    for values, k, lead in zip(g_hash[seeds], kernel, leaders):
                        np.testing.assert_array_equal(k, np.flatnonzero(values == 0))
                        np.testing.assert_array_equal(
                            lead, np.unique(values, return_index=True)[1])
                    seen[seeds] = True
            assert seen.all()

    def test_reports_do_not_depend_on_the_block_size(self, monkeypatch):
        # one seed per block (8 bytes: one float64 kernel entry) up to
        # every seed of a dim K in one block (2^24 entries)
        params = explicit_params(5, CrossoverPair(0.2, 0.3), "one", alpha1=0.3,
                                 challenge_bits=3, commit_bits=1,
                                 coupling="custom", coupling_r=0.05)
        channel = make_channel(0.2, 0.3, "custom", r=0.05)

        def run():
            return {key: (r.estimate, r.reference_bound, r.details["k_hat"])
                    for key, r in concealment_exact(params, channel).items()}

        default = run()
        for block in (8, 8 << 24):
            monkeypatch.setattr(adversary, "BLOCK_BYTES", block)
            assert run() == default

    @pytest.mark.parametrize("n,lg,p", [pytest.param(n, lg, 0.2, id=f"{n}-{lg}")
                                        for n in range(1, 6) for lg in (1, 3) if lg <= n]
                             + [pytest.param(4, 3, 0.3, id="4-3-p-equals-q")])
    def test_reports_do_not_depend_on_the_other_views(self, n, lg, p):
        # the views share one pass over the seeds; each keeps its own sums,
        # except Bob's and Eve's at p == q, which share one evaluation
        params = explicit_params(n, CrossoverPair(p, 0.3), "one", alpha1=0.3,
                                 challenge_bits=lg, commit_bits=1,
                                 coupling="custom", coupling_r=0.05)
        channel = make_channel(p, 0.3, "custom", r=0.05)

        def run(views):
            return {key: (r.estimate, r.reference_bound, r.details["k_hat"])
                    for key, r in concealment_exact(params, channel, views=views).items()}

        every = run(VIEWS)
        for size in range(1, len(VIEWS) + 1):
            for views in itertools.permutations(VIEWS, size):
                assert run(views) == {f"{metric}_{v}": every[f"{metric}_{v}"]
                                      for v in views for metric in ("sd", "mi")}

    @pytest.mark.parametrize("n,lg,views", [
        (8, 6, ("bob", "eve")),
        (6, 6, ("joint",)),
        (6, 6, VIEWS),
        (9, 3, ("bob", "eve")),
        (7, 2, ("joint",)),
    ], ids=["n8-single-party", "n6-joint", "n6-all-views", "n9-single-party", "n7-joint"])
    def test_traced_peak_within_budget(self, n, lg, views):
        # the largest seed spaces at the limits; an unblocked search over
        # every seed's leaders needed about 140 MiB here
        budget = 8 << 20
        params = explicit_params(n, CrossoverPair(0.2, 0.3), "one", alpha1=0.3,
                                 challenge_bits=lg, commit_bits=1)
        channel = make_channel(0.2, 0.3)
        tracemalloc.start()
        try:
            concealment_exact(params, channel, views=views)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget

    @pytest.mark.parametrize("views", [("bob", "bob"), ("eve", "joint", "eve"), ()])
    def test_each_view_named_once(self, views):
        params = explicit_params(4, CrossoverPair(0.25, 0.25), "one", alpha1=0.2,
                                 challenge_bits=1, commit_bits=1)
        with pytest.raises(DomainError):
            concealment_exact(params, make_channel(0.25, 0.25), views=views)


class TestExactWorkLimit:
    """The one size limit of exact concealment, W <= EXACT_WORK_LIMIT,
    against the three limits it replaced (one party n <= 8, joint view
    n <= 6, n + l_G <= 14)."""

    def test_accepts_the_old_limits_and_the_new_frontier(self):
        channel = make_channel(0.2, 0.3)
        accepted = set()
        for n in range(1, 13):
            for lg in range(1, n + 1):
                params = explicit_params(n, CrossoverPair(0.2, 0.3), "one", alpha1=0.3,
                                         challenge_bits=lg, commit_bits=1)
                for views in (("bob", "eve"), ("bob",), ("joint",), VIEWS):
                    try:
                        _concealment_check(params, channel, views, "exact")
                    except ScaleError:
                        continue
                    accepted.add((n, lg, "joint" in views))
        old = {(n, lg, joint) for n in range(1, 13) for lg in range(1, n + 1)
               for joint in (False, True) if n <= (6 if joint else 8) and n + lg <= 14}
        new = {(9, lg, False) for lg in (1, 2, 3)} | {(7, lg, True) for lg in (1, 2)}
        assert accepted == old | new

    @pytest.mark.parametrize("n,lg,views", [
        (9, 4, ("bob", "eve")), (10, 1, ("eve",)), (7, 3, ("joint",)), (8, 1, VIEWS),
    ])
    def test_first_refused_points_do_no_work(self, monkeypatch, n, lg, views):
        def no_work(*args, **kwargs):
            raise AssertionError("the seed tables were built before the scale check")

        assert _exact_work(n, lg, "joint" in views) > EXACT_WORK_LIMIT
        monkeypatch.setattr(adversary, "_all_seed_tables", no_work)
        params = explicit_params(n, CrossoverPair(0.2, 0.3), "one", alpha1=0.3,
                                 challenge_bits=lg, commit_bits=1)
        with pytest.raises(ScaleError, match=r"needs W = 2\^3\d multiply-adds"):
            concealment_exact(params, make_channel(0.2, 0.3), views=views)


# cases and tolerance fixed before any value was looked at
_MODEL_CASES = [(n, lg) for n in (4, 5, 6) for lg in (1, 2, 3)] + [(7, 1), (7, 2)]
_MODEL_PAIRS = [(0.1, 0.2), (0.2, 0.3), (0.1, 0.35)]
_MODEL_TOL = 1e-12


@functools.lru_cache(maxsize=None)
def _exact_sd_mi(n, lg, p, q, coupling):
    """view -> (SD, MI) of concealment_exact over every view."""
    params = explicit_params(n, CrossoverPair(p, q), "one", alpha1=0.3,
                             challenge_bits=lg, commit_bits=1, coupling=coupling)
    reports = concealment_exact(params, make_channel(p, q, coupling))
    return {v: (reports[f"sd_{v}"].estimate, reports[f"mi_{v}"].estimate) for v in VIEWS}


@pytest.mark.parametrize("p,q", _MODEL_PAIRS)
@pytest.mark.parametrize("n,lg", _MODEL_CASES)
class TestChannelModel:
    """What the channel model implies for the exact views, in SD and MI."""

    def test_degraded_joint_view_is_bobs_view(self, n, lg, p, q):
        # X -> Y -> Z: Eve's word adds nothing to Bob's
        values = _exact_sd_mi(n, lg, p, q, "degraded")
        np.testing.assert_allclose(values["joint"], values["bob"], rtol=0, atol=_MODEL_TOL)

    def test_swapping_p_and_q_swaps_bob_and_eve(self, n, lg, p, q):
        values = _exact_sd_mi(n, lg, p, q, "independent")
        swapped = _exact_sd_mi(n, lg, q, p, "independent")
        for v, w in (("bob", "eve"), ("eve", "bob"), ("joint", "joint")):
            np.testing.assert_allclose(swapped[v], values[w], rtol=0, atol=_MODEL_TOL)

    @pytest.mark.parametrize("coupling", ["independent", "degraded"])
    def test_joint_view_tells_at_least_either_party(self, n, lg, p, q, coupling):
        # data processing: each party's view is a function of the joint view
        values = _exact_sd_mi(n, lg, p, q, coupling)
        for v in ("bob", "eve"):
            assert (np.asarray(values["joint"]) >= np.asarray(values[v]) - _MODEL_TOL).all()


def _reference_map_guess(n, hashes, target, anchors, weights):
    """Most plausible x over all 2^n words: hash-consistent, closest to
    the anchors in weighted Hamming distance, ties to the lowest word."""
    words = np.arange(1 << n, dtype=np.uint32)
    cost = np.zeros(1 << n, dtype=np.float64)
    for anchor, w in zip(anchors, weights):
        cost += w * np.bitwise_count(words ^ np.uint32(anchor))
    cost[hashes != target] = np.inf
    return int(np.argmin(cost))


def _reference_concealment_mc_worker(payload, seeds):
    """The secrecy worker as one full commit_phase session per trial."""
    params, channel, view, uniform_pad = payload
    n = params.n
    wp = math.log2((1.0 - params.pq.p) / params.pq.p)
    wq = math.log2((1.0 - params.pq.q) / params.pq.q)
    out = np.empty((len(seeds), 2), dtype=np.uint8)
    for i, s in enumerate(seeds):
        rng = make_rng(s)
        c = BitVector.random(rng, 1)
        session = commit_phase(params, c, channel, rng)
        t = session.transcript
        pad_bit = t.pad[0]
        if uniform_pad:
            pad_bit = c[0] ^ int(rng.integers(0, 2))
        y, z = session.bob_view.y.to_int(), session.eve_view.z.to_int()
        anchors, weights = {"bob": ([y], [wp]), "eve": ([z], [wq]),
                            "joint": ([y, z], [wp, wq])}[view]
        hashes = hash_all_inputs(t.challenge)
        target = np.uint32(t.challenge_value.to_int())
        x_hat = _reference_map_guess(n, hashes, target, anchors, weights)
        ext_bit = hash_evaluate(t.extractor, BitVector.from_int(x_hat, n))[0]
        out[i, 0] = c[0]
        out[i, 1] = pad_bit ^ ext_bit
    return out


@pytest.mark.parametrize("uniform_pad", [False, True])
@pytest.mark.parametrize("n,lg", [(n, lg) for n in (4, 8, 12) for lg in (1, 2, 3)])
def test_concealment_worker_matches_commit_phase_sessions(n, lg, uniform_pad):
    params = explicit_params(n, CrossoverPair(0.2, 0.3), "one", alpha1=0.1,
                             challenge_bits=lg, commit_bits=1)
    channel = make_channel(0.2, 0.3)
    seeds = trial_seeds(1000 * n + lg, 40)
    for view in VIEWS:
        payload = (params, channel, view, uniform_pad)
        assert np.array_equal(_concealment_mc_worker(payload, seeds),
                              _reference_concealment_mc_worker(payload, seeds))


# (n, l_G, views, packed MAP key width): l_G hash bits, n.bit_length()
# bits per anchor and one spare bit; uint8 keys hold 8 bits, uint16 16
_KEY_WIDTHS = [
    (8, 3, ("bob", "eve"), 8), (8, 4, ("bob", "eve"), 9),
    (16, 10, ("bob", "eve"), 16), (16, 11, ("bob", "eve"), 17),
    (4, 1, ("joint",), 8), (4, 2, ("joint",), 9),
    (12, 7, ("joint",), 16), (12, 8, ("joint",), 17),
]


@pytest.mark.parametrize("n,lg,views,key_bits", _KEY_WIDTHS,
                         ids=[f"{v[0]}-{b}bit" for _, _, v, b in _KEY_WIDTHS])
def test_concealment_worker_at_the_key_width_boundaries(n, lg, views, key_bits):
    assert lg + n.bit_length() * (2 if views == ("joint",) else 1) + 1 == key_bits
    params = explicit_params(n, CrossoverPair(0.2, 0.3), "one", alpha1=0.1,
                             challenge_bits=lg, commit_bits=1)
    channel = make_channel(0.2, 0.3)
    seeds = trial_seeds(100 * n + lg, 24)
    for view in views:
        payload = (params, channel, view, False)
        assert np.array_equal(_concealment_mc_worker(payload, seeds),
                              _reference_concealment_mc_worker(payload, seeds))


class TestConcealmentMonteCarlo:
    def setup_method(self):
        self.params = explicit_params(6, CrossoverPair(0.25, 0.25), "two",
                                      alpha1=0.2, challenge_bits=1, commit_bits=1)
        self.channel = make_channel(0.25, 0.25)

    def test_uniform_pad_advantage_is_noise(self):
        rep = concealment_monte_carlo(self.params, self.channel, trials=2000,
                                      seed=31, view="bob", uniform_pad=True)
        assert abs(rep.estimate) <= 3.0 / math.sqrt(2000)

    @pytest.mark.parametrize("p,q", [(0.25, 0.25), (0.1, 0.3), (0.3, 0.1)])
    @pytest.mark.parametrize("view", VIEWS)
    def test_advantage_lower_bounds_exact_sd(self, view, p, q):
        params = explicit_params(6, CrossoverPair(p, q), "two", alpha1=0.2,
                                 challenge_bits=1, commit_bits=1)
        channel = make_channel(p, q)
        exact = concealment_exact(params, channel, views=(view,))[f"sd_{view}"].estimate
        rep = concealment_monte_carlo(params, channel, trials=2000, seed=32, view=view)
        assert rep.ci_lo <= exact

    def test_correlated_coupling_comparison(self):
        # maximally correlated noise folds Eve's word onto Bob's; the
        # joint-view advantage stays within noise of the independent one
        coupled_params = explicit_params(6, CrossoverPair(0.25, 0.25), "one",
                                         alpha1=0.2, challenge_bits=1,
                                         commit_bits=1, coupling="custom",
                                         coupling_r=0.25)
        coupled_channel = make_channel(0.25, 0.25, "custom", r=0.25)
        adv_coupled = concealment_monte_carlo(coupled_params, coupled_channel,
                                              trials=2000, seed=33, view="joint")
        adv_indep = concealment_monte_carlo(self.params, self.channel,
                                            trials=2000, seed=33, view="joint")
        sigma = 1.0 / math.sqrt(2000)
        assert adv_coupled.estimate >= adv_indep.estimate - 3 * sigma

    def test_mi_estimate_present(self):
        rep = concealment_monte_carlo(self.params, self.channel, trials=500,
                                      seed=34, view="eve")
        assert "mi_plugin_miller_madow" in rep.details

    def test_reproducible(self):
        r1 = concealment_monte_carlo(self.params, self.channel, trials=300,
                                     seed=35, view="bob")
        r2 = concealment_monte_carlo(self.params, self.channel, trials=300,
                                     seed=35, view="bob")
        assert r1.estimate == r2.estimate and r1.to_record() == r2.to_record()

    def test_channel_must_match_params(self):
        with pytest.raises(CouplingError):
            concealment_monte_carlo(self.params, make_channel(0.2, 0.25),
                                    trials=10, seed=0)

    def test_scale_guard_requires_hidden_challenge(self):
        # n = 22 > ENUM_LIMIT: the MAP guess would scan 2^22 words per trial
        big = explicit_params(22, CrossoverPair(0.25, 0.25), "one", alpha1=0.2,
                              challenge_bits=2, commit_bits=1)
        with pytest.raises(ScaleError):
            concealment_monte_carlo(big, make_channel(0.25, 0.25), trials=10,
                                    seed=0, view="bob")


# ---------------------------------------------------------------------------
# batched workers against the per-trial Generator loops they replaced


def _generator_noise_pair(ch, n: int, rng: np.random.Generator):
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


def _generator_commit_draws(params, channel, streams):
    """Every random draw of the commit phase, as uint8 arrays.

    Returns (x, nb, ne, g_seed, e_seed): Alice's word, Bob's and Eve's
    noise, and the challenge and extractor seeds.  streams are the three
    party generators, a session generator's spawn(3): Alice's (x, then
    the extractor seed), Bob's (the challenge seed) and the channel's
    (the noise pair).  This fixes the stream contract of commit_phase;
    callers that work on arrays call it directly after checking the
    channel once.
    """
    n = params.n
    alice_rng, bob_rng, channel_rng = streams

    def uniform_bits(stream, size):
        return stream.integers(0, 2, size=size, dtype=np.uint8)

    x = uniform_bits(alice_rng, n)                                 # C1
    nb, ne = _generator_noise_pair(channel, n, channel_rng)
    g_seed = uniform_bits(bob_rng, n + params.challenge_bits - 1)  # C2
    e_seed = uniform_bits(alice_rng, n + params.commit_bits - 1)   # C4
    return x, nb, ne, g_seed, e_seed


def _per_trial_soundness_worker(payload, seeds):
    """The soundness worker with one SeedSequence, Philox and Generator per trial."""
    n, p, alpha1 = payload
    lo, hi = n * (p - alpha1), n * (p + alpha1)
    out = np.empty(len(seeds), dtype=np.uint8)
    for i in range(len(seeds)):
        child = np.random.SeedSequence(seeds.entropy, spawn_key=(seeds.indices[i], 2))
        u = make_rng(child).random((n, 2))
        d = np.count_nonzero(u[:, 0] < p)
        out[i] = 0 if lo <= d <= hi else 1
    return out


def _reference_soundness_worker(payload, seeds):
    """The soundness worker with one re-keyed C Philox and one count per trial."""
    n, p, alpha1 = payload
    lo, hi = n * (p - alpha1), n * (p + alpha1)
    below = np.uint64(math.ceil(p * 2.0 ** 53) << 11)  # p < 1/2: fits in 64 bits
    noise = make_rng(0)  # re-keyed per trial
    out = np.empty(len(seeds), dtype=np.uint8)
    for i, key in enumerate(seeds.keys(2)):
        words = rekey(noise, key).bit_generator.random_raw(2 * n)
        d = np.count_nonzero(words[::2] < below)
        out[i] = 0 if lo <= d <= hi else 1
    return out


def _per_trial_binding_worker(session):
    """The binding worker with one SeedSequence, Philox and Generator per
    trial and a band scan over the words with the committed hash value,
    read from the session's own hash tables."""
    t = session.transcript
    candidates = np.flatnonzero(hash_all_inputs(t.challenge)
                                == t.challenge_value.to_int()).astype(np.uint32)
    candidate_ext = hash_all_inputs(t.extractor)[candidates]

    def worker(payload, seeds):
        params, channel, x_int, ne_bits, _, _, _, _, thresh_mode = payload
        n, alpha1 = params.n, params.alpha1
        p, q, r = channel.p, channel.q, channel.r
        lo, hi = n * (p - alpha1), n * (p + alpha1)
        if thresh_mode == "alone":
            thresh = np.full(n, p)
        else:
            cond1 = r / q              # P(N_B=1 | N_E=1)
            cond0 = (p - r) / (1.0 - q)  # P(N_B=1 | N_E=0)
            thresh = np.where(ne_bits == 1, cond1, cond0)
        weights = (1 << np.arange(n - 1, -1, -1)).astype(np.uint64)
        out = np.empty((len(seeds), 2), dtype=np.int64)
        for i in range(len(seeds)):
            nb = (make_rng(seeds[i]).random(n) < thresh).astype(np.uint64)
            y_int = np.uint32(x_int) ^ np.uint32((nb * weights).sum())
            d = np.bitwise_count(candidates ^ y_int)
            member_ext = candidate_ext[(d >= lo) & (d <= hi)]
            out[i, 0] = 1 if (member_ext != member_ext[:1]).any() else 0
            out[i, 1] = member_ext.size
        return out

    return worker


def _per_trial_concealment_mc_worker(payload, seeds):
    """The secrecy worker with a SeedSequence, Philox and Generator per
    trial and three more per trial from Generator.spawn(3)."""
    params, channel, view, uniform_pad = payload
    n = params.n
    wp = math.log2((1.0 - params.pq.p) / params.pq.p)
    wq = math.log2((1.0 - params.pq.q) / params.pq.q)
    big_endian = 1 << np.arange(n - 1, -1, -1, dtype=np.uint64)
    out = np.empty((len(seeds), 2), dtype=np.uint8)
    for i in range(len(seeds)):
        rng = make_rng(seeds[i])
        c = int(rng.integers(0, 2, size=1, dtype=np.uint8)[0])
        x, nb, ne, g_seed, e_seed = _generator_commit_draws(params, channel, rng.spawn(3))
        x_int = int(x @ big_endian)
        ext_mask = int(e_seed @ big_endian[::-1])
        pad_bit = c ^ ((x_int & ext_mask).bit_count() & 1)
        if uniform_pad:
            pad_bit = c ^ int(rng.integers(0, 2))
        table = _packed_table(g_seed, n, params.challenge_bits)
        candidates = np.flatnonzero(table == table[x_int])
        y_int = x_int ^ int(nb @ big_endian)
        z_int = x_int ^ int(ne @ big_endian)
        if view == "bob":
            cost = wp * np.bitwise_count(candidates ^ y_int)
        elif view == "eve":
            cost = wq * np.bitwise_count(candidates ^ z_int)
        else:
            cost = (wp * np.bitwise_count(candidates ^ y_int)
                    + wq * np.bitwise_count(candidates ^ z_int))
        x_hat = int(candidates[np.argmin(cost)])
        out[i, 0] = c
        out[i, 1] = pad_bit ^ ((x_hat & ext_mask).bit_count() & 1)
    return out


def _reference_commit_phase(params, c, channel, rng):
    """commit_phase on the per-stream Generator draws."""
    x_bits, nb, ne, g_seed, e_seed = _generator_commit_draws(params, channel, rng.spawn(3))
    x = BitVector(x_bits)
    challenge = HashSpec(params.n, params.challenge_bits, BitVector(g_seed))
    extractor = HashSpec(params.n, params.commit_bits, BitVector(e_seed))
    return {"x": x, "y": BitVector(x_bits ^ nb), "z": BitVector(x_bits ^ ne),
            "G": challenge, "g_bar": hash_evaluate(challenge, x), "Ext": extractor,
            "Q": c ^ hash_evaluate(extractor, x)}


@pytest.mark.parametrize("n,lg,mc,coupling,r", [
    (1, 1, 1, "independent", None),
    (7, 3, 2, "custom", 0.05),
    (2000, 100, 737, "degraded", None),
    (8000, 400, 2951, "independent", None),
])
def test_commit_phase_draws_what_the_party_generators_draw(n, lg, mc, coupling, r):
    params = explicit_params(n, CrossoverPair(0.1, 0.2), "one", alpha1=0.04,
                             challenge_bits=lg, commit_bits=mc,
                             coupling=coupling, coupling_r=r)
    channel = make_channel(0.1, 0.2, coupling, r=r)
    for seed in (0, 9173, 2**64 - 1):
        c = BitVector.random(make_rng(seed), mc)
        session = commit_phase(params, c, channel, make_rng(seed))
        t = session.transcript
        got = {"x": session.alice_view.x, "y": session.bob_view.y,
               "z": session.eve_view.z, "G": t.challenge, "g_bar": t.challenge_value,
               "Ext": t.extractor, "Q": t.pad}
        assert got == _reference_commit_phase(params, c, channel, make_rng(seed))


def _check_at_one_and_two_workers(worker, reference, payload, seeds):
    # callers hold fork_small_calls, so two workers fork even for a few trials
    expected = reference(payload, seeds)
    for threads in (1, 2):
        assert np.array_equal(map_trials(worker, payload, seeds, threads), expected)


def _each_point(reference):
    """A multi-point soundness reference: reference's column for each point."""
    def worker(points, seeds):
        return np.stack([reference(point, seeds) for point in points], axis=1)
    return worker


_SOUNDNESS_REFERENCES = [_each_point(_reference_soundness_worker),
                         _each_point(_per_trial_soundness_worker)]
# (4, 0.25, 0.25) and (8, 0.25, 0.125) put both band ends on integers
_SOUNDNESS_POINTS = ((1, 0.1, 0.05), (300, 0.1, 0.035), (2000, 0.1, 0.01),
                     (300, 0.3, 0.035), (700, 0.45, 0.2), (2000, 0.25, 0.04),
                     (1, 0.4, 0.45), (4, 0.25, 0.25), (8, 0.25, 0.125))


@pytest.mark.parametrize("reference", _SOUNDNESS_REFERENCES, ids=["rekeyed", "per-trial"])
@pytest.mark.parametrize("points", [_SOUNDNESS_POINTS, _SOUNDNESS_POINTS[::-1],
                                    *((point,) for point in _SOUNDNESS_POINTS)])
def test_soundness_worker_matches_each_point_alone(fork_small_calls, reference, points):
    _check_at_one_and_two_workers(_soundness_worker, reference, points,
                                  trial_seeds(points[0][0], 45))


@pytest.mark.parametrize("reference", _SOUNDNESS_REFERENCES, ids=["rekeyed", "per-trial"])
@pytest.mark.parametrize("offset", [None, -1, 0, 1])
def test_soundness_worker_blocks_of_trials(fork_small_calls, reference, offset):
    # a block holds BLOCK_BYTES // 1000 trials of the widest point, one
    # byte of flags per symbol; None is one trial
    block = BLOCK_BYTES // 1000
    trials = 1 if offset is None else block + offset
    points = ((1000, 0.1, 0.04), (250, 0.2, 0.03), (1000, 0.1, 0.01))
    _check_at_one_and_two_workers(_soundness_worker, reference, points,
                                  trial_seeds(2**64 - 1, trials))


def test_soundness_worker_one_trial_per_block(monkeypatch, fork_small_calls):
    # the child forks after the patch, so both workers see it
    seeds = trial_seeds(9173, 23)
    expected = [reference(_SOUNDNESS_POINTS, seeds) for reference in _SOUNDNESS_REFERENCES]
    assert np.array_equal(*expected)
    monkeypatch.setattr(adversary, "BLOCK_BYTES", 1)  # below one trial's flags
    for threads in (1, 2):
        got = map_trials(_soundness_worker, _SOUNDNESS_POINTS, seeds, threads)
        assert np.array_equal(got, expected[0])


def test_soundness_worker_memory_stays_at_one_block():
    # the soundness sweep's points: one trial's words (31 KiB) and one
    # block of flip flags (65 trials of 2000, 127 KiB) plus the keys of at
    # most MC_BLOCK trials, not a copy per trial
    points = tuple((n, 0.1, 0.04) for n in (250, 500, 1000, 2000))
    peak = _traced_peak(_soundness_worker, points, trial_seeds(42, 4000))
    assert peak <= 1 << 20, peak


def test_soundness_worker_memory_is_flat_in_the_trial_count():
    # keys come per MC_BLOCK trials; keys for the whole chunk at once
    # grew the peak by about 88 B per trial (0.92 -> 3.56 MB at these sizes)
    points = ((8, 0.1, 0.25),)
    _soundness_worker(points, trial_seeds(42, 100))  # first-call allocations
    small = _traced_peak(_soundness_worker, points, trial_seeds(42, 10_000))
    large = _traced_peak(_soundness_worker, points, trial_seeds(42, 40_000))
    # one byte of output per trial grows, nothing else
    assert large - small <= 4 * 30_000, (small, large)


def _captured_payload(monkeypatch, params, channel, session, mode="alone"):
    """The payload binding_attack hands its worker for the session's commit."""
    payloads = []
    with monkeypatch.context() as m:
        m.setattr(adversary, "map_trials",
                  lambda worker, payload, seeds, *args: payloads.append(payload)
                  or worker(payload, seeds))
        binding_attack(session, params, channel, mode=mode, trials=1, seed=0)
    return payloads[0]


def _binding_payload(monkeypatch, n, lg, mode, coupling, r, seed=29):
    """The payload binding_attack hands its worker for one commit, and
    the per-trial reference worker of that commit."""
    params, channel, session = small_session(
        n=n, p=0.25, q=0.3, alpha1=0.15, lg=lg, mc=min(n, 3), seed=seed,
        coupling=coupling, r=r)
    return (_captured_payload(monkeypatch, params, channel, session, mode),
            _per_trial_binding_worker(session))


@pytest.mark.parametrize("mode", ["alone", "with_eve"])
@pytest.mark.parametrize("coupling,r", [("independent", None), ("custom", 0.1)])
def test_binding_worker_matches_per_trial_streams(monkeypatch, fork_small_calls, mode,
                                                  coupling, r):
    payload, reference = _binding_payload(monkeypatch, 12, 8, mode, coupling, r)
    _check_at_one_and_two_workers(_binding_worker, reference, payload,
                                  trial_seeds(30, 60))


@pytest.mark.parametrize("mode", ["alone", "with_eve"])
@pytest.mark.parametrize("coupling,r", [("independent", None), ("custom", 0.1),
                                        ("degraded", None)])
@pytest.mark.parametrize("n,lg", [(2, 1), (5, 2), (9, 3), (13, 4), (16, 8), (20, 5)])
def test_binding_worker_matches_per_trial_streams_at_each_size(monkeypatch, fork_small_calls,
                                                               mode, coupling, r, n, lg):
    payload, reference = _binding_payload(monkeypatch, n, lg, mode, coupling, r, seed=n)
    _check_at_one_and_two_workers(_binding_worker, reference, payload,
                                  trial_seeds(30 + n, 60))


@pytest.mark.parametrize("trials", [1, MC_BLOCK - 1, MC_BLOCK, MC_BLOCK + 1])
def test_binding_worker_blocks_of_trials(monkeypatch, fork_small_calls, trials):
    payload, reference = _binding_payload(monkeypatch, 12, 8, "with_eve", "custom", 0.1)
    _check_at_one_and_two_workers(_binding_worker, reference, payload,
                                  trial_seeds(2**64 - 1, trials))


@pytest.mark.parametrize("block", [1, 5, 7, 3])
def test_binding_worker_tiles_change_nothing(monkeypatch, block):
    payload, reference = _binding_payload(monkeypatch, 10, 2, "alone", "independent", None)
    seeds = trial_seeds(17, 23)
    expected = reference(payload, seeds)
    monkeypatch.setattr(adversary, "MC_BLOCK", block)
    assert np.array_equal(_binding_worker(payload, seeds), expected)


# a one-value band at distance `weight` keeps each U(s) small, so some
# sets of two or more members share one Ext value and do not succeed
@pytest.mark.parametrize("n,lg,weight,seed", [
    (8, 2, 1, 0), (8, 4, 2, 0), (8, 8, 2, 8),
    (10, 2, 1, 0), (10, 4, 2, 0), (10, 8, 2, 0),
    (12, 2, 1, 0), (12, 4, 2, 0), (12, 8, 2, 0),
])
def test_binding_tables_match_a_scan_for_every_y(monkeypatch, n, lg, weight, seed):
    # the tables depend on neither the mode nor the coupling
    params, channel, session = small_session(n=n, p=weight / n, alpha1=0.01, lg=lg,
                                             mc=1, seed=seed)
    _, _, _, _, hashes, g_bar, success, size, _ = _captured_payload(
        monkeypatch, params, channel, session)
    t = session.transcript
    candidates = np.flatnonzero(hash_all_inputs(t.challenge) == t.challenge_value.to_int())
    ext_all = hash_all_inputs(t.extractor)
    lo, hi = n * (params.pq.p - params.alpha1), n * (params.pq.p + params.alpha1)
    expected = np.empty((1 << n, 2), dtype=np.int64)
    for y in range(1 << n):
        d = np.bitwise_count(candidates ^ y)
        member_ext = ext_all[candidates[(d >= lo) & (d <= hi)]]
        expected[y] = np.unique(member_ext).size >= 2, member_ext.size
    s = hashes ^ g_bar
    assert np.array_equal(success[s], expected[:, 0])
    assert np.array_equal(size[s], expected[:, 1])
    several = expected[:, 1] >= 2
    assert expected[:, 0].any() and not expected[several, 0].all()


@pytest.mark.parametrize("coupling,r", [("independent", None), ("degraded", None),
                                        ("custom", 0.05)])
def test_binding_with_eve_averaged_over_eve_equals_alone(monkeypatch, coupling, r):
    # law of total probability over Eve's flips ne, with Bob's flips nb
    # drawn at the worker's own thresholds: channel.p alone, and
    # channel.bob_given_eve() given ne
    n = 10
    params, channel, session = small_session(n=n, p=0.25, q=0.3, alpha1=0.15, lg=8, mc=1,
                                             seed=29, coupling=coupling, r=r)
    _, _, x_int, _, hashes, g_bar, success, _, _ = _captured_payload(
        monkeypatch, params, channel, session, "with_eve")
    words = np.arange(1 << n)
    bits = (words[:, None] >> np.arange(n - 1, -1, -1)) & 1  # big-endian, as the worker
    wins = success[hashes[x_int ^ words] ^ g_bar].astype(float)  # indexed by nb
    alone = np.prod(np.where(bits == 1, channel.p, 1 - channel.p), axis=1) @ wins
    eve = np.prod(np.where(bits == 1, channel.q, 1 - channel.q), axis=1)
    given0, given1 = channel.bob_given_eve()
    thresh = np.where(bits == 1, given1, given0)  # row ne: Bob's per-position law
    bob_given_ne = np.ones((1 << n, 1 << n))      # [ne, nb]
    for j in range(n):
        bob_given_ne *= np.where(bits[None, :, j] == 1, thresh[:, j, None],
                                 1 - thresh[:, j, None])
    with_eve = bob_given_ne @ wins
    assert 0 < alone < 1
    assert abs(eve @ with_eve - alone) <= 1e-12
    # the conditional moves with ne unless the flips are independent
    assert (np.ptp(with_eve) <= 1e-12) == (coupling == "independent")


_COUPLINGS = (("independent", None), ("degraded", None), ("custom", 0.05))
_SEEDS = (0, 11, 2**64 - 1)


def _secrecy_payload(n, lg, coupling, r, view, uniform_pad):
    params = explicit_params(n, CrossoverPair(0.2, 0.3), "one", alpha1=0.1,
                             challenge_bits=lg, commit_bits=1,
                             coupling=coupling, coupling_r=r)
    channel = make_channel(0.2, 0.3, coupling, r=r)
    return params, channel, view, uniform_pad


_VARIANTS = [(view, pad) for view in VIEWS for pad in (False, True)]


@pytest.mark.parametrize("uniform_pad", [False, True])
@pytest.mark.parametrize("view", VIEWS)
def test_concealment_worker_matches_per_trial_streams(fork_small_calls, view, uniform_pad):
    payload = _secrecy_payload(8, 2, "independent", None, view, uniform_pad)
    _check_at_one_and_two_workers(_concealment_mc_worker,
                                  _per_trial_concealment_mc_worker, payload,
                                  trial_seeds(2**64 - 1, 40))


@pytest.mark.parametrize("n", range(2, ENUM_LIMIT + 1))
def test_concealment_worker_matches_per_trial_streams_at_each_size(fork_small_calls, n):
    # every view x uniform_pad, with l_G, the coupling
    # and the seed varying along n; a few trials at the largest n
    trials = 12 if n <= 14 else 4 if n < ENUM_LIMIT else 2
    lg = min(n, 1 + n % 5)
    coupling, r = _COUPLINGS[n % 3]
    seeds = trial_seeds(_SEEDS[n % 3], trials)
    for view, uniform_pad in _VARIANTS:
        payload = _secrecy_payload(n, lg, coupling, r, view, uniform_pad)
        _check_at_one_and_two_workers(_concealment_mc_worker,
                                      _per_trial_concealment_mc_worker, payload, seeds)


@pytest.mark.parametrize("trials", [1, MC_BLOCK - 1, MC_BLOCK, MC_BLOCK + 1])
@pytest.mark.parametrize("view", VIEWS)
def test_concealment_worker_blocks_of_trials(fork_small_calls, view, trials):
    payload = _secrecy_payload(4, 2, "custom", 0.05, view, trials % 2 == 1)
    _check_at_one_and_two_workers(_concealment_mc_worker,
                                  _per_trial_concealment_mc_worker, payload,
                                  trial_seeds(2**64 - 1, trials))


@pytest.mark.parametrize("scan,block", [(1, 1), (8, 5), (200, 7), (1 << 10, 3)])
@pytest.mark.parametrize("view", VIEWS)
def test_concealment_worker_tiles_change_nothing(monkeypatch, view, scan, block):
    # tiles narrower than 2^n split each trial's scan; wider ones stack
    # trials.  scan is in bytes of keys: one byte a key for Bob's and Eve's
    # views at n = 6, l_G = 2, two for the joint view's, where 1 byte still
    # makes a tile of one key and 8, 200 and 2^10 bytes hold 4, 100 and 2^9
    seeds = trial_seeds(23, 11)
    for pad in (False, True):
        payload = _secrecy_payload(6, 2, "independent", None, view, pad)
        expected = _per_trial_concealment_mc_worker(payload, seeds)
        with monkeypatch.context() as m:
            m.setattr(adversary, "BLOCK_BYTES", scan)
            m.setattr(adversary, "MC_BLOCK", block)
            assert np.array_equal(_concealment_mc_worker(payload, seeds), expected)


def _traced_peak(worker, payload, seeds) -> int:
    tracemalloc.start()
    try:
        worker(payload, seeds)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("view", VIEWS)
def test_concealment_worker_memory_at_the_demo_size(view):
    # the secrecy_mc demo's n = 12, l_G = 2, one call over 3000 trials
    payload = _secrecy_payload(12, 2, "independent", None, view, False)
    assert _traced_peak(_concealment_mc_worker, payload, trial_seeds(11, 3000)) <= 4 << 20


@pytest.mark.parametrize("lg", [1, 2])
@pytest.mark.parametrize("view", ["eve", "joint"])
def test_concealment_worker_memory_at_the_enumeration_limit(view, lg):
    # at n = ENUM_LIMIT the batched scan holds no more than the
    # per-trial loop, which builds a 2^n table per trial
    payload = _secrecy_payload(ENUM_LIMIT, lg, "independent", None, view, False)
    seeds = trial_seeds(5, 2)
    assert (_traced_peak(_concealment_mc_worker, payload, seeds)
            <= _traced_peak(_per_trial_concealment_mc_worker, payload, seeds))


def test_cs_table_matches_the_count_loop():
    rng = np.random.default_rng(5)
    for samples in (np.zeros((3, 2), dtype=np.uint8),
                    rng.integers(0, 2, size=(1, 2), dtype=np.uint8),
                    rng.integers(0, 2, size=(501, 2), dtype=np.uint8)):
        loop = np.zeros((2, 2), dtype=np.int64)
        for c_bit, s_bit in samples:
            loop[c_bit, s_bit] += 1
        table = _cs_table(samples)
        assert table.dtype == loop.dtype and np.array_equal(table, loop)


def test_trial_seed_limit_checked_before_any_trial(monkeypatch):
    def no_trials(*args, **kwargs):
        raise AssertionError("map_trials ran past the trial seed limit")

    monkeypatch.setattr(adversary, "map_trials", no_trials)
    params = derive_params(200, CrossoverPair(0.2, 0.2), "one",
                           alpha1=0.05, beta1=0.05, beta2=0.1)
    with pytest.raises(ScaleError, match="trial seeds"):
        estimate_soundness(params, make_channel(0.2, 0.2), trials=TRIAL_LIMIT + 1, seed=0)
    small, channel, session = small_session(n=8, lg=2, mc=1)
    with pytest.raises(ScaleError, match="trial seeds"):
        binding_attack(session, small, channel, trials=TRIAL_LIMIT + 1)
    with pytest.raises(ScaleError, match="trial seeds"):
        concealment_monte_carlo(small, channel, trials=TRIAL_LIMIT // 2 + 1, seed=0)
