"""Commit/reveal wire protocol: parameter derivation, the three reveal
conditions, honest-run soundness, and transcript serialization."""

import dataclasses
import json
import math

import numpy as np
import pytest

from wiretap_commit.bits import BitVector
from wiretap_commit.channel import make_channel
from wiretap_commit.errors import CouplingError, DimensionError, RateError
from wiretap_commit.hashing import hash_all_inputs, hash_evaluate
from wiretap_commit.measures import CrossoverPair, binary_entropy
from wiretap_commit.protocol import (
    EveView,
    RevealClaim,
    bob_test,
    commit_phase,
    derive_params,
    explicit_params,
    honest_run,
    list_membership,
    session_from_config,
    session_to_config,
)
from wiretap_commit.rng import make_rng

R_02_B2 = 0.62192809488736234787  # H(0.2) - 0.1


class TestDeriveParams:
    def test_reference_point(self):
        params = derive_params(100, CrossoverPair(0.2, 0.2), "one",
                               alpha1=0.05, beta1=0.05, beta2=0.1)
        assert params.rate == pytest.approx(R_02_B2, abs=1e-12)
        assert params.commit_bits == 62
        assert params.challenge_bits == 5

    def test_two_privacy_rate(self):
        pq = CrossoverPair(0.25, 0.25)
        params = derive_params(200, pq, "two", alpha1=0.05, beta1=0.05, beta2=0.1)
        expected = 2 * binary_entropy(0.25) - binary_entropy(0.375) - 0.1
        assert params.rate == pytest.approx(expected, abs=1e-12)

    def test_rate_nonpositive(self):
        pq = CrossoverPair(0.2, 0.2)
        with pytest.raises(RateError):
            derive_params(100, pq, "one", 0.05, 0.05, binary_entropy(0.2))

    def test_commit_bits_underflow(self):
        # rate positive but floor(n R) = 0 at tiny n
        with pytest.raises(RateError):
            derive_params(1, CrossoverPair(0.2, 0.2), "one", 0.05, 0.5, 0.6)

    def test_challenge_bits_underflow(self):
        with pytest.raises(RateError):
            derive_params(10, CrossoverPair(0.2, 0.2), "one", 0.05, 0.05, 0.1)

    def test_beta_ordering(self):
        with pytest.raises(RateError):
            derive_params(100, CrossoverPair(0.2, 0.2), "one", 0.05, 0.1, 0.1)

    def test_two_privacy_needs_independent_coupling(self):
        with pytest.raises(CouplingError):
            derive_params(100, CrossoverPair(0.2, 0.3), "two", 0.05, 0.05, 0.1,
                          coupling="degraded")

    @pytest.mark.parametrize("challenge_bits,commit_bits", [(5, 1), (1, 4), (4, 4)])
    def test_hash_lengths_above_n_rejected(self, challenge_bits, commit_bits):
        with pytest.raises(DimensionError, match="must not exceed n = 3"):
            explicit_params(3, CrossoverPair(0.2, 0.3), "one", alpha1=0.1,
                            challenge_bits=challenge_bits, commit_bits=commit_bits)

    def test_hash_lengths_equal_to_n_accepted(self):
        params = explicit_params(3, CrossoverPair(0.2, 0.3), "one", alpha1=0.1,
                                 challenge_bits=3, commit_bits=3)
        assert (params.challenge_bits, params.commit_bits) == (3, 3)


def reference_session(seed=0, n=200, p=0.1):
    params = derive_params(n, CrossoverPair(p, p), "one",
                           alpha1=0.08, beta1=0.05, beta2=0.1)
    channel = make_channel(p, p, "independent")
    rng = make_rng(seed)
    c = BitVector.random(rng, params.commit_bits)
    session = commit_phase(params, c, channel, rng)
    return params, channel, session


class TestCommitPhase:
    def test_pad_inverts(self):
        for seed in range(5):
            _, _, session = reference_session(seed)
            t = session.transcript
            assert t.pad ^ hash_evaluate(t.extractor, session.alice_view.x) == \
                session.alice_view.c

    def test_replay_determinism(self):
        p1, _, s1 = reference_session(42)
        p2, _, s2 = reference_session(42)
        assert session_to_config(s1, p1) == session_to_config(s2, p2)

    def test_transcript_shared_object(self):
        _, _, session = reference_session(1)
        assert session.bob_view.transcript is session.alice_view.transcript
        assert session.eve_view.transcript is session.alice_view.transcript

    def test_eve_view_holds_only_z_and_transcript(self):
        names = [f.name for f in dataclasses.fields(EveView)]
        assert names == ["z", "transcript"]

    def test_commit_length_checked(self):
        params, channel, _ = reference_session(2)
        with pytest.raises(DimensionError):
            commit_phase(params, BitVector.zeros(params.commit_bits + 1),
                         channel, make_rng(3))

    def test_channel_mismatch_rejected(self):
        params, _, _ = reference_session(3)
        other = make_channel(0.2, 0.2, "independent")
        with pytest.raises(CouplingError):
            commit_phase(params, BitVector.zeros(params.commit_bits), other, make_rng(4))

    @pytest.mark.parametrize("coupling,r,other", [
        # same p and q: only the coupling differs (r = 0 is feasible here)
        ("independent", None, ("custom", 0.0)),
        ("custom", 0.01, ("independent", None)),
        # same coupling: only r differs
        ("custom", 0.01, ("custom", 0.05)),
    ])
    def test_coupling_and_r_mismatch_rejected(self, coupling, r, other):
        params = explicit_params(20, CrossoverPair(0.1, 0.2), "one", alpha1=0.08,
                                 challenge_bits=4, commit_bits=2,
                                 coupling=coupling, coupling_r=r)
        commit_phase(params, BitVector.zeros(2), make_channel(0.1, 0.2, coupling, r=r),
                     make_rng(5))
        with pytest.raises(CouplingError):
            commit_phase(params, BitVector.zeros(2),
                         make_channel(0.1, 0.2, other[0], r=other[1]), make_rng(5))


class TestListMembership:
    def test_integer_band_n10(self):
        params = explicit_params(10, CrossoverPair(0.1, 0.1), "one",
                                 alpha1=0.05, challenge_bits=1, commit_bits=1)
        y = BitVector.zeros(10)
        # band is [0.5, 1.5]: only distance 1 qualifies
        assert not list_membership(y, y, params)
        one = BitVector([1] + [0] * 9)
        two = BitVector([1, 1] + [0] * 8)
        assert list_membership(one, y, params)
        assert not list_membership(two, y, params)

    def test_band_center(self):
        params, _, session = reference_session(5)
        y = session.bob_view.y
        n, p = params.n, params.pq.p
        flips = round(n * p)
        x = BitVector((y.bits + np.array([1] * flips + [0] * (n - flips))) % 2)
        assert list_membership(x, y, params)

    def test_alpha_monotone(self):
        # enlarging alpha1 never evicts a member
        base = derive_params(100, CrossoverPair(0.1, 0.1), "one", 0.03, 0.05, 0.1)
        wide = derive_params(100, CrossoverPair(0.1, 0.1), "one", 0.12, 0.05, 0.1)
        rng = make_rng(6)
        for _ in range(200):
            x, y = BitVector.random(rng, 100), BitVector.random(rng, 100)
            if list_membership(x, y, base):
                assert list_membership(x, y, wide)

    def test_length_mismatch(self):
        params, _, _ = reference_session(7)
        with pytest.raises(DimensionError):
            list_membership(BitVector.zeros(3), BitVector.zeros(4), params)


class TestBobTest:
    def find_accepting_session(self):
        for seed in range(50):
            params, channel, session = reference_session(seed)
            claim = RevealClaim(session.alice_view.c, session.alice_view.x)
            if bob_test(session.bob_view, session.transcript, claim, params).accepted:
                return params, session, claim
        raise AssertionError("no accepting session found")

    def test_honest_accept(self):
        params, session, claim = self.find_accepting_session()
        result = bob_test(session.bob_view, session.transcript, claim, params)
        assert result.accepted and result.failed_condition is None

    def test_flipped_commit_bit_fails_pad_check(self):
        params, session, claim = self.find_accepting_session()
        flipped = claim.c_tilde ^ BitVector.from_int(1, len(claim.c_tilde))
        result = bob_test(session.bob_view, session.transcript,
                          RevealClaim(flipped, claim.x_tilde), params)
        assert not result.accepted
        assert result.failed_condition == 3

    def test_wrong_x_fails_hash_or_band(self):
        params, session, claim = self.find_accepting_session()
        x_bad = claim.x_tilde ^ BitVector.from_int(1, params.n)
        result = bob_test(session.bob_view, session.transcript,
                          RevealClaim(claim.c_tilde, x_bad), params)
        assert not result.accepted

    def test_random_claims_rejected_at_union_bound_rate(self):
        # n=16, l_g=8: a uniform substitute passes only by hash luck
        # inside the band; compare against 1 - 2^-8 - P(band)
        n, lg = 16, 8
        params = explicit_params(n, CrossoverPair(0.25, 0.25), "one",
                                 alpha1=0.125, challenge_bits=lg, commit_bits=4)
        channel = make_channel(0.25, 0.25)
        rng = make_rng(8)
        c = BitVector.random(rng, 4)
        session = commit_phase(params, c, channel, rng)
        t = session.transcript

        table = hash_all_inputs(t.challenge)
        ext_table = hash_all_inputs(t.extractor)
        y_int = session.bob_view.y.to_int()
        target = np.uint32(t.challenge_value.to_int())
        trials = 10_000
        xs = rng.integers(0, 1 << n, size=trials)
        d = np.bitwise_count(xs.astype(np.uint32) ^ np.uint32(y_int))
        in_band = (d >= n * (0.25 - 0.125)) & (d <= n * (0.25 + 0.125))
        accept = in_band & (table[xs] == target)  # pad condition made consistent
        band_mass = sum(math.comb(n, k) for k in range(2, 7)) / (1 << n)
        assert 1 - accept.mean() >= 1 - 2.0 ** -lg - band_mass

        # spot-check agreement with bob_test on a few claims
        for xi in map(int, xs[:20]):
            x_t = BitVector.from_int(xi, n)
            c_t = t.pad ^ BitVector.from_int(int(ext_table[xi]), 4)
            res = bob_test(session.bob_view, t, RevealClaim(c_t, x_t), params)
            assert res.accepted == bool(accept[list(map(int, xs)).index(xi)])


class TestHonestRun:
    def test_wide_band_always_accepts(self):
        # alpha1 >= max(p, 1/2 - p): every plausible distance in band
        params = derive_params(1000, CrossoverPair(0.1, 0.1), "one",
                               alpha1=0.45, beta1=0.05, beta2=0.1)
        channel = make_channel(0.1, 0.1)
        accepted = [honest_run(params, channel, make_rng(seed))[0]
                    for seed in range(50)]
        assert all(accepted)

    def test_empty_band_always_rejects(self):
        # n=1, p=0.1, alpha1=0.05: the band [0.05, 0.15] holds no integer
        params = explicit_params(1, CrossoverPair(0.1, 0.1), "one",
                                 alpha1=0.05, challenge_bits=1, commit_bits=1)
        channel = make_channel(0.1, 0.1)
        for seed in range(10):
            accepted, _ = honest_run(params, channel, make_rng(seed))
            assert not accepted

    def test_rejection_only_on_band_exit(self):
        params = derive_params(400, CrossoverPair(0.1, 0.1), "one",
                               alpha1=0.03, beta1=0.05, beta2=0.1)
        channel = make_channel(0.1, 0.1)
        for seed in range(30):
            accepted, session = honest_run(params, channel, make_rng(seed))
            in_band = list_membership(session.alice_view.x, session.bob_view.y, params)
            assert accepted == in_band


class TestParamsConfig:
    def test_derived_roundtrip(self):
        params = derive_params(150, CrossoverPair(0.15, 0.3), "one",
                               alpha1=0.06, beta1=0.04, beta2=0.09,
                               coupling="custom", coupling_r=0.1)
        from wiretap_commit.protocol import params_from_config
        again = params_from_config(params.to_config())
        assert again == params

    def test_explicit_roundtrip(self):
        params = explicit_params(16, CrossoverPair(0.25, 0.25), "one",
                                 alpha1=0.125, challenge_bits=8, commit_bits=4)
        from wiretap_commit.protocol import params_from_config
        again = params_from_config(params.to_config())
        assert again == params and not again.achievable


class TestSerialization:
    def test_roundtrip_through_json(self):
        params, _, session = reference_session(11)
        doc = json.loads(json.dumps(session_to_config(session, params)))
        loaded = session_from_config(doc)
        assert loaded["params"].to_config() == params.to_config()
        assert loaded["transcript"] == session.transcript
        assert loaded["bob_view"] == session.bob_view
        assert loaded["eve_view"] == session.eve_view
        claim = loaded["claim"]
        assert claim.x_tilde == session.alice_view.x
        assert claim.c_tilde == session.alice_view.c
        direct = bob_test(session.bob_view, session.transcript,
                          RevealClaim(session.alice_view.c, session.alice_view.x), params)
        replayed = bob_test(loaded["bob_view"], loaded["transcript"], claim,
                            loaded["params"])
        assert direct == replayed

    def test_document_schema(self):
        params, _, session = reference_session(12)
        doc = session_to_config(session, params)
        assert set(doc) == {"params", "G", "g_bar", "Ext", "Q", "y", "z", "x", "c"}
        assert set(doc["G"]) == {"n", "l", "seed"}
