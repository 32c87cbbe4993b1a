"""Channel couplings: marginals, Markov structure, degradation, and
Monte Carlo concentration against binomial oracles."""

import math

import numpy as np
import pytest

from wiretap_commit.bits import BitVector
from wiretap_commit.channel import (
    degradation_check,
    eve_degrade,
    make_channel,
    transmit,
)
from wiretap_commit.errors import CouplingError, DomainError
from wiretap_commit.measures import binary_convolution, binary_entropy
from wiretap_commit.rng import make_rng

from measures_reference import (
    conditional_entropy,
    conditional_mutual_information,
    one_shot_joint,
)


class TestMakeChannel:
    def test_independent_product_coupling(self):
        ch = make_channel(0.1, 0.2, "independent")
        assert ch.r == pytest.approx(0.02, abs=1e-15)

    def test_degraded_solves_theta(self):
        q = binary_convolution(0.1, 0.25)   # 0.275
        ch = make_channel(0.1, q, "degraded")
        assert ch.theta == pytest.approx(0.25, abs=1e-12)
        assert ch.r == pytest.approx(0.1 * 0.75, abs=1e-12)

    def test_degraded_needs_noisier_eve(self):
        with pytest.raises(CouplingError):
            make_channel(0.3, 0.1, "degraded")

    def test_custom_frechet_bounds(self):
        make_channel(0.1, 0.2, "custom", r=0.1)      # r = min(p, q) is allowed
        make_channel(0.1, 0.2, "custom", r=0.0)      # lower edge
        with pytest.raises(CouplingError):
            make_channel(0.1, 0.2, "custom", r=0.15)
        with pytest.raises(CouplingError):
            make_channel(0.4, 0.45, "custom", r=-0.01)

    def test_interior_crossovers_required(self):
        with pytest.raises(DomainError):
            make_channel(0.0, 0.2)
        with pytest.raises(DomainError):
            make_channel(0.2, 0.5)

    def test_noise_pmf_marginals_exact(self):
        for ch in (
            make_channel(0.1, 0.2, "independent"),
            make_channel(0.1, 0.3, "degraded"),
            make_channel(0.2, 0.3, "custom", r=0.15),
        ):
            p00, p01, p10, p11 = ch.noise_pair_pmf()
            assert p00 + p01 + p10 + p11 == pytest.approx(1.0, abs=1e-12)
            assert p10 + p11 == pytest.approx(ch.p, abs=1e-12)
            assert p01 + p11 == pytest.approx(ch.q, abs=1e-12)


class TestTransmit:
    def test_near_noiseless(self):
        ch = make_channel(1e-9, 1e-9, "independent")
        rng = make_rng(0)
        x = BitVector.random(rng, 100)
        for _ in range(10):
            y, z = transmit(ch, x, rng)
            assert y == x and z == x

    def test_empirical_rates_independent(self):
        n = 100_000
        ch = make_channel(0.1, 0.2, "independent")
        rng = make_rng(1)
        x = BitVector.random(rng, n)
        y, z = transmit(ch, x, rng)
        nb = x.bits ^ y.bits
        ne = x.bits ^ z.bits
        for rate, prob in ((nb.mean(), 0.1), (ne.mean(), 0.2), ((nb & ne).mean(), 0.02)):
            sigma = math.sqrt(prob * (1 - prob) / n)
            assert abs(rate - prob) < 4 * sigma

    def test_empirical_theta_degraded(self):
        n = 100_000
        ch = make_channel(0.1, binary_convolution(0.1, 0.25), "degraded")
        rng = make_rng(2)
        x = BitVector.random(rng, n)
        y, z = transmit(ch, x, rng)
        rate = (y.bits ^ z.bits).mean()
        sigma = math.sqrt(0.25 * 0.75 / n)
        assert abs(rate - 0.25) < 4 * sigma

    def test_memorylessness_autocorrelation(self):
        n = 100_000
        ch = make_channel(0.2, 0.3, "custom", r=0.15)
        rng = make_rng(3)
        x = BitVector.zeros(n)
        y, _ = transmit(ch, x, rng)
        noise = y.bits.astype(float)
        a, b = noise[:-1] - noise.mean(), noise[1:] - noise.mean()
        corr = float((a * b).mean()) / float(noise.var())
        assert abs(corr) < 4 / math.sqrt(n)

    def test_reproducibility(self):
        ch = make_channel(0.1, 0.2, "independent")
        x = BitVector.random(make_rng(4), 500)
        y1, z1 = transmit(ch, x, make_rng(5))
        y2, z2 = transmit(ch, x, make_rng(5))
        assert y1 == y2 and z1 == z2


class TestConditionalLaws:
    @pytest.mark.parametrize("p,q,coupling,r", [
        (0.1, 0.2, "independent", None), (0.3, 0.45, "independent", None),
        (0.1, 0.2, "degraded", None), (0.05, 0.05, "degraded", None),
        (0.3, 0.45, "degraded", None), (0.1, 0.2, "custom", 0.0),
        (0.1, 0.2, "custom", 0.05), (0.1, 0.2, "custom", 0.1),
        (0.45, 0.3, "custom", 0.2),
    ])
    def test_match_the_noise_pmf(self, p, q, coupling, r):
        ch = make_channel(p, q, coupling, r=r)
        p00, p01, p10, p11 = ch.noise_pair_pmf()
        assert ch.eve_given_bob() == pytest.approx(
            (p01 / (p00 + p01), p11 / (p10 + p11)), rel=0, abs=1e-15)
        assert ch.bob_given_eve() == pytest.approx(
            (p10 / (p00 + p10), p11 / (p01 + p11)), rel=0, abs=1e-15)


class TestDegradationCheck:
    def test_solves_composition(self):
        theta = degradation_check(0.3, 0.1)
        assert theta == pytest.approx(0.25, abs=1e-12)
        assert binary_convolution(0.1, theta) == pytest.approx(0.3, abs=1e-12)

    def test_identity_degradation(self):
        assert degradation_check(0.2, 0.2) == pytest.approx(0.0, abs=1e-15)

    def test_less_noisy_target_absent(self):
        assert degradation_check(0.1, 0.3) is None


class TestEveDegrade:
    def test_theta_zero_is_identity(self):
        z = BitVector.random(make_rng(6), 64)
        assert eve_degrade(z, 0.0, make_rng(7)) == z

    def test_one_shot_composition_brute_force(self):
        # enumerate (x, eve noise, simulation noise) for one symbol
        q, theta = 0.1, 0.25
        mismatch = 0.0
        for x in (0, 1):
            for ne in (0, 1):
                for ns in (0, 1):
                    pr = 0.5 * (q if ne else 1 - q) * (theta if ns else 1 - theta)
                    y_tilde = x ^ ne ^ ns
                    if y_tilde != x:
                        mismatch += pr
        assert mismatch == pytest.approx(binary_convolution(q, theta), abs=1e-15)
        assert mismatch == pytest.approx(0.3, abs=1e-15)

    def test_monte_carlo_matches_composition(self):
        n = 100_000
        q, theta = 0.1, 0.25
        ch = make_channel(0.3, q, "custom", r=0.05)
        rng = make_rng(8)
        x = BitVector.random(rng, n)
        _, z = transmit(ch, x, rng)
        y_tilde = eve_degrade(z, theta, rng)
        rate = (y_tilde.bits ^ x.bits).mean()
        target = binary_convolution(q, theta)
        sigma = math.sqrt(target * (1 - target) / n)
        assert abs(rate - target) < 4 * sigma

    def test_domain(self):
        z = BitVector.zeros(4)
        with pytest.raises(DomainError):
            eve_degrade(z, 0.5, make_rng(9))


class TestOneShotJoint:
    def test_markov_structure_on_grid(self):
        grid = np.linspace(0.05, 0.45, 5)
        for p in grid:
            for q in grid:
                ch_i = make_channel(float(p), float(q), "independent")
                joint = one_shot_joint(ch_i, 0.5)
                assert conditional_mutual_information(joint, (1,), (2,), (0,)) == pytest.approx(
                    0.0, abs=1e-12)
                if q >= p:
                    ch_d = make_channel(float(p), float(q), "degraded")
                    joint = one_shot_joint(ch_d, 0.5)
                    assert conditional_mutual_information(joint, (0,), (2,), (1,)) == pytest.approx(
                        0.0, abs=1e-12)

    def test_matches_two_private_formula(self):
        ch = make_channel(0.1, 0.2, "independent")
        joint = one_shot_joint(ch, 0.5)
        expected = (binary_entropy(0.1) + binary_entropy(0.2)
                    - binary_entropy(binary_convolution(0.1, 0.2)))
        assert conditional_entropy(joint, (0,), (1, 2)) == pytest.approx(expected, abs=1e-10)

    def test_marginals_exact_every_coupling(self):
        for ch in (
            make_channel(0.15, 0.35, "independent"),
            make_channel(0.15, 0.35, "degraded"),
            make_channel(0.15, 0.35, "custom", r=0.12),
        ):
            joint = one_shot_joint(ch, 0.37)
            d = joint.as_dict()
            flip_b = sum(d[(x, y, z)] for x in (0, 1) for y in (0, 1) for z in (0, 1)
                         if x != y)
            flip_e = sum(d[(x, y, z)] for x in (0, 1) for y in (0, 1) for z in (0, 1)
                         if x != z)
            assert flip_b == pytest.approx(ch.p, abs=1e-12)
            assert flip_e == pytest.approx(ch.q, abs=1e-12)

    def test_px_domain(self):
        ch = make_channel(0.1, 0.2)
        with pytest.raises(DomainError):
            one_shot_joint(ch, 1.2)

