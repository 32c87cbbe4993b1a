"""Information measures against frozen high-precision oracles.

Oracle constants were evaluated with 40-digit arithmetic directly from
the defining formulas (entropy sums, binary convolution) and frozen
here; the implementation must agree to near machine precision.
"""

import math

import numpy as np
import pytest

from wiretap_commit.channel import make_channel
from wiretap_commit.errors import DomainError
from wiretap_commit.measures import (
    CrossoverPair,
    binary_convolution,
    binary_deconvolution,
    binary_entropy,
    capacity_one_private,
    capacity_two_private,
    rate_bound_one_private,
    rate_bound_two_private,
)

from measures_reference import CoordinateError, Pmf, conditional_entropy, one_shot_joint

H_011 = 0.49991595816452799564
H_01 = 0.46899559358928122125
H_02 = 0.72192809488736234787
H_025 = 0.81127812445913286391
H_03 = 0.88129089923069261822
H_026 = 0.82674637249261789546
H_0375 = 0.95443400292496496454
C2_01_02 = 0.36417731598402567366
C2_025_025 = 0.66812224599330076328


class TestBinaryEntropy:
    @pytest.mark.parametrize("p,expected", [
        (0.5, 1.0),
        (0.0, 0.0),
        (1.0, 0.0),
        (0.11, H_011),
        (0.1, H_01),
        (0.2, H_02),
    ])
    def test_values(self, p, expected):
        assert binary_entropy(p) == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("p", [-0.1, 1.1, 2.0])
    def test_domain(self, p):
        with pytest.raises(DomainError):
            binary_entropy(p)

    def test_symmetry_and_concavity(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            a, b = rng.random(2)
            assert binary_entropy(a) == pytest.approx(binary_entropy(1 - a), abs=1e-12)
            mid = binary_entropy((a + b) / 2)
            assert mid >= (binary_entropy(a) + binary_entropy(b)) / 2 - 1e-12


class TestBinaryConvolution:
    @pytest.mark.parametrize("p,q,expected", [
        (0.5, 0.3, 0.5),
        (0.0, 0.37, 0.37),
        (0.1, 0.2, 0.26),
    ])
    def test_values(self, p, q, expected):
        assert binary_convolution(p, q) == pytest.approx(expected, abs=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            binary_convolution(-0.1, 0.2)
        with pytest.raises(DomainError):
            binary_convolution(0.1, 1.2)

    def test_algebra(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            a, b, c = rng.random(3)
            assert binary_convolution(a, b) == pytest.approx(
                binary_convolution(b, a), abs=1e-12)
            assert binary_convolution(binary_convolution(a, b), c) == pytest.approx(
                binary_convolution(a, binary_convolution(b, c)), abs=1e-12)
            assert binary_convolution(a, 0.0) == pytest.approx(a, abs=1e-12)
            assert binary_convolution(a, 0.5) == pytest.approx(0.5, abs=1e-12)


class TestBinaryDeconvolution:
    def test_inverts_binary_convolution(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            b, theta = 0.45 * rng.random(2)
            a = binary_convolution(b, theta)
            assert binary_deconvolution(a, b) == pytest.approx(theta, rel=0, abs=1e-14)
            assert binary_convolution(b, binary_deconvolution(a, b)) == pytest.approx(
                a, rel=0, abs=1e-15)

    def test_arrays_equal_scalars(self):
        a, b = np.meshgrid(np.linspace(0.05, 0.45, 9), np.linspace(0.01, 0.49, 7))
        got = binary_deconvolution(a, b)
        assert got.tolist() == [[binary_deconvolution(x, y) for x, y in zip(*row)]
                                for row in zip(a.tolist(), b.tolist())]


class TestCapacities:
    def test_one_private(self):
        assert capacity_one_private(CrossoverPair(0.1, 0.2)) == pytest.approx(H_01, abs=1e-14)
        assert capacity_one_private(CrossoverPair(0.3, 0.1)) == pytest.approx(H_01, abs=1e-14)
        for p in (0.05, 0.2, 0.45):
            assert capacity_one_private(CrossoverPair(p, p)) == pytest.approx(
                binary_entropy(p), abs=1e-15)

    def test_two_private(self):
        assert capacity_two_private(CrossoverPair(0.1, 0.2)) == pytest.approx(
            C2_01_02, abs=1e-14)
        assert capacity_two_private(CrossoverPair(0.25, 0.25)) == pytest.approx(
            C2_025_025, abs=1e-14)

    def test_two_private_vanishes_with_p(self):
        # as p -> 0 the two-private capacity collapses
        assert capacity_two_private(CrossoverPair(1e-6, 0.2)) == pytest.approx(0.0, abs=1e-4)

    def test_ordering_on_grid(self):
        for p in np.linspace(0.05, 0.45, 9):
            for q in np.linspace(0.05, 0.45, 9):
                pq = CrossoverPair(float(p), float(q))
                c1, c2 = capacity_one_private(pq), capacity_two_private(pq)
                assert c2 <= c1 + 1e-12
                if abs(p - q) > 1e-9:
                    assert c2 < c1

    def test_crossover_pair_domain(self):
        for bad in ((0.0, 0.1), (0.5, 0.1), (0.1, 0.5), (-0.1, 0.1), (0.1, 0.7)):
            with pytest.raises(DomainError):
                CrossoverPair(*bad)


class TestRateBounds:
    def test_one_private_branches(self):
        # Bob degraded w.r.t. Eve (p >= q): bound H(q)
        assert rate_bound_one_private(CrossoverPair(0.3, 0.1)) == pytest.approx(H_01, abs=1e-14)
        # not degraded: bound H(p)
        assert rate_bound_one_private(CrossoverPair(0.1, 0.3)) == pytest.approx(H_01, abs=1e-14)
        assert rate_bound_one_private(CrossoverPair(0.2, 0.2)) == pytest.approx(H_02, abs=1e-14)

    def test_two_private_independent_matches_formula(self):
        ch = make_channel(0.1, 0.2, "independent")
        assert rate_bound_two_private(ch) == pytest.approx(C2_01_02, abs=1e-10)

    def test_two_private_degraded_collapses_to_hp(self):
        # z adds nothing given y under the X-Y-Z chain
        q = binary_convolution(0.1, 0.25)
        ch = make_channel(0.1, q, "degraded")
        assert rate_bound_two_private(ch) == pytest.approx(H_01, abs=1e-10)

    def test_two_private_against_explicit_joint(self):
        # independent oracle: sweep the one-shot joint pmf directly
        ch = make_channel(0.15, 0.35, "independent")
        best = max(
            conditional_entropy(one_shot_joint(ch, t), (0,), (1, 2))
            for t in np.linspace(0.0, 1.0, 201)
        )
        rb = rate_bound_two_private(ch)
        assert rb >= best - 1e-12
        assert rb == pytest.approx(best, abs=1e-6)

    def test_degenerate_input_scores_zero(self):
        ch = make_channel(0.1, 0.2, "independent")
        assert conditional_entropy(one_shot_joint(ch, 0.0), (0,), (1, 2)) == pytest.approx(
            0.0, abs=1e-12)
        assert conditional_entropy(one_shot_joint(ch, 1.0), (0,), (1, 2)) == pytest.approx(
            0.0, abs=1e-12)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _cond_entropy_xyz(noise_pmf: np.ndarray, t):
    """H(X|Y,Z) for input bias t and 4-vector noise pmf over (N_B,N_E).

    Vectorized in t.  For outputs (y,z) the two joint cells are
    (1-t) * pi(y, z) for x=0 and t * pi(1^y, 1^z) for x=1.
    """
    t = np.asarray(t, dtype=float)
    pi = noise_pmf.reshape(2, 2)
    total = np.zeros_like(t)
    for y in (0, 1):
        for z in (0, 1):
            a = (1.0 - t) * pi[y, z]
            b = t * pi[1 - y, 1 - z]
            s = a + b
            with np.errstate(divide="ignore", invalid="ignore"):
                term = np.where(a > 0, -a * np.log2(np.where(a > 0, a, 1.0) / np.where(s > 0, s, 1.0)), 0.0)
                term = term + np.where(b > 0, -b * np.log2(np.where(b > 0, b, 1.0) / np.where(s > 0, s, 1.0)), 0.0)
            total = total + term
    return total


def _reference_rate_bound_two_private(channel):
    """max over P_X of H(X|Y,Z) by search: a uniform 1001-point grid of
    P_X(1), refined by golden-section search around the best grid point.
    Returns (value, argmax)."""
    noise = np.asarray(channel.noise_pair_pmf(), dtype=float)

    def f(t):
        return float(_cond_entropy_xyz(noise, t))

    grid = np.linspace(0.0, 1.0, 1001)
    k = int(np.argmax(_cond_entropy_xyz(noise, grid)))
    a = grid[max(k - 1, 0)]
    b = grid[min(k + 1, len(grid) - 1)]
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-12:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    t_star = 0.5 * (a + b)
    return f(t_star), t_star


def _converse_channels(family):
    """400 independent, 64 degraded and 98 custom channels (562 in all)."""
    if family == "independent":
        axis = np.linspace(0.05, 0.45, 20)
        return [make_channel(float(p), float(q)) for p in axis for q in axis]
    if family == "degraded":
        return [make_channel(float(p), binary_convolution(float(p), float(theta)), "degraded")
                for p in np.linspace(0.02, 0.4, 8)
                for theta in np.linspace(0.01, 0.45, 8)]
    # custom r at both Frechet ends: r = 0 and r = min(p, q) leave zero
    # cells in the noise pmf (two of them when p == q)
    axis = np.linspace(0.05, 0.45, 7)
    return [make_channel(float(p), float(q), "custom", r=r)
            for p in axis for q in axis
            for r in (0.0, float(min(p, q)))]


class TestClosedFormConverse:
    """rate_bound_two_private is a closed form; the search it replaced
    stays here as the reference."""

    @pytest.mark.parametrize("family", ["independent", "degraded", "custom"])
    def test_matches_search(self, family):
        for ch in _converse_channels(family):
            value, t_star = _reference_rate_bound_two_private(ch)
            rb = rate_bound_two_private(ch)
            assert abs(rb - value) <= 1e-12, (ch, rb, value)
            assert abs(t_star - 0.5) < 1e-6, (ch, t_star)

    def test_frechet_ends_have_zero_noise_cells(self):
        ends = _converse_channels("custom")
        assert len(ends) == 98
        assert all(0.0 in ch.noise_pair_pmf() for ch in ends)
        assert len(_converse_channels("independent")) + len(
            _converse_channels("degraded")) + len(ends) >= 500


def bsc_joint(p: float, px1: float = 0.5) -> Pmf:
    return Pmf({
        (0, 0): (1 - px1) * (1 - p),
        (0, 1): (1 - px1) * p,
        (1, 0): px1 * p,
        (1, 1): px1 * (1 - p),
    }.items())


class TestConditionalEntropy:
    def test_independent_pair(self):
        joint = Pmf({(x, y): 0.5 * (0.3 if y else 0.7) for x in (0, 1) for y in (0, 1)}.items())
        assert conditional_entropy(joint, (0,), (1,)) == pytest.approx(1.0, abs=1e-12)

    def test_copy_channel(self):
        joint = Pmf([((0, 0), 0.5), ((1, 1), 0.5)])
        assert conditional_entropy(joint, (0,), (1,)) == pytest.approx(0.0, abs=1e-12)

    def test_bsc_closed_form(self):
        assert conditional_entropy(bsc_joint(0.1), (0,), (1,)) == pytest.approx(H_01, abs=1e-12)

    def test_coordinate_errors(self):
        joint = bsc_joint(0.1)
        with pytest.raises(CoordinateError):
            conditional_entropy(joint, (0,), (0,))
        with pytest.raises(CoordinateError):
            conditional_entropy(joint, (2,), (1,))


class TestPmfValidation:
    def test_sum_tolerance(self):
        Pmf([("a", 0.5 + 4e-13), ("b", 0.5)])  # renormalized
        with pytest.raises(DomainError):
            Pmf([("a", 0.52), ("b", 0.5)])

    def test_negative(self):
        with pytest.raises(DomainError):
            Pmf([("a", -0.1), ("b", 1.1)])

    def test_duplicate_label(self):
        with pytest.raises(DomainError):
            Pmf([("a", 0.5), ("a", 0.5)])
