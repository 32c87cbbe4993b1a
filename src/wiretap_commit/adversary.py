"""Attack strategies and security estimators.

Four measurements back the protocol's guarantees at desk scale:

* soundness      — honest-rejection rate against the Hoeffding
                   reference 2 exp(-2 n alpha1^2);
* binding        — a cheating Alice enumerates reveal claims that pass
                   the hash challenge and wins when two of them with
                   distinct commit strings land in Bob's distance band;
                   exhaustive candidate enumeration doubles as the
                   oracle for the union-bound ceiling |A|^2 2^-l;
* concealment    — exact statistical distance and mutual information
                   between the commit bit and a view (Bob's, Eve's, or
                   their union) at tiny n, with a leftover-hash
                   reference bound from the exact conditional
                   min-entropy; each challenge hash G is evaluated on
                   K = ker G alone, one row per distinct pad pattern on
                   K and one view column per K-orbit, weighted by their
                   multiplicities (2^n columns per G seed in all); one
                   popcount kernel serves all three views, the joint
                   view's columns being (y, w = y XOR z);
* concealment MC — a sampled lower bound on the same distance via the
                   advantage of a MAP distinguisher trained on an
                   independent sample, for sizes beyond enumeration.

Exhaustive routines index words by their big-endian integer encoding
and refuse n > 20.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bits import BitVector
from .errors import DomainError, ScaleError
from .hashing import _packed_table, hash_all_inputs, lhl_bound
from .parallel import map_trials
from .protocol import ProtocolParams, SessionState, _check_channel, _commit_draws
from .rng import make_rng, trial_seeds

ENUM_LIMIT = 20           # exhaustive search over {0,1}^n
EXACT_MARGINAL_LIMIT = 8  # exact concealment, single-party views
EXACT_JOINT_LIMIT = 6     # exact concealment, joint view: 2^(n+l_G-1) seeds x 4^n entries
EXACT_SEED_LIMIT = 14     # exact concealment, n + l_G

_Z95 = 1.959963984540054


def wilson_interval(successes: int, trials: int, z: float = _Z95):
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise DomainError("trials must be >= 1")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class SecurityReport:
    """One measured security metric plus its analytic reference."""

    metric: str
    estimate: float
    ci_lo: Optional[float] = None
    ci_hi: Optional[float] = None
    exact: bool = False
    trials: int = 0
    reference_bound: Optional[float] = None
    seed: Optional[int] = None
    n: Optional[int] = None
    p: Optional[float] = None
    q: Optional[float] = None
    coupling: Optional[str] = None
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.exact and self.trials:
            raise DomainError("exact reports carry no trial count")

    def to_record(self) -> dict:
        """Flat record for CSV/JSON emission (details excluded)."""
        return {
            "metric": self.metric,
            "estimate": self.estimate,
            "ci_lo": self.ci_lo,
            "ci_hi": self.ci_hi,
            "reference_bound": self.reference_bound,
            "n": self.n,
            "p": self.p,
            "q": self.q,
            "coupling": self.coupling,
            "seed": self.seed,
        }


def _report_context(params: ProtocolParams) -> dict:
    return {
        "n": params.n,
        "p": params.pq.p,
        "q": params.pq.q,
        "coupling": params.coupling,
    }


# ---------------------------------------------------------------------------
# soundness


def _soundness_worker(payload, seeds) -> np.ndarray:
    """Per-trial honest-rejection indicators.

    For an honest reveal the hash and pad conditions hold identically,
    so a trial rejects exactly when the Bob-side flip count leaves the
    distance band.  The flip count is read off the channel stream of
    trial i, seeds.child(i, 2) = SeedSequence(seed, spawn_key=(i, 2)),
    which is make_rng(seeds[i]).spawn(3)[2], the stream a full
    honest_run on trial seed i hands to the channel.  So indicators
    match full protocol runs trial for trial, and a trial builds one
    Philox generator instead of four.
    """
    n, p, alpha1 = payload
    lo, hi = n * (p - alpha1), n * (p + alpha1)
    out = np.empty(len(seeds), dtype=np.uint8)
    for i in range(len(seeds)):
        u = make_rng(seeds.child(i, 2)).random((n, 2))
        d = np.count_nonzero(u[:, 0] < p)
        out[i] = 0 if lo <= d <= hi else 1
    return out


def estimate_soundness(params: ProtocolParams, channel, trials: int,
                       seed: int, threads: int = 1) -> SecurityReport:
    """Empirical honest-rejection rate with Wilson 95% interval.

    Reference bound: the two-sided Hoeffding tail 2 exp(-2 n alpha1^2)
    on the flip count leaving the band.
    """
    if trials < 1:
        raise DomainError("trials must be >= 1")
    _check_channel(params, channel)
    payload = (params.n, params.pq.p, params.alpha1)
    rejects = map_trials(_soundness_worker, payload, trial_seeds(seed, trials), threads)
    k = int(rejects.sum())
    lo, hi = wilson_interval(k, trials)
    return SecurityReport(
        metric="soundness_rejection_rate",
        estimate=k / trials,
        ci_lo=lo, ci_hi=hi,
        trials=trials,
        reference_bound=min(1.0, 2.0 * math.exp(-2.0 * params.n * params.alpha1 ** 2)),
        seed=seed,
        details={"rejections": k},
        **_report_context(params),
    )


# ---------------------------------------------------------------------------
# confusable sets and binding


@dataclass(frozen=True)
class ConfusableSet:
    """Candidates passing the distance band and the hash challenge.

    Members are big-endian integer encodings of the candidate words.
    eta_hat is log2(max(|A|, 1)) / n, the measured exponent of the
    set size.
    """

    n: int
    members: np.ndarray
    eta_hat: float

    @property
    def size(self) -> int:
        return int(self.members.size)

    def as_bitvectors(self):
        return [BitVector.from_int(int(m), self.n) for m in self.members]


def _check_enum_scale(n: int):
    if n > ENUM_LIMIT:
        raise ScaleError(f"exhaustive enumeration limited to n <= {ENUM_LIMIT}, got {n}")


def _band_mask(n: int, p: float, alpha1: float, y_int: int) -> np.ndarray:
    d = np.bitwise_count(np.arange(1 << n, dtype=np.uint32) ^ np.uint32(y_int))
    return (d >= n * (p - alpha1)) & (d <= n * (p + alpha1))


def enumerate_confusables(session: SessionState, params: ProtocolParams) -> ConfusableSet:
    """Exhaustive confusable set for the session's realized y."""
    _check_enum_scale(params.n)
    t = session.transcript
    hashes = hash_all_inputs(t.challenge)
    target = np.uint32(t.challenge_value.to_int())
    mask = _band_mask(params.n, params.pq.p, params.alpha1,
                      session.bob_view.y.to_int()) & (hashes == target)
    members = np.nonzero(mask)[0].astype(np.uint32)
    eta_hat = math.log2(max(members.size, 1)) / params.n
    return ConfusableSet(n=params.n, members=members, eta_hat=eta_hat)


def _binding_worker(payload, seeds) -> np.ndarray:
    """Per-trial (success, |A|) for fresh y draws against a fixed commit.

    Bob's word is redrawn from the noise law conditioned on what the
    attacker knows: nothing beyond x when alone, Eve's flips as well
    when colluding.  The same uniforms drive both modes, so couplings
    with independent noise produce identical draws in either mode.
    Only words with the committed hash value can be members, so the
    band test runs over those candidates, found once per call.
    """
    (n, p, q, r, alpha1, x_int, ne_bits, hashes, target, ext_all, thresh_mode) = payload
    lo, hi = n * (p - alpha1), n * (p + alpha1)
    if thresh_mode == "alone":
        thresh = np.full(n, p)
    else:
        cond1 = r / q              # P(N_B=1 | N_E=1)
        cond0 = (p - r) / (1.0 - q)  # P(N_B=1 | N_E=0)
        thresh = np.where(ne_bits == 1, cond1, cond0)
    candidates = np.flatnonzero(hashes == target).astype(np.uint32)
    candidate_ext = ext_all[candidates]
    weights = (1 << np.arange(n - 1, -1, -1)).astype(np.uint64)
    out = np.empty((len(seeds), 2), dtype=np.int64)
    for i in range(len(seeds)):
        nb = (make_rng(seeds[i]).random(n) < thresh).astype(np.uint64)
        y_int = np.uint32(x_int) ^ np.uint32((nb * weights).sum())
        d = np.bitwise_count(candidates ^ y_int)
        member_ext = candidate_ext[(d >= lo) & (d <= hi)]
        # two members with distinct extractor outputs make two claims
        out[i, 0] = 1 if (member_ext != member_ext[:1]).any() else 0
        out[i, 1] = member_ext.size
    return out


def binding_attack(session: SessionState, params: ProtocolParams, channel,
                   mode: str = "alone", trials: int = 1000, seed: int = 0,
                   threads: int = 1) -> SecurityReport:
    """Success rate of the hash-collision binding attack on one commit.

    Alice (with Eve's z when mode="with_eve") fixes her commit-phase
    view and tries to reveal two claims with distinct commit strings.
    Success in a trial: the confusable set of the drawn y holds two
    candidates whose extractor outputs differ, i.e. both claims pass
    all three reveal conditions.  Reference bound: the union-bound
    exponent 2^(-n(beta1 - 2 eta_hat)) with eta_hat measured from the
    mean confusable-set size.
    """
    if mode not in ("alone", "with_eve"):
        raise DomainError(f"mode must be 'alone' or 'with_eve', got {mode!r}")
    if trials < 1:
        raise DomainError("trials must be >= 1")
    _check_enum_scale(params.n)
    _check_channel(params, channel)
    t = session.transcript
    x = session.alice_view.x
    ne_bits = session.eve_view.z.bits ^ x.bits
    payload = (
        params.n, params.pq.p, params.pq.q, channel.r, params.alpha1,
        x.to_int(), ne_bits,
        hash_all_inputs(t.challenge), np.uint32(t.challenge_value.to_int()),
        hash_all_inputs(t.extractor), mode,
    )
    stats = map_trials(_binding_worker, payload, trial_seeds(seed, trials), threads)
    successes = int(stats[:, 0].sum())
    sizes = stats[:, 1].astype(float)
    ceilings = np.minimum(1.0, sizes ** 2 * 2.0 ** (-params.challenge_bits))
    eta_hat = math.log2(max(float(sizes.mean()), 1.0)) / params.n
    beta_prime = params.beta1 - 2.0 * eta_hat
    lo, hi = wilson_interval(successes, trials)
    return SecurityReport(
        metric=f"binding_success_{mode}",
        estimate=successes / trials,
        ci_lo=lo, ci_hi=hi,
        trials=trials,
        reference_bound=min(1.0, 2.0 ** (-params.n * beta_prime)),
        seed=seed,
        details={
            "mean_confusables": float(sizes.mean()),
            "max_confusables": int(sizes.max()),
            "eta_hat": eta_hat,
            "beta_prime": beta_prime,
            "beta1_exceeds_2eta": params.beta1 > 2.0 * eta_hat,
            "mean_ceiling": float(ceilings.mean()),
            "success_indicators": stats[:, 0].astype(np.uint8),
            "confusable_sizes": stats[:, 1].copy(),
        },
        **_report_context(params),
    )


# ---------------------------------------------------------------------------
# concealment and secrecy, exact


VIEWS = ("bob", "eve", "joint")


def _noise_table(n: int, pmf) -> np.ndarray:
    """T[a, b, c]: probability of block flips (N_B, N_E) with |N_B| = a,
    |W| = b and |N_B AND W| = c, W = N_B XOR N_E, under the per-symbol
    pmf (P(0,0), P(0,1), P(1,0), P(1,1)).  Zero pmf entries give exact
    zeros (0.0**0 == 1); infeasible triples get exponents clipped to 0."""
    p00, p01, p10, p11 = pmf
    a, b, c = np.ogrid[:n + 1, :n + 1, :n + 1]
    e11, e00, e10, e01 = (np.clip(e, 0, None).astype(np.float64)
                          for e in (a - c, n - a - b + c, c, b - c))
    return p11 ** e11 * p00 ** e00 * p10 ** e10 * p01 ** e01


def _kernel(table: np.ndarray, x: np.ndarray, y: np.ndarray,
            w: np.ndarray) -> np.ndarray:
    """k[x, (y, w)] = T[|x XOR y|, |w|, |(x XOR y) AND w|]: the chance
    that x reaches the view as y (and as z = y XOR w at Eve for the
    joint view).  Columns run over y, then w."""
    d = x[:, None, None] ^ y[None, :, None]
    return table[np.bitwise_count(d), np.bitwise_count(w),
                 np.bitwise_count(d & w)].reshape(x.size, -1)


def _exact_scale_check(params: ProtocolParams, views):
    if params.commit_bits != 1:
        raise ScaleError("exact concealment requires commit_bits == 1")
    limit = EXACT_JOINT_LIMIT if "joint" in views else EXACT_MARGINAL_LIMIT
    if params.n > limit:
        raise ScaleError(
            f"exact concealment over views {views} limited to n <= {limit}, "
            f"got n = {params.n}"
        )
    if params.n + params.challenge_bits > EXACT_SEED_LIMIT:
        raise ScaleError(
            f"challenge seed space too large: need n + l_g <= {EXACT_SEED_LIMIT}")


def _mi_rows(m0: np.ndarray, m1: np.ndarray) -> np.ndarray:
    """Per row: the sum of M0 lg(M0/mu) + M1 lg(M1/mu), mu the average."""
    mu = 0.5 * (m0 + m1)
    total = np.zeros(m0.shape[0])
    for m in (m0, m1):
        # entries with m = 0 add 0 lg 1
        ratio = np.divide(m, mu, out=np.ones_like(m), where=m > 0.0)
        total += (m * np.log2(ratio)).sum(axis=1)
    return total


def _all_seed_tables(n: int, l: int) -> np.ndarray:
    """Row s: the packed table of the (n -> l) Toeplitz hash whose seed
    is the big-endian expansion of s, on every word."""
    m = n + l - 1
    seeds = (np.arange(1 << m)[:, None] >> np.arange(m - 1, -1, -1)) & 1
    return np.array([_packed_table(seed, n, l) for seed in seeds.astype(np.uint8)])


def concealment_exact(params: ProtocolParams, channel, views=VIEWS,
                      uniform_pad: bool = False) -> dict:
    """Exact leakage of the commit bit into each requested view.

    Reports per view the statistical distance between the conditional
    view distributions under c=0 and c=1 and the mutual information
    between the commit bit and the view, averaged exactly over x, the
    noise and every G and Ext seed.  The reference bound on the distance
    is twice the leftover-hash bound at the exact conditional
    min-entropy of x given the view without the pad.

    G and Ext are linear and the noise is additive, so for one G seed
    with kernel K = ker G only a few entries of the pad-difference
    matrix d[Ext seed, view] are distinct:

    * Cosets.  Each non-empty coset {x : G(x) = gamma} is x0 XOR K;
      moving from K to it shifts every channel output by x0 and at most
      flips the sign of d (by Ext(x0)).  So K stands for all 2^rank(G)
      cosets.
    * Rows.  Restricted to K, the 2^n extractor functionals take only
      2^dim(K) distinct sign patterns, each 2^rank(G) times.  Each
      distinct row of the sign matrix is evaluated once and weighted by
      its count (with uniform_pad, one all-zero row of count 2^n).
    * Columns.  Shifting a view by a in K (y -> y XOR a, or
      (y, z) -> (y XOR a, z XOR a) for the joint view) multiplies d by
      the pad sign of a and leaves the column sum and column maximum
      unchanged.  So |d|, the MI term (symmetric under d -> -d) and the
      posterior ratio are constant on each K-orbit of views, and one
      representative per orbit stands for |K| columns: the coset
      leaders min(y XOR K), and for the joint view (leader, every z).

    Each evaluated entry is weighted by its row count times
    cosets * |K|, and cosets * |K| = 2^n for every G seed.  Per seed and
    view this evaluates 2^n entries (4^n for the joint view), each read
    off an (n+1)^3 table by the popcounts of x XOR y, w and their AND.
    The joint view's columns are (y, w) with w = y XOR z: for a fixed y
    this is a bijection of the z, so column sums and maxima, |d| and MI
    terms are those of (y, z).  Bob's and Eve's views are the same
    kernel under a BSC(p) or BSC(q) pmf with w = 0 alone.

    With uniform_pad=True the pad is one-time-padded with a fresh
    uniform bit instead of the extractor output; every view then
    carries exactly zero information about c.
    """
    views = tuple(views)
    for v in views:
        if v not in VIEWS:
            raise DomainError(f"unknown view {v!r}; expected subset of {VIEWS}")
    _exact_scale_check(params, views)
    _check_channel(params, channel)
    n, lg = params.n, params.challenge_bits
    big_n = 1 << n

    g_hash = _all_seed_tables(n, lg)
    sign = 1.0 - 2.0 * _all_seed_tables(n, 1)  # commit_bits == 1
    if uniform_pad:
        sign = np.zeros_like(sign)

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
        # the cosets of K are the fibres of G; each leader is a fibre's least word
        leaders = np.unique(values, return_index=True)[1]
        idx = np.flatnonzero(values == 0)
        rows, counts = np.unique(sign[:, idx], axis=0, return_counts=True)
        rows *= x_weight
        weight = counts * (leaders.size * idx.size)
        for v in views:
            k_rep = _kernel(tables[v], idx, leaders, w_words[v])
            colsum = k_rep.sum(axis=0)
            d_mat = rows @ k_rep
            sd_acc[v] += float(weight @ np.abs(d_mat).sum(axis=1))
            s_vec = colsum * x_weight
            m0 = 0.5 * (s_vec[None, :] + d_mat)
            m1 = 0.5 * (s_vec[None, :] - d_mat)
            np.clip(m0, 0.0, None, out=m0)
            np.clip(m1, 0.0, None, out=m1)
            mi_acc[v] += float(weight @ _mi_rows(m0, m1))
            # worst-case posterior of x given the pad-free view
            colmax = k_rep.max(axis=0)
            pos = colsum > 0.0
            if pos.any():
                ratio = float((colmax[pos] / colsum[pos]).max())
                max_posterior[v] = max(max_posterior[v], ratio)

    reports = {}
    context = _report_context(params)
    for v in views:
        k_hat = -math.log2(max_posterior[v]) if max_posterior[v] > 0 else math.inf
        ref = min(1.0, 2.0 * lhl_bound(k_hat, 1))
        sd = seed_weight * sd_acc[v]
        mi = seed_weight * mi_acc[v]
        detail = {"k_hat": k_hat, "uniform_pad": uniform_pad}
        reports[f"sd_{v}"] = SecurityReport(
            metric=f"concealment_sd_{v}", estimate=sd, exact=True,
            reference_bound=ref, details=detail, **context,
        )
        reports[f"mi_{v}"] = SecurityReport(
            metric=f"concealment_mi_{v}", estimate=mi, exact=True,
            reference_bound=None, details=detail, **context,
        )
    return reports


# ---------------------------------------------------------------------------
# concealment, Monte Carlo


def _concealment_mc_worker(payload, seeds) -> np.ndarray:
    """Per-trial (c, distinguisher statistic) on raw arrays.

    Trial i draws c (and, with uniform_pad, the pad's key) from its own
    stream and the commit phase from that stream's children through
    protocol._commit_draws, so it consumes exactly what commit_phase
    would.  Words are big-endian integers.  The MAP guess is the
    candidate closest to the view's anchors in weighted Hamming
    distance, ties to the lowest encoding; unless the challenge is
    hidden the candidates are the words sharing x's value in the packed
    table of G.  The extractor has one output bit, the parity of the
    word ANDed with the extractor seed read little-endian.
    """
    params, channel, view, uniform_pad, hide_challenge = payload
    n = params.n
    wp = math.log2((1.0 - params.pq.p) / params.pq.p)
    wq = math.log2((1.0 - params.pq.q) / params.pq.q)
    big_endian = 1 << np.arange(n - 1, -1, -1, dtype=np.uint64)
    all_words = np.arange(1 << n, dtype=np.uint32) if hide_challenge else None
    out = np.empty((len(seeds), 2), dtype=np.uint8)
    for i in range(len(seeds)):
        rng = make_rng(seeds[i])
        c = int(rng.integers(0, 2, size=1, dtype=np.uint8)[0])
        x, nb, ne, g_seed, e_seed = _commit_draws(params, channel, rng)
        x_int = int(x @ big_endian)
        ext_mask = int(e_seed @ big_endian[::-1])
        pad_bit = c ^ ((x_int & ext_mask).bit_count() & 1)
        if uniform_pad:
            pad_bit = c ^ int(rng.integers(0, 2))
        if hide_challenge:
            candidates = all_words
        else:
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


def _monte_carlo_scale_check(params: ProtocolParams, hide_challenge: bool = False):
    if params.commit_bits != 1:
        raise ScaleError("the distinguisher is defined for commit_bits == 1")
    if params.n > ENUM_LIMIT and not hide_challenge:
        raise ScaleError(
            f"hash-aware guessing needs n <= {ENUM_LIMIT}; "
            "pass hide_challenge=True beyond that"
        )


def _entropy_miller_madow(counts: np.ndarray, total: int) -> float:
    """Plug-in entropy plus the Miller-Madow bias correction, in bits."""
    pos = counts[counts > 0]
    h = float(-(pos / total * np.log2(pos / total)).sum())
    return h + (pos.size - 1) / (2.0 * total * math.log(2.0))


def concealment_monte_carlo(params: ProtocolParams, channel, trials: int,
                            seed: int, view: str = "bob",
                            uniform_pad: bool = False,
                            hide_challenge: bool = False,
                            threads: int = 1) -> SecurityReport:
    """Sampled lower bound on concealment leakage for one view.

    The distinguisher guesses the extractor input as the hash-consistent
    word closest to the view's channel output(s), undoes the pad, and
    decides the commit bit by the majority rule learned on a training
    sample of the same size; the reported advantage on the held-out
    sample lower-bounds the exact statistical distance.

    Details carry a plug-in mutual-information estimate over (commit
    bit, distinguisher statistic) with the Miller-Madow correction.
    """
    if view not in VIEWS:
        raise DomainError(f"unknown view {view!r}; expected one of {VIEWS}")
    _monte_carlo_scale_check(params, hide_challenge)
    if trials < 1:
        raise DomainError("trials must be >= 1")
    _check_channel(params, channel)
    payload = (params, channel, view, uniform_pad, hide_challenge)
    samples = map_trials(_concealment_mc_worker, payload,
                         trial_seeds(seed, 2 * trials), threads)
    train, test = samples[:trials], samples[trials:]

    counts = np.zeros((2, 2), dtype=np.int64)  # [c, s]
    for c_bit, s_bit in train:
        counts[c_bit, s_bit] += 1
    rule = np.argmax(counts, axis=0)  # decision per statistic value

    correct = int((rule[test[:, 1]] == test[:, 0]).sum())
    acc_lo, acc_hi = wilson_interval(correct, trials)
    advantage = 2.0 * correct / trials - 1.0

    joint = np.zeros((2, 2), dtype=np.int64)
    for c_bit, s_bit in test:
        joint[c_bit, s_bit] += 1
    mi_mm = (
        _entropy_miller_madow(joint.sum(axis=1), trials)
        + _entropy_miller_madow(joint.sum(axis=0), trials)
        - _entropy_miller_madow(joint.reshape(-1), trials)
    )

    return SecurityReport(
        metric=f"concealment_mc_advantage_{view}",
        estimate=advantage,
        ci_lo=2.0 * acc_lo - 1.0,
        ci_hi=2.0 * acc_hi - 1.0,
        trials=trials,
        reference_bound=None,
        seed=seed,
        details={
            "accuracy": correct / trials,
            "mi_plugin_miller_madow": mi_mm,
            "uniform_pad": uniform_pad,
            "hide_challenge": hide_challenge,
            "train_counts": counts,
        },
        **_report_context(params),
    )
