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
                   K (a Walsh-Hadamard transform along K) and one view
                   column per K-orbit, weighted by their multiplicities
                   (2^n columns per G seed in all), in stacked blocks
                   of seeds that share dim K; one popcount kernel
                   serves all three views, the joint view's columns
                   being (y, w = y XOR z);
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
from .hashing import hash_all_inputs, lhl_bound
from .parallel import map_trials
from .protocol import (
    ProtocolParams,
    SessionState,
    _check_channel,
    _commit_draws,
    _commit_words,
)
from .rng import (
    INDEX_LIMIT,
    byte_bits,
    doubles,
    make_rng,
    philox_words,
    rekey,
    trial_seeds,
    uint32_bit,
)

ENUM_LIMIT = 20           # exhaustive search over {0,1}^n
EXACT_MARGINAL_LIMIT = 8  # exact concealment, single-party views
EXACT_JOINT_LIMIT = 6     # exact concealment, joint view: 2^(n+l_G-1) seeds x 4^n entries
EXACT_SEED_LIMIT = 14     # exact concealment, n + l_G
EXACT_BLOCK = 1 << 13     # exact concealment: kernel entries per block of G seeds
TRIAL_LIMIT = INDEX_LIMIT  # trial seeds per Monte Carlo estimate
SCAN_LIMIT = 28           # Monte Carlo MAP guess, hidden challenge: 2^n words per trial
MC_BLOCK = 1 << 10        # Monte Carlo: trials per array Philox pass
SCAN_BLOCK = 1 << 17      # Monte Carlo: (trial, word) entries per tile of a word scan
WORD_LIMIT = 1 << 20      # soundness: raw channel words per trial (2n)
WORD_BLOCK = 1 << 16      # soundness: raw words per block of trials (512 KiB)

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


def _check_trials(trials: int, seeds_per_trial: int = 1):
    """An estimate runs at least one trial and draws trial seeds 0 to
    trials * seeds_per_trial - 1, each below TRIAL_LIMIT."""
    if trials < 1:
        raise DomainError("trials must be >= 1")
    if trials * seeds_per_trial > TRIAL_LIMIT:
        raise ScaleError(f"{trials} trials need {trials * seeds_per_trial} trial seeds; "
                         f"at most {TRIAL_LIMIT} are supported")


# ---------------------------------------------------------------------------
# soundness


def _soundness_worker(points, seeds) -> np.ndarray:
    """(trials, points) honest-rejection indicators, one column per
    (n, p, alpha1) point.

    For an honest reveal the hash and pad conditions hold identically,
    so a trial rejects exactly when the Bob-side flip count leaves the
    distance band.  The flip count is read off the channel stream of
    trial i, SeedSequence(seed, spawn_key=(i, 2)), which is
    make_rng(seeds[i]).spawn(3)[2], the stream a full honest_run on
    trial seed i hands to the channel.  So indicators match full
    protocol runs trial for trial.

    Bob's flip at symbol j is random() < p for raw word 2j, and
    (word >> 11) 2^-53 < p exactly when word < ceil(p 2^53) << 11, so
    the count compares raw words and draws no doubles.  A trial reads
    2 max(n) words, past the array Philox's break-even, so one C Philox
    is re-keyed per trial from seeds.keys(2).  Philox is counter-based,
    so a point at n reads a prefix of those words, the 2n a call of its
    own would draw.  Points with the same p share a flip threshold, so
    each segment of words between their consecutive prefixes is counted
    once and a point's count is the running sum up to its prefix.
    Blocks of at most WORD_BLOCK words are counted one threshold at a
    time; a trial's words depend on its index alone, so the blocking
    changes no indicator.
    """
    span = 2 * max(n for n, _, _ in points)
    bands = {}  # flip threshold -> [(prefix, point, lo, hi)] in prefix order
    for k, (n, p, alpha1) in sorted(enumerate(points), key=lambda item: item[1][0]):
        below = np.uint64(math.ceil(p * 2.0 ** 53) << 11)  # p < 1/2: fits in 64 bits
        bands.setdefault(below, []).append((2 * n, k, n * (p - alpha1), n * (p + alpha1)))
    block = np.empty((max(1, min(len(seeds), WORD_BLOCK // span)), span), dtype=np.uint64)
    noise = make_rng(0)  # re-keyed per trial
    keys = seeds.keys(2)
    out = np.empty((len(seeds), len(points)), dtype=np.uint8)
    for b0 in range(0, len(seeds), len(block)):
        rows = keys[b0:b0 + len(block)]
        words = block[:len(rows)]
        for row, key in zip(words, rows):
            row[:] = rekey(noise, key).bit_generator.random_raw(span)
        for below, segments in bands.items():
            d, start = 0, 0
            for prefix, k, lo, hi in segments:
                d = d + np.count_nonzero(words[:, start:prefix:2] < below, axis=1)
                out[b0:b0 + len(rows), k] = (d < lo) | (d > hi)
                start = prefix
    return out


def _check_words(n: int):
    if 2 * n > WORD_LIMIT:
        raise ScaleError(f"a soundness trial reads 2n raw words, at most {WORD_LIMIT} "
                         f"(n <= {WORD_LIMIT // 2}); got n = {n}")


def soundness_reports(points, seed: int, threads: int = 1) -> list:
    """One estimate_soundness report per (params, channel, trials) point,
    all on seed, from one map_trials call.

    The call runs max(trials) trials and each point reads its first
    trials rows, the indicators a call of its own would give.
    """
    for params, channel, trials in points:
        _check_words(params.n)
        _check_trials(trials)
        _check_channel(params, channel)
    payload = tuple((params.n, params.pq.p, params.alpha1) for params, _, _ in points)
    rejects = map_trials(_soundness_worker, payload,
                         trial_seeds(seed, max(t for *_, t in points)), threads,
                         2 * max(n for n, _, _ in payload))
    reports = []
    for (params, _, trials), column in zip(points, rejects.T):
        k = int(column[:trials].sum())
        lo, hi = wilson_interval(k, trials)
        reports.append(SecurityReport(
            metric="soundness_rejection_rate",
            estimate=k / trials,
            ci_lo=lo, ci_hi=hi,
            trials=trials,
            reference_bound=min(1.0, 2.0 * math.exp(-2.0 * params.n * params.alpha1 ** 2)),
            seed=seed,
            details={"rejections": k},
            **_report_context(params),
        ))
    return reports


def estimate_soundness(params: ProtocolParams, channel, trials: int,
                       seed: int, threads: int = 1) -> SecurityReport:
    """Empirical honest-rejection rate with Wilson 95% interval.

    Reference bound: the two-sided Hoeffding tail 2 exp(-2 n alpha1^2)
    on the flip count leaving the band.
    """
    return soundness_reports([(params, channel, trials)], seed, threads)[0]


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


def _tiles(rows: int, cols: int):
    """(row slice, column slice) pairs covering a rows x cols scan in
    tiles of at most SCAN_BLOCK entries, at least one row each, and the
    columns of each band of rows in increasing order.  Tiles are a power
    of two wide unless they span all columns, so a power-of-two cols
    gives tiles at multiples of their width."""
    width = max(1, min(cols, 1 << (SCAN_BLOCK.bit_length() - 1)))
    height = max(1, SCAN_BLOCK // width)
    for r0 in range(0, rows, height):
        for c0 in range(0, cols, width):
            yield slice(r0, r0 + height), slice(c0, c0 + width)


def _big_endian(bits: np.ndarray) -> np.ndarray:
    """Big-endian integer encodings of the bit rows (last axis) of bits."""
    n = bits.shape[-1]
    return bits @ (np.uint64(1) << np.arange(n - 1, -1, -1, dtype=np.uint64))


BINDING_MODES = ("alone", "with_eve")


def _binding_worker(payload, seeds) -> np.ndarray:
    """Per-trial (success, |A|) for fresh y draws against a fixed commit.

    Bob's word is redrawn from the noise law conditioned on what the
    attacker knows: nothing beyond x when alone, Eve's flips as well
    when colluding.  The same uniforms drive both modes, so couplings
    with independent noise produce identical draws in either mode.
    Only words with the committed hash value can be members, so the
    band test runs over those candidates and their extractor values,
    which the payload carries.  Trial i draws random(n) from its own
    stream, SeedSequence(seed, spawn_key=(i,)): the doubles of its first
    n raw words, computed for MC_BLOCK trials at a time by one
    philox_words pass over seeds.keys().  A trial succeeds when its
    members' extractor values have a distinct minimum and maximum.
    """
    (n, p, q, r, alpha1, x_int, ne_bits, candidates, candidate_ext, thresh_mode) = payload
    if thresh_mode == "alone":
        thresh = np.full(n, p)
    else:
        cond1 = r / q              # P(N_B=1 | N_E=1)
        cond0 = (p - r) / (1.0 - q)  # P(N_B=1 | N_E=0)
        thresh = np.where(ne_bits == 1, cond1, cond0)
    dist = np.arange(n + 1)
    in_band = (dist >= n * (p - alpha1)) & (dist <= n * (p + alpha1))
    top = np.iinfo(candidate_ext.dtype).max
    out = np.empty((len(seeds), 2), dtype=np.int64)
    for b0 in range(0, len(seeds), MC_BLOCK):
        block = seeds[b0:b0 + MC_BLOCK]
        nb = doubles(philox_words(block.keys(), n)) < thresh
        y = (np.uint64(x_int) ^ _big_endian(nb)).astype(np.uint32)
        size = np.zeros(len(block), dtype=np.int64)
        ext_min = np.full(len(block), top, dtype=candidate_ext.dtype)
        ext_max = np.zeros(len(block), dtype=candidate_ext.dtype)
        for rows, cols in _tiles(len(block), candidates.size):
            member = in_band[np.bitwise_count(candidates[cols] ^ y[rows, None])]
            ext = candidate_ext[cols]
            size[rows] += np.count_nonzero(member, axis=1)
            np.minimum(ext_min[rows], np.where(member, ext, top).min(axis=1),
                       out=ext_min[rows])
            np.maximum(ext_max[rows], np.where(member, ext, 0).max(axis=1),
                       out=ext_max[rows])
        # two members with distinct extractor outputs make two claims
        out[b0:b0 + len(block), 0] = ext_min < ext_max
        out[b0:b0 + len(block), 1] = size
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
    if mode not in BINDING_MODES:
        raise DomainError(f"mode must be 'alone' or 'with_eve', got {mode!r}")
    _check_trials(trials)
    _check_enum_scale(params.n)
    _check_channel(params, channel)
    t = session.transcript
    x = session.alice_view.x
    ne_bits = session.eve_view.z.bits ^ x.bits
    # the hash-consistent words, about 2^(n - l_G), and their Ext values
    hashes = hash_all_inputs(t.challenge)
    candidates = np.flatnonzero(hashes == t.challenge_value.to_int()).astype(np.uint32)
    payload = (
        params.n, params.pq.p, params.pq.q, channel.r, params.alpha1,
        x.to_int(), ne_bits, candidates, hash_all_inputs(t.extractor)[candidates], mode,
    )
    stats = map_trials(_binding_worker, payload, trial_seeds(seed, trials), threads,
                       params.n + candidates.size)
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
    joint view).  Columns run over y, then w; x and y may carry the
    same leading axes (one per G seed of a block)."""
    d = x[..., :, None, None] ^ y[..., None, :, None]
    return table[np.bitwise_count(d), np.bitwise_count(w),
                 np.bitwise_count(d & w)].reshape(*x.shape, -1)


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
    """Per row (last axis): the sum of M0 lg(M0/mu) + M1 lg(M1/mu), mu
    the average."""
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


def _all_seed_tables(n: int, l: int) -> np.ndarray:
    """Row s: the packed table of the (n -> l) Toeplitz hash whose seed
    is the big-endian expansion of s, on every word; one byte per entry
    for l <= 8."""
    dtype = np.min_scalar_type((1 << l) - 1)
    seeds = np.arange(1 << (n + l - 1))
    # column k: seed bits [k, k + l) packed MSB-first, the hash of the
    # word whose only set bit is index bit k (as in _packed_table)
    cols = ((seeds[:, None] >> np.arange(n - 1, -1, -1)) & ((1 << l) - 1)).astype(dtype)
    out = np.empty((seeds.size, 1 << n), dtype=dtype)
    out[:, 0] = 0
    for k in range(n):
        np.bitwise_xor(out[:, : 1 << k], cols[:, k : k + 1], out=out[:, 1 << k : 2 << k])
    return out


def _pad_rows(dim: int) -> np.ndarray:
    """The 2^dim characters t -> (-1)^|a AND t| of K in counting order,
    as rows sorted lexicographically (-1 before +1): row i is the
    character of a = reversed(i) XOR (2^dim - 1).  This is the
    Sylvester-Hadamard matrix of order 2^dim with its rows permuted."""
    i = np.arange(1 << dim)
    a = np.zeros_like(i)
    for j in range(dim):
        a |= ((i >> j) & 1) << (dim - 1 - j)
    a ^= (1 << dim) - 1
    return 1.0 - 2.0 * (np.bitwise_count(a[:, None] & i[None, :]) & 1)


def _seed_blocks(g_hash: np.ndarray, block: int):
    """Blocks of at most `block` G seeds with the same dim K, K = ker G,
    from the table of every seed's hash values: yields (dim, seeds, K,
    leaders), one row of words per seed, K sorted and the coset leaders
    in the order of their cosets' hash values.

    Sorted K's elements 2^j form an echelon basis of K, so their leading
    bits (the pivots) are distinct, and the least word of each coset
    y XOR K is its one word with no pivot set."""
    big_n = g_hash.shape[1]
    words = np.arange(big_n, dtype=np.min_scalar_type(big_n - 1))
    kernel_sizes = np.concatenate([np.count_nonzero(g_hash[i:i + block] == 0, axis=1)
                                   for i in range(0, g_hash.shape[0], block)])
    for dim in range(big_n.bit_length()):
        group = np.flatnonzero(kernel_sizes == 1 << dim)
        for start in range(0, group.size, block):
            seeds = group[start:start + block]
            values = g_hash[seeds]
            kernel = np.nonzero(values == 0)[1].astype(words.dtype).reshape(seeds.size, -1)
            basis = kernel[:, 1 << np.arange(dim)]
            pivots = np.bitwise_or.reduce(1 << (np.frexp(basis)[1] - 1), axis=1)
            leaders = words[np.nonzero((words & pivots[:, None]) == 0)[1]]
            leaders = leaders.reshape(seeds.size, -1)
            order = np.argsort(np.take_along_axis(values, leaders, axis=1), axis=1)
            yield dim, seeds, kernel, np.take_along_axis(leaders, order, axis=1)


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
    * Rows.  Sorted, K counts in its echelon basis: its element t is
      the XOR of its elements 2^j over the set bits j of t.  So each of
      the 2^n extractor functionals restricts to a character
      t -> (-1)^|a AND t| of K, and each of the 2^dim(K) characters
      occurs 2^rank(G) times.  The distinct rows of d are then a
      Walsh-Hadamard transform of the kernel block along K, computed
      as one product with the Sylvester-Hadamard matrix (_pad_rows)
      and weighted by 2^rank(G).  With uniform_pad the one pad row is
      zero and adds nothing to the distance or the MI.
    * Columns.  Shifting a view by a in K (y -> y XOR a, or
      (y, z) -> (y XOR a, z XOR a) for the joint view) multiplies d by
      the pad sign of a and leaves the column sum and column maximum
      unchanged.  So |d|, the MI term (symmetric under d -> -d) and the
      posterior ratio are constant on each K-orbit of views, and one
      representative per orbit stands for |K| columns: the coset
      leaders min(y XOR K), and for the joint view (leader, every z).
      The leaders need no search: they are the words with none of the
      pivots set, the pivots being the leading bits of K's elements 2^j.
    * Blocks.  G seeds with the same dim(K) share every shape, so they
      run stacked, in blocks of at most EXACT_BLOCK kernel entries; the
      per-seed sums are then added in seed order.  Only the table of
      every seed's hash values, 2^(n + l_G - 1) x 2^n bytes, grows with
      the seed count.

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
    if not views or len(set(views)) != len(views):
        raise DomainError(f"views must name one or more distinct views, got {views}")
    _exact_scale_check(params, views)
    _check_channel(params, channel)
    n, lg = params.n, params.challenge_bits
    big_n = 1 << n
    words = np.arange(big_n, dtype=np.min_scalar_type(big_n - 1))

    p, q = params.pq.p, params.pq.q
    pmfs = {"bob": (1.0 - p, 0.0, 0.0, p), "eve": (1.0 - q, 0.0, 0.0, q),
            "joint": channel.noise_pair_pmf()}

    g_hash = _all_seed_tables(n, lg)
    x_weight = 1.0 / big_n
    seed_weight = 1.0 / (g_hash.shape[0] * big_n)  # G seeds times Ext seeds
    pad_rows = {}  # dim K -> the scaled rows, built when first needed
    reports = {}
    context = _report_context(params)
    for v in views:
        table = _noise_table(n, pmfs[v])
        w = words if v == "joint" else words[:1]
        sd_seed = np.zeros(g_hash.shape[0])
        mi_seed = np.zeros(g_hash.shape[0])
        max_posterior = 0.0
        block = max(1, EXACT_BLOCK // (big_n * w.size))
        for dim, seeds, kernel, leaders in _seed_blocks(g_hash, block):
            k_rep = _kernel(table, kernel, leaders, w)
            colsum = k_rep.sum(axis=1)
            # worst-case posterior of x given the pad-free view
            ratio = np.divide(k_rep.max(axis=1), colsum,
                              out=np.zeros_like(colsum), where=colsum > 0.0)
            max_posterior = max(max_posterior, float(ratio.max()))
            if uniform_pad:
                continue  # one all-zero pad row: no distance, no MI
            if dim not in pad_rows:
                pad_rows[dim] = _pad_rows(dim) * x_weight
            d_mat = pad_rows[dim] @ k_rep
            del k_rep  # at most four block-sized arrays live at a time
            s_vec = (colsum * x_weight)[:, None, :]
            m0 = s_vec + d_mat
            m1 = s_vec - d_mat
            # each row stands for 2^rank Ext seeds, and cosets * |K| = 2^n
            # views; one dot product of row sums and weights per seed (a
            # matrix-vector product would add them in another order)
            weight = np.full((1 << dim, 1), float(big_n << (n - dim)))
            np.abs(d_mat, out=d_mat)
            sd_seed[seeds] = (d_mat.sum(axis=-1)[:, None, :] @ weight)[:, 0, 0]
            del d_mat
            for m in (m0, m1):
                m *= 0.5
                np.clip(m, 0.0, None, out=m)
            mi_seed[seeds] = (_mi_rows(m0, m1)[:, None, :] @ weight)[:, 0, 0]

        k_hat = -math.log2(max_posterior) if max_posterior > 0 else math.inf
        ref = min(1.0, 2.0 * lhl_bound(k_hat, 1))
        # a running sum in seed order, whatever the blocks were
        sd = seed_weight * float(np.cumsum(sd_seed)[-1])
        mi = seed_weight * float(np.cumsum(mi_seed)[-1])
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


_TRIAL_STREAMS = ((), (0,), (1,), (2,))  # the trial, then Alice, Bob and the channel


def _map_guess(n: int, anchors: list, weights, cols: np.ndarray,
               h_x: np.ndarray) -> np.ndarray:
    """Per trial the MAP guess of x: the hash-consistent word closest to
    the anchors, ties to the lowest encoding.

    anchors holds one (trials,) array of big-endian words per anchor: y
    for bob, z for eve, (y, z) for joint.  With weights None the cost is
    the integer distance to the one anchor, else the float cost
    wp d(w, y) + wq d(w, z) with weights (wp, wq).  cols[t, k] is the
    hash under trial t's G of the word whose only set index bit is k,
    h_x the hash of x; all zero when the challenge is hidden, so that
    every word is a candidate.

    One masked argmin scans all 2^n words in tiles of at most SCAN_BLOCK
    entries.  Word w's key packs (h(w) XOR h(x)) above its distances to
    the anchors, one field of n.bit_length() bits each.  Setting index
    bit k of a word XORs the hash field with cols[:, k] and moves each
    distance by +1 or -1, with no borrow between fields, so a tile's keys
    come from word 0's key by one doubling pass.  Every candidate's key
    lies below 2^s, s the width of the distance fields, and below every
    other word's, so for one anchor the key is the masked cost itself.
    The joint view reads its float cost off a table by the distance
    fields, with inf past them.  Keys fit 32 bits: a shown challenge
    needs n <= ENUM_LIMIT, so l_G + s <= 30.
    """
    width = n.bit_length()
    shift = np.uint32(width * len(anchors))
    index_bits = np.arange(n, dtype=np.uint64)
    key0 = h_x.astype(np.uint32) << shift  # word 0, whose hash is 0
    step = np.zeros(cols.shape, dtype=np.int64)
    for field, anchor in enumerate(anchors):
        key0 += np.bitwise_count(anchor).astype(np.uint32) << np.uint32(width * field)
        anchor_bits = ((anchor[:, None] >> index_bits) & np.uint64(1)).astype(np.int64)
        step += (1 - 2 * anchor_bits) << (width * field)
    step = step.astype(np.uint32)  # -1 wraps around; the sums never do
    hash_step = cols.astype(np.uint32) << shift
    if weights is None:
        best = np.full(key0.size, np.iinfo(np.uint32).max, dtype=np.uint32)
    else:
        dist = np.arange(1 << width)
        cost = np.full((1 << int(shift)) + 1, np.inf)
        cost[:-1] = (weights[0] * dist[None, :] + weights[1] * dist[:, None]).reshape(-1)
        best = np.full(key0.size, np.inf)
    guess = np.zeros(key0.size, dtype=np.uint64)
    for rows, words in _tiles(key0.size, 1 << n):
        high = ((words.start >> index_bits) & np.uint64(1)) == 1
        key = np.empty((best[rows].size, words.stop - words.start), dtype=np.uint32)
        key[:, 0] = key0[rows] + step[rows][:, high].sum(axis=1).astype(np.uint32)
        key[:, 0] ^= np.bitwise_xor.reduce(hash_step[rows][:, high], axis=1)
        for k in range(key.shape[1].bit_length() - 1):
            half, rest = key[:, :1 << k], key[:, 1 << k:2 << k]
            np.bitwise_xor(half, hash_step[rows, k, None], out=rest)
            rest += step[rows, k, None]
        if weights is not None:
            key = cost[np.minimum(key, 1 << int(shift))]
        j = key.argmin(axis=1)
        value = key[np.arange(key.shape[0]), j]
        better = value < best[rows]
        best[rows] = np.where(better, value, best[rows])
        guess[rows] = np.where(better, j.astype(np.uint64) + np.uint64(words.start),
                               guess[rows])
    return guess


def _concealment_mc_worker(payload, seeds) -> np.ndarray:
    """Per-trial (c, distinguisher statistic) on raw arrays.

    Trial i draws c (and, with uniform_pad, the pad's key) from its own
    stream (i,) and the commit phase from that stream's children
    (i, 0), (i, 1) and (i, 2) through protocol._commit_draws, so it
    consumes exactly what commit_phase would: c is integers(0, 2, 1,
    uint8), bit 7 of word 0, and the pad key integers(0, 2) after it,
    bit 63 of word 0.  For MC_BLOCK trials at a time one philox_words
    pass computes the raw words of all four streams from seeds.keys(),
    and one doubling pass per scan tile builds the G tables (see
    _map_guess).  Words are big-endian integers.  The MAP guess is the
    candidate closest to the view's anchors, ties to the lowest
    encoding; unless the challenge is hidden the candidates are the
    words sharing x's value under G.  The extractor has one output bit,
    the parity of the word ANDed with the extractor seed read
    little-endian.
    """
    params, channel, view, uniform_pad, hide_challenge = payload
    n, lg = params.n, params.challenge_bits
    wp = math.log2((1.0 - params.pq.p) / params.pq.p)
    wq = math.log2((1.0 - params.pq.q) / params.pq.q)
    little_endian = np.uint64(1) << np.arange(n, dtype=np.uint64)
    counts = (1, *_commit_words(params))
    out = np.empty((len(seeds), 2), dtype=np.uint8)
    for b0 in range(0, len(seeds), MC_BLOCK):
        block = seeds[b0:b0 + MC_BLOCK]
        keys = np.stack([block.keys(*path) for path in _TRIAL_STREAMS])
        own, *party = philox_words(keys, counts)
        c = byte_bits(own, 0, 1)[0][:, 0]
        x, nb, ne, g_seed, e_seed = _commit_draws(params, channel, *party)
        x_int = _big_endian(x)
        ext_mask = e_seed @ little_endian
        pad_bit = c ^ (np.bitwise_count(x_int & ext_mask) & 1).astype(np.uint8)
        if uniform_pad:
            pad_bit = c ^ uint32_bit(own, 1)
        # cols[t, k]: seed bits [k, k + l_G) MSB-first, the hash of the
        # word whose only set index bit is k (as in hashing._packed_table)
        cols = np.zeros((len(block), n), dtype=np.uint32)
        for j in range(0 if hide_challenge else lg):
            cols |= g_seed[:, j:j + n].astype(np.uint32) << np.uint32(lg - 1 - j)
        x_index = ((x_int[:, None] >> np.arange(n, dtype=np.uint64)) & np.uint64(1)) == 1
        h_x = np.bitwise_xor.reduce(cols * x_index, axis=1)
        y_int, z_int = x_int ^ _big_endian(nb), x_int ^ _big_endian(ne)
        anchors = {"bob": [y_int], "eve": [z_int], "joint": [y_int, z_int]}[view]
        x_hat = _map_guess(n, anchors, (wp, wq) if view == "joint" else None, cols, h_x)
        out[b0:b0 + len(block), 0] = c
        out[b0:b0 + len(block), 1] = pad_bit ^ (np.bitwise_count(x_hat & ext_mask) & 1)
    return out


def _monte_carlo_scale_check(params: ProtocolParams, trials: int,
                             hide_challenge: bool = False):
    if params.commit_bits != 1:
        raise ScaleError("the distinguisher is defined for commit_bits == 1")
    if params.n > SCAN_LIMIT:
        raise ScaleError(f"the MAP guess scans all 2^n words of every trial, "
                         f"limited to n <= {SCAN_LIMIT}; got n = {params.n}")
    if params.n > ENUM_LIMIT and not hide_challenge:
        raise ScaleError(
            f"hash-aware guessing needs n <= {ENUM_LIMIT}; "
            "pass hide_challenge=True beyond that"
        )
    _check_trials(trials, seeds_per_trial=2)  # a training and a test sample


def _cs_table(samples: np.ndarray) -> np.ndarray:
    """Counts [c, s] of the (commit bit, statistic) rows of samples."""
    return np.bincount(2 * samples[:, 0] + samples[:, 1], minlength=4).reshape(2, 2)


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
    _monte_carlo_scale_check(params, trials, hide_challenge)
    _check_channel(params, channel)
    payload = (params, channel, view, uniform_pad, hide_challenge)
    samples = map_trials(_concealment_mc_worker, payload,
                         trial_seeds(seed, 2 * trials), threads, 1 << params.n)
    train, test = samples[:trials], samples[trials:]

    counts = _cs_table(train)
    rule = np.argmax(counts, axis=0)  # decision per statistic value

    correct = int((rule[test[:, 1]] == test[:, 0]).sum())
    acc_lo, acc_hi = wilson_interval(correct, trials)
    advantage = 2.0 * correct / trials - 1.0

    joint = _cs_table(test)
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
