"""Attack strategies and security estimators.

Four measurements back the protocol's guarantees at desk scale:

* soundness      — honest-rejection rate against the Hoeffding
                   reference 2 exp(-2 n alpha1^2);
* binding        — a cheating Alice enumerates reveal claims that pass
                   the hash challenge and wins when two of them with
                   distinct commit strings land in Bob's distance band;
                   per-syndrome tables of one 2^n-word pass give each
                   set's size for the union-bound ceiling |A|^2 2^-l;
* concealment    — exact statistical distance and mutual information
                   between the commit bit and a view (Bob's, Eve's, or
                   their union) at tiny n, with a leftover-hash
                   reference bound from the exact conditional
                   min-entropy; each challenge hash G is evaluated on
                   K = ker G alone, one row per distinct pad pattern on
                   K (a Walsh-Hadamard transform along K) and one view
                   column per K-orbit, weighted by their multiplicities
                   (2^n columns per G seed in all), in stacked blocks
                   of seeds that share dim K; each entry is a row of
                   the view's kernel table read by x XOR y, the joint
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

from .errors import DomainError, ScaleError
from .hashing import _linear_table, _toeplitz_columns, hash_all_inputs, lhl_bound
from .parallel import map_trials
from .protocol import (
    ProtocolParams,
    SessionState,
    _check_hashes,
    _commit_draws,
    _commit_words,
    _in_band,
)
from .rng import (
    byte_bits,
    doubles,
    make_rng,
    philox_words,
    rekey,
    trial_seeds,
    uint32_bit,
)

ENUM_LIMIT = 20           # exhaustive search over {0,1}^n
# Exact concealment: work W per call (_concealment_check).  One party at n = 9,
# l_G = 3 took 73-83 ms and traced 5.0 MiB on a 2-core x86-64 host.
EXACT_WORK_LIMIT = 1 << 29
# Bytes of the largest temporary of every blocked loop: a loop takes as
# many entries per block as fit.  glibc returns a freed block above 128 KiB
# to the OS, so the next one faults back in: at n = 6, l_G = 1 and 2, all
# views, an exact call pair ran in 14.1 ms with no minor faults at 2^14
# float64 entries per sub-block, and in 18.5 ms with 3592 faults at 2^15
# (2-core x86-64 host).
BLOCK_BYTES = 1 << 17
# Trial seeds per Monte Carlo estimate: binding keeps about 42 B of records
# per trial (traced at 2^16 trials, n = 12, l_G = 4), 0.7 GB at the limit.
TRIAL_LIMIT = 1 << 24
MC_BLOCK = 1 << 10        # Monte Carlo: trials per array Philox pass
WORD_LIMIT = 1 << 20      # soundness: raw channel words per trial (2n)
# Capacity grid: steps per axis, steps^2 rows.  At the limit one CLI run,
# start-up included, took 1.6 s and peaked at 144 MB RSS for a 16 MB CSV
# (2-core x86-64 host).
GRID_LIMIT = 400

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


# the columns of a report's record, in the order the tables print them
REPORT_COLUMNS = (
    "metric", "estimate", "ci_lo", "ci_hi", "reference_bound",
    "n", "p", "q", "coupling", "seed",
)


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
        """Flat record of the REPORT_COLUMNS for CSV/JSON emission."""
        return {c: getattr(self, c) for c in REPORT_COLUMNS}


def _report_context(params: ProtocolParams) -> dict:
    return {
        "n": params.n,
        "p": params.pq.p,
        "q": params.pq.q,
        "coupling": params.coupling,
    }


def _check_trials(trials: int, seeds_per_trial: int = 1):
    """An estimate runs at least one trial and draws trial seeds 0 to
    trials * seeds_per_trial - 1, at most TRIAL_LIMIT of them."""
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
    is re-keyed per trial from seeds.keys(2), derived for at most
    MC_BLOCK trials at a time.  Philox is counter-based, so a point at n
    reads a prefix of those words, the 2n a call of its own would draw.
    Each trial's Bob words are compared with every flip threshold
    straight into a block of flip flags, one row per trial and no copy
    of the words.  Points with the same p share a
    threshold, so each segment of flags between their consecutive
    prefixes is counted once and a point's count is the running sum up
    to its prefix.  A block holds at most MC_BLOCK trials and BLOCK_BYTES
    flags per threshold, one byte each; a trial's words depend on its
    index alone, so the blocking changes no indicator.
    """
    span = 2 * max(n for n, _, _ in points)
    bands = {}  # flip threshold -> [(prefix, point)] in prefix order
    for k, (n, p, _) in sorted(enumerate(points), key=lambda item: item[1][0]):
        below = math.ceil(p * 2.0 ** 53) << 11  # p < 1/2: fits in 64 bits
        bands.setdefault(below, []).append((n, k))
    block = max(1, min(len(seeds), MC_BLOCK, BLOCK_BYTES // (span // 2)))
    chunk = block * (MC_BLOCK // block)  # trials per keys() call, whole blocks
    thresholds = [np.array(below, dtype=np.uint64) for below in bands]  # 0-d: no scalar boxing
    flips = np.empty((len(bands), block, span // 2), dtype=bool)
    noise = make_rng(0)  # re-keyed per trial
    out = np.empty((len(seeds), len(points)), dtype=np.uint8)
    for b0 in range(0, len(seeds), block):
        if b0 % chunk == 0:
            keys = seeds[b0:b0 + chunk].keys(2)
        rows = keys[b0 % chunk:b0 % chunk + block]
        for t, key in enumerate(rows):
            bob = rekey(noise, key).bit_generator.random_raw(span)[::2]
            for below, flip in zip(thresholds, flips):
                np.less(bob, below, out=flip[t])
            del bob  # one trial's words alive at a time, also during the next draw
        for flip, segments in zip(flips, bands.values()):
            d, start = 0, 0
            for prefix, k in segments:
                d = d + np.count_nonzero(flip[:len(rows), start:prefix], axis=1)
                out[b0:b0 + len(rows), k] = ~_in_band(d, *points[k])
                start = prefix
    return out


def _soundness_check(params: ProtocolParams, trials: int):
    """The preconditions of a soundness estimate: the trial count and the
    2n raw words a trial reads."""
    _check_trials(trials)
    if 2 * params.n > WORD_LIMIT:
        raise ScaleError(f"a soundness trial reads 2n raw words, at most {WORD_LIMIT} "
                         f"(n <= {WORD_LIMIT // 2}); got n = {params.n}")


def soundness_reports(points, seed: int, threads: int = 1) -> list:
    """One estimate_soundness report per (params, trials) point, all on
    seed, from one map_trials call.

    The call runs max(trials) trials and each point reads its first
    trials rows, the indicators a call of its own would give.
    """
    for params, trials in points:
        _soundness_check(params, trials)
    payload = tuple((params.n, params.pq.p, params.alpha1) for params, _ in points)
    rejects = map_trials(_soundness_worker, payload,
                         trial_seeds(seed, max(t for _, t in points)), threads,
                         2 * max(n for n, _, _ in payload))
    reports = []
    for (params, trials), column in zip(points, rejects.T):
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


def estimate_soundness(params: ProtocolParams, trials: int, seed: int,
                       threads: int = 1) -> SecurityReport:
    """Empirical honest-rejection rate with Wilson 95% interval.

    Reference bound: the two-sided Hoeffding tail 2 exp(-2 n alpha1^2)
    on the flip count leaving the band.
    """
    return soundness_reports([(params, trials)], seed, threads)[0]


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


def _check_enum_scale(n: int):
    if n > ENUM_LIMIT:
        raise ScaleError(f"exhaustive enumeration limited to n <= {ENUM_LIMIT}, got {n}")


def enumerate_confusables(session: SessionState, params: ProtocolParams) -> ConfusableSet:
    """Exhaustive confusable set for the session's realized y."""
    _check_enum_scale(params.n)
    t = session.transcript
    _check_hashes(params, t.challenge, t.extractor)
    hashes = hash_all_inputs(t.challenge)
    target = np.uint32(t.challenge_value.to_int())
    d = np.bitwise_count(np.arange(1 << params.n, dtype=np.uint32)
                         ^ np.uint32(session.bob_view.y.to_int()))
    mask = _in_band(d, params.n, params.pq.p, params.alpha1) & (hashes == target)
    members = np.nonzero(mask)[0].astype(np.uint32)
    eta_hat = math.log2(max(members.size, 1)) / params.n
    return ConfusableSet(n=params.n, members=members, eta_hat=eta_hat)


def _tiles(rows: int, cols: int, itemsize: int):
    """(row slice, column slice) pairs covering a rows x cols scan of
    itemsize-byte entries in tiles of at most BLOCK_BYTES but one entry and
    one row at least, and the columns of each band of rows in increasing
    order.  Tiles are a power of two wide unless they span all columns, so
    a power-of-two cols gives tiles at multiples of their width."""
    entries = max(1, BLOCK_BYTES // itemsize)
    width = min(cols, 1 << (entries.bit_length() - 1))
    height = entries // width
    for r0 in range(0, rows, height):
        for c0 in range(0, cols, width):
            yield slice(r0, r0 + height), slice(c0, c0 + width)


def _big_endian(bits: np.ndarray) -> np.ndarray:
    """Big-endian integer encodings of the bit rows (last axis) of bits."""
    n = bits.shape[-1]
    return bits @ (np.uint64(1) << np.arange(n - 1, -1, -1, dtype=np.uint64))


BINDING_MODES = ("alone", "with_eve")


def _binding_check(params: ProtocolParams, mode: str, trials: int):
    """The preconditions of a binding attack: the trial count, the
    exhaustive scale and the mode."""
    _check_trials(trials)
    _check_enum_scale(params.n)
    if mode not in BINDING_MODES:
        raise DomainError(f"unknown binding mode {mode!r}; expected one of "
                          f"{list(BINDING_MODES)}")


def _binding_worker(payload, seeds) -> np.ndarray:
    """Per-trial (success, |A|) for fresh y draws against a fixed commit.

    Bob's word is redrawn from the noise law conditioned on what the
    attacker knows: nothing beyond x when alone, Eve's flips as well
    when colluding.  The same uniforms drive both modes, so couplings
    with independent noise produce identical draws in either mode.
    Trial i draws random(n) from its own stream, SeedSequence(seed,
    spawn_key=(i,)): the doubles of its first n raw words, computed for
    MC_BLOCK trials at a time by one philox_words pass over
    seeds.keys().  The drawn y's syndrome s = G(y) XOR g_bar then reads
    (success, |A|) from the per-syndrome tables of binding_attack.
    """
    params, x_int, ne_bits, hashes, g_bar, success, size, mode = payload
    n = params.n
    if mode == "alone":
        thresh = np.full(n, params.channel.p)
    else:
        given0, given1 = params.channel.bob_given_eve()
        thresh = np.where(ne_bits == 1, given1, given0)
    out = np.empty((len(seeds), 2), dtype=np.int64)
    for b0 in range(0, len(seeds), MC_BLOCK):
        block = seeds[b0:b0 + MC_BLOCK]
        nb = doubles(philox_words(block.keys(), n)) < thresh
        s = hashes[np.uint64(x_int) ^ _big_endian(nb)] ^ g_bar
        out[b0:b0 + len(block), 0] = success[s]
        out[b0:b0 + len(block), 1] = size[s]
    return out


def binding_attack(session: SessionState, params: ProtocolParams,
                   mode: str = "alone", trials: int = 1000, seed: int = 0,
                   threads: int = 1) -> SecurityReport:
    """Success rate of the hash-collision binding attack on one commit.

    Alice (with Eve's z when mode="with_eve") fixes her commit-phase
    view and tries to reveal two claims with distinct commit strings.
    Success in a trial: the confusable set of the drawn y holds two
    candidates whose extractor outputs differ, i.e. both claims pass
    all three reveal conditions.  reference_bound is a heuristic from the
    mean hash-consistent set size, not a bound: 2^(-n(beta1 - 2 eta_hat)),
    eta_hat = lg(mean size) / n.  At n = 14, l_G = 9, commit_bits = 2,
    alpha1 = 0.04, p = q = 0.25, seed 7 and 20 000 trials the estimate
    is 0.79725 [0.7916, 0.8028] against a reference_bound of 0.01664.

    G and Ext are linear over GF(2): the confusable set of y is y XOR U(s),
    U(s) = {u in the band : G(u) = s} with s = G(y) XOR g_bar, and Ext on
    it is Ext(y) XOR Ext(u).  So a trial's (success, |A|) is (Ext not
    constant on U(s), |U(s)|), tabulated per s by one pass over 2^n words.
    """
    _binding_check(params, mode, trials)
    t = session.transcript
    _check_hashes(params, t.challenge, t.extractor)
    x = session.alice_view.x
    ne_bits = session.eve_view.z.bits ^ x.bits
    hashes = hash_all_inputs(t.challenge)
    n = params.n
    band = _in_band(np.arange(n + 1), n, params.pq.p, params.alpha1)[
        np.bitwise_count(np.arange(1 << n, dtype=np.uint32))]
    syndromes, ext = hashes[band], hash_all_inputs(t.extractor)[band]
    size = np.bincount(syndromes, minlength=1 << params.challenge_bits)
    # Ext is constant on U(s) iff each member agrees with any one member
    first = np.zeros(size.size, dtype=ext.dtype)
    first[syndromes] = ext
    success = np.zeros(size.size, dtype=bool)
    success[syndromes[ext != first[syndromes]]] = True
    payload = (params, x.to_int(), ne_bits, hashes,
               np.uint32(t.challenge_value.to_int()), success, size, mode)
    stats = map_trials(_binding_worker, payload, trial_seeds(seed, trials), threads, n)
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


def _concealment_check(params: ProtocolParams, views, method: str, trials: int = 1):
    """The preconditions of a concealment estimate of the given views by
    method "exact" (concealment_exact) or "monte-carlo"
    (concealment_monte_carlo, trials each): views names known views, at
    least one, each once; the method's scale limits; and the trial count,
    which the exact table prints though it draws no trial seed.

    The exact method's one limit: W = 2^(n+l_G-1) 4^n, times 2^n with the
    joint view, at most EXACT_WORK_LIMIT.  W bounds the pad-row products'
    multiply-adds over the G seeds, 2^(n + dim K) per seed for one party's
    view and 2^(2n + dim K) for the joint view, and so the seed table and
    the call's one pad-row matrix P_n (4^n entries)."""
    if not views:
        raise DomainError(f"views must name at least one of {list(VIEWS)}")
    for v in views:
        if v not in VIEWS:
            raise DomainError(f"unknown view {v!r}; expected a subset of {list(VIEWS)}")
    if len(set(views)) != len(views):
        raise DomainError(f"views {list(views)} name a view more than once")
    if method == "exact":
        if params.commit_bits != 1:
            raise ScaleError("exact concealment requires commit_bits == 1")
        n, lg = params.n, params.challenge_bits
        log_work = (n + lg - 1) + 2 * n + (n if "joint" in views else 0)
        if log_work >= EXACT_WORK_LIMIT.bit_length():  # W > the limit, by exponent
            raise ScaleError(f"exact concealment over views {list(views)} at n = {n}, "
                             f"l_G = {lg} needs W = 2^{log_work} multiply-adds; at most "
                             f"2^{EXACT_WORK_LIMIT.bit_length() - 1} are supported")
        _check_trials(trials, seeds_per_trial=0)
    elif method == "monte-carlo":
        if params.commit_bits != 1:
            raise ScaleError("the distinguisher is defined for commit_bits == 1")
        if params.n > ENUM_LIMIT:
            raise ScaleError(f"the MAP guess scans all 2^n words of every trial, "
                             f"limited to n <= {ENUM_LIMIT}; got n = {params.n}")
        _check_trials(trials, seeds_per_trial=2)  # a training and a test sample
    else:
        raise DomainError(f"unknown method {method!r}")


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


def _kernel_rows(table: np.ndarray, w: np.ndarray) -> np.ndarray:
    """R[d, j] = T[|d|, |w_j|, |d AND w_j|] for every word d: the chance
    that x reaches the view as y = x XOR d (and as z = y XOR w_j at Eve
    for the joint view).  The noise is additive, so the kernel entry of
    x and column (y, w_j) is R[x XOR y, j] for every x and y."""
    side = table.shape[0]
    d = np.arange(1 << (side - 1))[:, None]
    # one flat index into the raveled table: (|d| side + |w|) side + |d & w|
    index = np.bitwise_count(d).astype(np.intp)
    index *= side
    index = index + np.bitwise_count(w)
    index *= side
    index += np.bitwise_count(d & w)
    return table.ravel()[index]


def _mi_rows(m0: np.ndarray, m1: np.ndarray) -> np.ndarray:
    """Per row (last axis): the sum of M0 lg(M0/mu) + M1 lg(M1/mu), mu
    the average."""
    mu = m0 + m1
    mu *= 0.5
    total = np.zeros(m0.shape[:-1])
    for m in (m0, m1):
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = m / mu
            np.log2(ratio, out=ratio)
            ratio *= m
        ratio[m == 0.0] = 0.0  # entries with m = 0 add 0 lg 1, not 0 * -inf
        total += ratio.sum(axis=-1)
    return total


def _all_seed_tables(n: int, l: int) -> np.ndarray:
    """Row s: the packed table of the (n -> l) Toeplitz hash whose seed
    is the big-endian expansion of s, on every word; one byte per entry
    for l <= 8."""
    seeds = np.arange(1 << (n + l - 1))
    bits = ((seeds[:, None] >> np.arange(n + l - 2, -1, -1)) & 1).astype(np.uint8)
    cols = _toeplitz_columns(bits, n, l).astype(np.min_scalar_type((1 << l) - 1))
    return _linear_table(cols)


def _pad_rows(dim: int) -> np.ndarray:
    """P_dim: the 2^dim characters t -> (-1)^|a AND t| of K in counting
    order, as rows sorted lexicographically (-1 before +1), a row-permuted
    Sylvester-Hadamard matrix.  Row 2i of P_d is [P_{d-1}[i], -P_{d-1}[i]]
    and row 2i+1 [P_{d-1}[i], P_{d-1}[i]], so P_d[::2^(d-e), :2^e] = P_e."""
    rows = np.ones((1, 1))
    for _ in range(dim):  # row i of [P, -P, P, P] holds rows 2i and 2i+1
        rows = np.hstack([rows, -rows, rows, rows]).reshape(2 * len(rows), -1)
    return rows


def concealment_exact(params: ProtocolParams, views=VIEWS) -> dict:
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
      as one product with P_dim(K) (_pad_rows), sliced from the call's
      one P_n (seed 0, the zero map, has dim K = n), weighted by 2^rank(G).
    * Columns.  Shifting a view by a in K (y -> y XOR a, or
      (y, z) -> (y XOR a, z XOR a) for the joint view) multiplies d by
      the pad sign of a and leaves the column sum and column maximum
      unchanged.  So |d|, the MI term (symmetric under d -> -d) and the
      posterior ratio are constant on each K-orbit of views, and one
      representative per orbit stands for |K| columns: the coset
      leaders min(y XOR K), and for the joint view (leader, every z).
      A stable sort of a seed's words by hash value is the standard
      array of K: per coset a run of |K| words, its leader XOR sorted K
      (the leader has no bit set at the leading bit of any element of
      K), the runs in hash-value order.
    * Blocks.  G seeds with the same dim(K) share every shape, so each
      view evaluates them stacked, in sub-blocks of
      BLOCK_BYTES / (8 2^n |w|) seeds (float64 entries), w the view's
      columns per leader.  The per-seed sums are kept by seed index and
      added in seed order, so neither the blocking nor the other views
      requested change a report.  Only the table of every seed's hash
      values, 2^(n + l_G - 1) x 2^n bytes, grows with the seed count.

    Each evaluated entry is weighted by its row count times
    cosets * |K|, and cosets * |K| = 2^n for every G seed.  Per seed and
    view this evaluates 2^n entries (4^n for the joint view) with 2^dim K
    multiply-adds each, at most W over the seeds (_concealment_check).  The noise
    is additive, so an entry depends on (x, y) only through d = x XOR y:
    k[x, (y, w_j)] = R[d, j] = T[|d|, |w_j|, |d AND w_j|], T the
    (n+1)^3 table of block flip probabilities.  R (2^n x |w| floats) is
    built once per call and view (_kernel_rows), and a sub-block's
    entries are one gather of its rows through the sort, read as
    (element of K, coset).  The joint view's columns are (y, w) with w = y XOR z: for a fixed y this is a
    bijection of the z, so column sums and maxima, |d| and MI terms are
    those of (y, z).  Bob's and Eve's views are the same kernel under a
    BSC(p) or BSC(q) pmf with w = 0 alone, so where p == q they share
    one evaluation: one R, and one set of per-seed sums and maxima.
    """
    views = tuple(views)
    _concealment_check(params, views, "exact")
    n, lg = params.n, params.challenge_bits
    big_n = 1 << n
    words = np.arange(big_n, dtype=np.min_scalar_type(big_n - 1))

    p, q = params.pq.p, params.pq.q
    # per view its noise pmf and whether its columns run over w; views of
    # one law (Bob's and Eve's when p == q) share one evaluation
    law_of = {"bob": ((1.0 - p, 0.0, 0.0, p), False),
              "eve": ((1.0 - q, 0.0, 0.0, q), False),
              "joint": (params.channel.noise_pair_pmf(), True)}

    g_hash = _all_seed_tables(n, lg)
    # dim K per seed, once per call; a chunk's bool temporary is BLOCK_BYTES
    chunk = max(1, BLOCK_BYTES // big_n)
    kernel_sizes = np.concatenate([np.count_nonzero(g_hash[i:i + chunk] == 0, axis=1)
                                   for i in range(0, g_hash.shape[0], chunk)])
    x_weight = 1.0 / big_n
    signs = _pad_rows(n) * x_weight
    seed_weight = 1.0 / (g_hash.shape[0] * big_n)  # G seeds times Ext seeds
    # the reports in the order of the views, filled in law by law
    reports = dict.fromkeys(f"{metric}_{v}" for v in views for metric in ("sd", "mi"))
    context = _report_context(params)
    for law in dict.fromkeys(law_of[v] for v in views):
        pmf, over_w = law
        # R[x XOR y, j], the kernel entry of x and column (y, w_j)
        rows = _kernel_rows(_noise_table(n, pmf), words if over_w else words[:1])
        step = max(1, BLOCK_BYTES // 8 // (big_n * rows.shape[1]))
        sd_seed = np.zeros(g_hash.shape[0])
        mi_seed = np.zeros(g_hash.shape[0])
        max_posterior = 0.0
        for dim in range(n + 1):
            group = np.flatnonzero(kernel_sizes == 1 << dim)
            if group.size == 0:
                continue
            # each row stands for 2^rank Ext seeds, and cosets * |K| = 2^n views
            weight = np.full((1 << dim, 1), float(big_n << (n - dim)))
            for i in range(0, group.size, step):
                seeds = group[i:i + step]
                # the standard array of K, read as (element of K, coset)
                order = np.argsort(g_hash[seeds], axis=1, kind="stable")
                k_rep = rows.take(order.reshape(len(seeds), -1, 1 << dim).swapaxes(1, 2),
                                  axis=0).reshape(len(seeds), 1 << dim, -1)
                del order  # 8-byte indices, one per entry of one party's k_rep
                colsum = k_rep.sum(axis=1)
                # worst-case posterior of x given the pad-free view
                ratio = np.divide(k_rep.max(axis=1), colsum,
                                  out=np.zeros_like(colsum), where=colsum > 0.0)
                max_posterior = max(max_posterior, float(ratio.max()))
                d_mat = signs[::1 << (n - dim), :1 << dim] @ k_rep
                del k_rep  # at most four sub-block-sized arrays live at a time
                s_vec = (colsum * x_weight)[:, None, :]
                m0 = s_vec + d_mat
                m1 = s_vec - d_mat
                # one dot product of row sums and weights per seed (a
                # matrix-vector product would add them in another order)
                np.abs(d_mat, out=d_mat)
                sd_seed[seeds] = (d_mat.sum(axis=-1)[:, None, :] @ weight)[:, 0, 0]
                del d_mat
                for m in (m0, m1):
                    m *= 0.5
                    np.maximum(m, 0.0, out=m)  # np.clip(m, 0.0, None)'s own ufunc
                mi_seed[seeds] = (_mi_rows(m0, m1)[:, None, :] @ weight)[:, 0, 0]

        k_hat = -math.log2(max_posterior) if max_posterior > 0 else math.inf
        ref = min(1.0, 2.0 * lhl_bound(k_hat, 1))
        # a running sum in seed order, whatever the blocks were
        sd = seed_weight * float(np.cumsum(sd_seed)[-1])
        mi = seed_weight * float(np.cumsum(mi_seed)[-1])
        for v in views:
            if law_of[v] != law:
                continue
            detail = {"k_hat": k_hat}
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


def _map_guess(n: int, hash_bits: int, anchors: list, weights, cols: np.ndarray,
               h_x: np.ndarray) -> np.ndarray:
    """Per trial the MAP guess of x: the hash-consistent word closest to
    the anchors, ties to the lowest encoding.

    anchors holds one (trials,) array of big-endian words per anchor: y
    for bob, z for eve, (y, z) for joint.  With weights None the cost is
    the integer distance to the one anchor, else the float cost
    wp d(w, y) + wq d(w, z) with weights (wp, wq).  cols[t, k] is the
    hash under trial t's G of the word whose only set index bit is k,
    h_x the hash of x, both below 2^hash_bits.

    One masked argmin scans all 2^n words in tiles of at most BLOCK_BYTES
    of keys (_tiles).  Word w's key packs (h(w) XOR h(x)) above its
    distances to the anchors, one field of n.bit_length() bits each.
    Setting index bit k of a word XORs the hash field with cols[:, k] and
    moves each distance by +1 or -1, with no borrow between fields, so a
    tile's keys come from word 0's key by one doubling pass.  Every
    candidate's key lies below 2^s, s the width of the distance fields,
    and below every other word's, so for one anchor the key is the masked
    cost itself.  The joint view maps each key, clipped to 2^s, to the
    rank of its float cost in a table by the distance fields, with inf at
    2^s.  Equal costs share a rank, so the argmin and its ties are the
    cost's.  Keys are the narrowest unsigned type that holds hash_bits + s
    bits and one spare bit, which holds the clip 2^s and every rank (at
    most 2^s + 1 distinct costs): uint8, uint16 or uint32.  They fit 32
    bits: n <= ENUM_LIMIT, so hash_bits + s <= 30.
    """
    width = n.bit_length()
    shift = width * len(anchors)
    key_type = next(t for t in (np.uint8, np.uint16, np.uint32)
                    if hash_bits + shift < np.iinfo(t).bits)
    index_bits = np.arange(n, dtype=np.uint64)
    key0 = h_x.astype(key_type) << key_type(shift)  # word 0, whose hash is 0
    step = np.zeros(cols.shape, dtype=np.int64)
    for field, anchor in enumerate(anchors):
        key0 += np.bitwise_count(anchor).astype(key_type) << key_type(width * field)
        anchor_bits = ((anchor[:, None] >> index_bits) & np.uint64(1)).astype(np.int64)
        step += (1 - 2 * anchor_bits) << (width * field)
    step = step.astype(key_type)  # -1 wraps around; the sums never do
    hash_step = cols.astype(key_type) << key_type(shift)
    if weights is not None:
        dist = np.arange(1 << width)
        cost = np.full((1 << shift) + 1, np.inf)
        cost[:-1] = (weights[0] * dist[None, :] + weights[1] * dist[:, None]).reshape(-1)
        rank = np.unique(cost, return_inverse=True)[1].astype(key_type)
    best = np.full(key0.size, np.iinfo(key_type).max, dtype=key_type)
    guess = np.zeros(key0.size, dtype=np.uint64)
    for rows, words in _tiles(key0.size, 1 << n, np.dtype(key_type).itemsize):
        high = ((words.start >> index_bits) & np.uint64(1)) == 1
        key = np.empty((best[rows].size, words.stop - words.start), dtype=key_type)
        key[:, 0] = key0[rows] + step[rows][:, high].sum(axis=1).astype(key_type)
        key[:, 0] ^= np.bitwise_xor.reduce(hash_step[rows][:, high], axis=1)
        for k in range(key.shape[1].bit_length() - 1):
            half, rest = key[:, :1 << k], key[:, 1 << k:2 << k]
            np.bitwise_xor(half, hash_step[rows, k, None], out=rest)
            rest += step[rows, k, None]
        if weights is not None:
            key = rank.take(np.minimum(key, key_type(1 << shift), out=key))
        j = key.argmin(axis=1)
        value = key[np.arange(key.shape[0]), j]
        better = value < best[rows]
        best[rows] = np.where(better, value, best[rows])
        guess[rows] = np.where(better, j.astype(np.uint64) + np.uint64(words.start),
                               guess[rows])
    return guess


def _log_odds(e: float) -> float:
    """log2((1 - e)/e), by a difference of logs where (1 - e)/e overflows
    (a subnormal e), so the joint view's cost weights stay finite."""
    odds = (1.0 - e) / e
    return math.log2(odds) if odds < math.inf else math.log2(1.0 - e) - math.log2(e)


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
    encoding, among the words sharing x's value under G.  The extractor
    has one output bit, the parity of the word ANDed with the extractor
    seed read little-endian.
    """
    params, view, uniform_pad = payload
    n, hash_bits = params.n, params.challenge_bits
    wp, wq = _log_odds(params.pq.p), _log_odds(params.pq.q)
    little_endian = np.uint64(1) << np.arange(n, dtype=np.uint64)
    counts = (1, *_commit_words(params))
    out = np.empty((len(seeds), 2), dtype=np.uint8)
    for b0 in range(0, len(seeds), MC_BLOCK):
        block = seeds[b0:b0 + MC_BLOCK]
        keys = np.stack([block.keys(*path) for path in _TRIAL_STREAMS])
        own, *party = philox_words(keys, counts)
        c = byte_bits(own, 0, 1)[0][:, 0]
        x, nb, ne, g_seed, e_seed = _commit_draws(params, *party)
        x_int = _big_endian(x)
        ext_mask = e_seed @ little_endian
        pad_bit = c ^ (np.bitwise_count(x_int & ext_mask) & 1).astype(np.uint8)
        if uniform_pad:
            pad_bit = c ^ uint32_bit(own, 1)
        # cols[t, k]: the hash under trial t's G of the word whose only
        # set index bit is k
        cols = _toeplitz_columns(g_seed, n, hash_bits)
        x_index = ((x_int[:, None] >> np.arange(n, dtype=np.uint64)) & np.uint64(1)) == 1
        h_x = np.bitwise_xor.reduce(cols * x_index, axis=1)
        y_int, z_int = x_int ^ _big_endian(nb), x_int ^ _big_endian(ne)
        anchors = {"bob": [y_int], "eve": [z_int], "joint": [y_int, z_int]}[view]
        x_hat = _map_guess(n, hash_bits, anchors, (wp, wq) if view == "joint" else None,
                           cols, h_x)
        out[b0:b0 + len(block), 0] = c
        out[b0:b0 + len(block), 1] = pad_bit ^ (np.bitwise_count(x_hat & ext_mask) & 1)
    return out


def _cs_table(samples: np.ndarray) -> np.ndarray:
    """Counts [c, s] of the (commit bit, statistic) rows of samples."""
    return np.bincount(2 * samples[:, 0] + samples[:, 1], minlength=4).reshape(2, 2)


def _entropy_miller_madow(counts: np.ndarray, total: int) -> float:
    """Plug-in entropy plus the Miller-Madow bias correction, in bits."""
    pos = counts[counts > 0]
    h = float(-(pos / total * np.log2(pos / total)).sum())
    return h + (pos.size - 1) / (2.0 * total * math.log(2.0))


def concealment_monte_carlo(params: ProtocolParams, trials: int, seed: int,
                            view: str = "bob", uniform_pad: bool = False,
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
    _concealment_check(params, (view,), "monte-carlo", trials)
    payload = (params, view, uniform_pad)
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
            "train_counts": counts,
        },
        **_report_context(params),
    )
