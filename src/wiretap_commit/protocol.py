"""Commit/reveal protocol over a BS-BC wiretap channel.

Commit phase (four steps): Alice sends a uniform word x over the noisy
channel; Bob answers with a random challenge hash G; Alice returns
g_bar = G(x); Alice then draws an extractor Ext and publishes the pad
Q = c XOR Ext(x).  All of (G, g_bar, Ext, Q) travel over the public
authenticated link and form the transcript M.

Reveal phase: Alice announces a claim (c_tilde, x_tilde); Bob accepts
iff (i) x_tilde lies in his Hamming-distance band around y, (ii)
G(x_tilde) = g_bar, and (iii) c_tilde = Q XOR Ext(x_tilde).

The same wire protocol serves both privacy modes; only the rate
formula changes (one-private capacity vs two-private capacity, each
minus the slack beta2).

Every draw of the commit phase is a fixed function of raw 64-bit words
(the rules in rng): _commit_draws maps the first _commit_words(params)
words of Alice's, Bob's and the channel's stream to x, the noise pair
and the two hash seeds, with any leading trial axis.  commit_phase
feeds it the random_raw words of rng's three spawned children, and the
Monte Carlo workers feed it the words of a block of trials computed by
rng.philox_words, so both follow one draw contract.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bits import BitVector
from .channel import WiretapChannel, _flips, make_channel
from .config import REQUIRED, agree, read_block, require
from .errors import ConfigError, CouplingError, DimensionError, RateError
from .hashing import HashSpec, _toeplitz_bits
from .measures import CrossoverPair, capacity_one_private, capacity_two_private
from .rng import byte_bits, doubles

PRIVACY_MODES = ("one", "two")


def _length_check(n: int, commit_bits: int, challenge_bits: int):
    """n >= 1, and each hash output length lies in [1, n]."""
    if n < 1:
        raise RateError(f"n must be >= 1, got {n}")
    if commit_bits < 1:
        raise RateError(f"commit_bits must be >= 1, got {commit_bits}")
    if challenge_bits < 1:
        raise RateError(f"challenge_bits must be >= 1, got {challenge_bits}")
    if commit_bits > n or challenge_bits > n:
        raise DimensionError(
            f"hash output lengths must not exceed n = {n}, got "
            f"commit_bits = {commit_bits}, challenge_bits = {challenge_bits}"
        )


def _mode_check(privacy: str, coupling: str):
    """The privacy mode is known, and two-privacy has independent noise."""
    if privacy not in PRIVACY_MODES:
        raise RateError(f"privacy must be one of {PRIVACY_MODES}, got {privacy!r}")
    if privacy == "two" and coupling != "independent":
        raise CouplingError("two-privacy mode is analyzed only for independent coupling")


@dataclass(frozen=True)
class ProtocolParams:
    """All protocol tunables plus the derived lengths.

    Instances from derive_params satisfy the achievability constraints
    (positive rate, beta2 > beta1 > 0).  The explicit constructor below
    bypasses the rate formula for adversarial or edge-case studies and
    marks the instance accordingly.  `channel` is the one channel the
    params describe, built from (p, q, coupling, coupling_r), so a custom
    coupling must state its r.
    """

    n: int
    pq: CrossoverPair
    privacy: str
    alpha1: float
    beta1: float
    beta2: Optional[float]
    rate: float
    commit_bits: int
    challenge_bits: int
    coupling: str = "independent"
    coupling_r: Optional[float] = None
    achievable: bool = True
    channel: WiretapChannel = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        _mode_check(self.privacy, self.coupling)
        _length_check(self.n, self.commit_bits, self.challenge_bits)
        if not self.alpha1 > 0:  # also refuses NaN
            raise RateError(f"alpha1 must be > 0, got {self.alpha1}")
        if self.alpha1 > 1:  # at 1 the band already holds every distance
            raise RateError(f"alpha1 must be <= 1, got {self.alpha1}")
        # the params' own channel, which judges the coupling and its r
        object.__setattr__(self, "channel", make_channel(self.pq.p, self.pq.q, self.coupling,
                                                         self.coupling_r))

    def to_config(self) -> dict:
        values = (self.n, self.pq.p, self.pq.q, self.privacy, self.alpha1, self.beta1,
                  self.beta2, self.rate, self.commit_bits, self.challenge_bits,
                  self.coupling, self.achievable, self.coupling_r)
        # r only where the coupling has one
        return {key: value for (key, _, _), value in zip(PARAM_FIELDS, values)
                if key != "r" or value is not None}


# the params block, in ProtocolParams.to_config's order: derived params
# read beta1 and beta2, explicit ones challenge_bits and commit_bits, and
# rate is only written; a field the params do not read must equal what
# they write back (params_from_config)
PARAM_FIELDS = (
    ("n", int, REQUIRED), ("p", float, REQUIRED), ("q", float, REQUIRED),
    ("privacy", str, REQUIRED), ("alpha1", float, REQUIRED),
    ("beta1", float, None), ("beta2", float, None), ("rate", float, None),
    ("commit_bits", int, None), ("challenge_bits", int, None),
    ("coupling", str, "independent"), ("achievable", bool, True), ("r", float, None),
)


def derive_params(n: int, pq: CrossoverPair, privacy: str, alpha1: float,
                  beta1: float, beta2: float,
                  coupling: str = "independent",
                  coupling_r: Optional[float] = None) -> ProtocolParams:
    """Rate and lengths from the achievability formulas.

    R = C - beta2 with C the capacity for the privacy mode; commit
    string length floor(n R); challenge length floor(n beta1).  Fails
    if the rate or either length underflows, or beta2 <= beta1.
    """
    _mode_check(privacy, coupling)
    if n > sys.float_info.max:  # floor(n*R) below multiplies n as a float
        raise RateError(f"n = {n} is past the largest float, so floor(n*R) has no value")
    if not (beta1 > 0 and beta2 > 0):  # also refuses NaN
        raise RateError("beta1 and beta2 must be positive")
    if not beta2 > beta1:
        raise RateError(f"need beta2 > beta1, got beta1={beta1}, beta2={beta2}")
    cap = capacity_one_private(pq) if privacy == "one" else capacity_two_private(pq)
    rate = cap - beta2
    if rate <= 0:
        raise RateError(f"rate {rate} <= 0 (capacity {cap}, beta2 {beta2})")
    commit_bits = math.floor(n * rate)
    challenge_bits = math.floor(n * beta1)
    if commit_bits < 1:
        raise RateError(f"floor(n*R) = {commit_bits} < 1 at n={n}, R={rate}")
    if challenge_bits < 1:
        raise RateError(f"floor(n*beta1) = {challenge_bits} < 1 at n={n}, beta1={beta1}")
    return ProtocolParams(
        n=n, pq=pq, privacy=privacy, alpha1=alpha1, beta1=beta1, beta2=beta2,
        rate=rate, commit_bits=commit_bits, challenge_bits=challenge_bits,
        coupling=coupling, coupling_r=coupling_r, achievable=True,
    )


def explicit_params(n: int, pq: CrossoverPair, privacy: str, alpha1: float,
                    challenge_bits: int, commit_bits: int,
                    coupling: str = "independent",
                    coupling_r: Optional[float] = None) -> ProtocolParams:
    """Params with lengths set directly, outside the achievability regime.

    Used for attack studies and edge cases (hash length sweeps, n=1
    bands) where no beta2 > beta1 produces the wanted lengths.  Only
    structural invariants are enforced; `achievable` is False.
    """
    _length_check(n, commit_bits, challenge_bits)  # before the lengths are divided by n
    return ProtocolParams(
        n=n, pq=pq, privacy=privacy, alpha1=alpha1,
        beta1=challenge_bits / n, beta2=None,
        rate=commit_bits / n, commit_bits=commit_bits,
        challenge_bits=challenge_bits,
        coupling=coupling, coupling_r=coupling_r, achievable=False,
    )


@dataclass(frozen=True)
class Transcript:
    """Everything sent over the public link during the commit phase."""

    challenge: HashSpec        # G, chosen by Bob
    challenge_value: BitVector  # g_bar = G(x)
    extractor: HashSpec        # Ext, chosen by Alice
    pad: BitVector             # Q = c XOR Ext(x)


@dataclass(frozen=True)
class AliceView:
    c: BitVector
    x: BitVector
    transcript: Transcript


@dataclass(frozen=True)
class BobView:
    y: BitVector
    transcript: Transcript


@dataclass(frozen=True)
class EveView:
    z: BitVector
    transcript: Transcript


@dataclass(frozen=True)
class SessionState:
    """The three party views after the commit phase; M is shared."""

    alice_view: AliceView
    bob_view: BobView
    eve_view: EveView

    @property
    def transcript(self) -> Transcript:
        return self.alice_view.transcript


@dataclass(frozen=True)
class RevealClaim:
    c_tilde: BitVector
    x_tilde: BitVector


@dataclass(frozen=True)
class TestResult:
    """Outcome of Bob's reveal test; failed_condition in {1,2,3} on reject."""

    accepted: bool
    failed_condition: Optional[int] = None


def _check_hashes(params: ProtocolParams, challenge: HashSpec, extractor: HashSpec,
                  error=DimensionError):
    """A session's hashes fit its params: G maps n -> challenge_bits and
    Ext n -> commit_bits; error (ConfigError for a document) otherwise."""
    for name, spec, out_bits in (("G", challenge, params.challenge_bits),
                                 ("Ext", extractor, params.commit_bits)):
        if (spec.input_bits, spec.output_bits) != (params.n, out_bits):
            raise error(f"transcript {name} maps {spec.input_bits} -> {spec.output_bits} "
                        f"bits, but the params need {params.n} -> {out_bits}")


def _commit_words(params: ProtocolParams) -> tuple:
    """Raw words each party stream of the commit phase reads: (Alice's,
    Bob's, the channel's).  A uint8 draw of k bits reads ceil(k/4)
    uint32s, two to a word (see rng.byte_bits); the noise reads one
    word per uniform."""
    n = params.n
    alice = -(-n // 4) + -(-(n + params.commit_bits - 1) // 4)
    bob = -(-(n + params.challenge_bits - 1) // 4)
    return -(-alice // 2), -(-bob // 2), 2 * n


def _commit_draws(params: ProtocolParams, alice, bob, noise):
    """Every random draw of the commit phase, from the parties' raw words.

    alice, bob and noise are the first _commit_words(params) raw Philox
    words of Alice's, Bob's and the channel's stream, with any leading
    axes (one per trial, say).  Returns (x, nb, ne, g_seed, e_seed) as
    uint8 arrays with the same leading axes: Alice's word, Bob's and
    Eve's noise, and the challenge and extractor seeds.  They equal what
    the three party generators draw in this order: Alice's
    integers(0, 2, n, uint8) for x, then n + l - 1 more for the
    extractor seed; Bob's n + l_G - 1 for the challenge seed; the
    channel's random((n, 2)) for the noise pair.  This is the one draw
    contract of commit_phase and of every Monte Carlo worker.
    """
    n = params.n
    x, start = byte_bits(alice, 0, n)                                  # C1
    e_seed, _ = byte_bits(alice, start, n + params.commit_bits - 1)    # C4
    g_seed, _ = byte_bits(bob, 0, n + params.challenge_bits - 1)       # C2
    u = doubles(noise).reshape(*noise.shape[:-1], n, 2)
    nb, ne = _flips(params.channel, u)
    return x, nb, ne, g_seed, e_seed


def commit_phase(params: ProtocolParams, c: BitVector,
                 channel: WiretapChannel, rng: np.random.Generator) -> SessionState:
    """Run the four commit steps and return all three views.

    Party randomness comes from three child streams of rng: Alice's
    (x and the extractor seed), Bob's (the challenge seed), and the
    channel noise.  The private streams never enter the transcript.
    Each child hands its first raw words to _commit_draws, so rng must
    wrap a 64-bit bit generator (Philox, as make_rng builds, or PCG64,
    SFC64), whose Generator draws follow the word rules of rng; a
    32-bit MT19937 raises TypeError.  channel must be params.channel, or
    CouplingError is raised.
    """
    if len(c) != params.commit_bits:
        raise DimensionError(
            f"commit string length {len(c)} != commit_bits {params.commit_bits}"
        )
    if isinstance(rng.bit_generator, np.random.MT19937):
        raise TypeError("commit_phase reads 64-bit raw words; MT19937 draws 32 bits at a time")
    if channel != params.channel:
        raise CouplingError(f"channel ({channel.coupling}, p={channel.p}, q={channel.q}, "
                            f"r={channel.r}) does not match the params")
    words = [stream.random_raw(count) for stream, count
             in zip(rng.bit_generator.spawn(3), _commit_words(params))]
    x_bits, nb, ne, g_seed, e_seed = _commit_draws(params, *words)
    g_bar, ext = _toeplitz_bits(x_bits, g_seed, e_seed)    # C3, and Ext(x) for C4
    x = BitVector(x_bits)
    y, z = BitVector(x_bits ^ nb), BitVector(x_bits ^ ne)
    challenge = HashSpec(params.n, params.challenge_bits, BitVector(g_seed))
    extractor = HashSpec(params.n, params.commit_bits, BitVector(e_seed))
    pad = BitVector(c.bits ^ ext)

    transcript = Transcript(challenge=challenge, challenge_value=BitVector(g_bar),
                            extractor=extractor, pad=pad)
    return SessionState(
        alice_view=AliceView(c=c, x=x, transcript=transcript),
        bob_view=BobView(y=y, transcript=transcript),
        eve_view=EveView(z=z, transcript=transcript),
    )


def list_membership(x: BitVector, y: BitVector, params: ProtocolParams) -> bool:
    """Reveal condition (i) on d_H(x, y) (see _in_band)."""
    if len(x) != len(y):
        raise DimensionError(f"length mismatch {len(x)} vs {len(y)}")
    return _in_band(x.hamming_distance(y), params.n, params.pq.p, params.alpha1)


def _in_band(d, n: int, p: float, alpha1: float):
    """Reveal condition (i): n(p - alpha1) <= d <= n(p + alpha1), for an
    integer distance d or an array of them (elementwise).

    The band endpoints stay real; the integer distance is compared
    against them directly, with no rounding.
    """
    return (d >= n * (p - alpha1)) & (d <= n * (p + alpha1))


def bob_test(bob_view: BobView, transcript: Transcript,
             claim: RevealClaim, params: ProtocolParams) -> TestResult:
    """Bob's reveal test; rejects with the first failed condition.

    Condition (i) reads the raw bits; once it holds, one _toeplitz_bits
    call gives both G(x_tilde) and Ext(x_tilde) for (ii) and (iii).
    The protocol parameters are public configuration, agreed before the
    run, hence the explicit argument rather than a view field.
    """
    x, c = claim.x_tilde.bits, claim.c_tilde.bits
    challenge, extractor = transcript.challenge, transcript.extractor
    if len(bob_view.y) != params.n:
        raise DimensionError(f"Bob's block has {len(bob_view.y)} bits, the params n = {params.n}")
    if len(x) != len(bob_view.y):
        raise DimensionError("claimed x length does not match the block length")
    if len(c) != len(transcript.pad):
        raise DimensionError("claimed commit string length does not match the pad")
    if challenge.input_bits != len(x) or extractor.input_bits != len(x):
        raise DimensionError("the transcript hashes do not take the block length")
    if extractor.output_bits != len(c):
        raise DimensionError("the extractor output length does not match the pad")
    d = int(np.count_nonzero(x ^ bob_view.y.bits))
    if not _in_band(d, params.n, params.pq.p, params.alpha1):
        return TestResult(accepted=False, failed_condition=1)
    g_bar, ext = _toeplitz_bits(x, challenge.seed.bits, extractor.seed.bits)
    if not np.array_equal(g_bar, transcript.challenge_value.bits):
        return TestResult(accepted=False, failed_condition=2)
    if not np.array_equal(c, transcript.pad.bits ^ ext):
        return TestResult(accepted=False, failed_condition=3)
    return TestResult(accepted=True)


def honest_run(params: ProtocolParams, rng: np.random.Generator):
    """Full honest commit + reveal; returns (accepted, session).

    An honest reveal claim is (c, x), so conditions (ii) and (iii) hold
    identically and the run is rejected exactly when the channel pushed
    d_H(x, y) out of the distance band.
    """
    c = BitVector.random(rng, params.commit_bits)
    session = commit_phase(params, c, params.channel, rng)
    claim = RevealClaim(c_tilde=session.alice_view.c, x_tilde=session.alice_view.x)
    result = bob_test(session.bob_view, session.transcript, claim, params)
    return result.accepted, session


def params_from_config(cfg: dict) -> ProtocolParams:
    """Inverse of ProtocolParams.to_config: the params block read against
    PARAM_FIELDS (config.read_block), which must also hold beta1 and
    beta2 for derived params, or challenge_bits and commit_bits for
    explicit ones, and whose every written field must equal the one the
    params write back (config.agree); ConfigError otherwise."""
    f = read_block(cfg, "params", PARAM_FIELDS)
    common = dict(n=f["n"], pq=CrossoverPair(f["p"], f["q"]), privacy=f["privacy"],
                  alpha1=f["alpha1"], coupling=f["coupling"], coupling_r=f["r"])
    if f["achievable"]:
        params = derive_params(**require(f, "params", ("beta1", "beta2")), **common)
    else:
        params = explicit_params(**require(f, "params", ("challenge_bits", "commit_bits")),
                                 **common)
    agree(f, "params", params.to_config())
    return params


# the transcript, in session_to_config's order: the public messages, then
# Bob's and Eve's channel outputs and Alice's secrets, which a reader may
# lack
TRANSCRIPT_FIELDS = (
    ("params", dict, REQUIRED), ("G", dict, REQUIRED), ("g_bar", str, REQUIRED),
    ("Ext", dict, REQUIRED), ("Q", str, REQUIRED),
    ("y", str, None), ("z", str, None), ("x", str, None), ("c", str, None),
)


def session_to_config(session: SessionState, params: ProtocolParams) -> dict:
    """JSON-ready transcript document.

    Hex fields encode bit vectors MSB-first, zero-padded to a byte
    boundary.  y/z are the parties' channel outputs; x/c are Alice's
    secrets, included so a stored honest session can be replayed
    through bob_test.
    """
    t = session.transcript
    values = (params.to_config(), t.challenge.to_config(), t.challenge_value.to_hex(),
              t.extractor.to_config(), t.pad.to_hex(), session.bob_view.y.to_hex(),
              session.eve_view.z.to_hex(), session.alice_view.x.to_hex(),
              session.alice_view.c.to_hex())
    return {key: value for (key, _, _), value in zip(TRANSCRIPT_FIELDS, values)}


def session_from_config(doc: dict):
    """Rebuild (params, transcript, bob_view?, claim?) from a document.

    Returns a dict with whatever the document contained; replay needs
    at least y plus the stored secrets x and c.  The document and its
    params, G and Ext blocks are read against their field tables
    (config.read_block), and the hash dimensions must match the params
    (_check_hashes), or ConfigError is raised.
    """
    f = read_block(doc, "transcript", TRANSCRIPT_FIELDS)
    params = params_from_config(f["params"])
    challenge = HashSpec.from_config(f["G"], "G")
    extractor = HashSpec.from_config(f["Ext"], "Ext")
    _check_hashes(params, challenge, extractor, ConfigError)
    transcript = Transcript(
        challenge=challenge,
        challenge_value=BitVector.from_hex(f["g_bar"], challenge.output_bits),
        extractor=extractor,
        pad=BitVector.from_hex(f["Q"], extractor.output_bits),
    )
    out = {"params": params, "transcript": transcript}
    if f["y"] is not None:
        out["bob_view"] = BobView(y=BitVector.from_hex(f["y"], params.n),
                                  transcript=transcript)
    if f["z"] is not None:
        out["eve_view"] = EveView(z=BitVector.from_hex(f["z"], params.n),
                                  transcript=transcript)
    if f["x"] is not None and f["c"] is not None:
        out["claim"] = RevealClaim(
            c_tilde=BitVector.from_hex(f["c"], params.commit_bits),
            x_tilde=BitVector.from_hex(f["x"], params.n),
        )
    return out
