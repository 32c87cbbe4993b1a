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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bits import BitVector
from .channel import WiretapChannel, _noise_pair
from .errors import ConfigError, CouplingError, DimensionError, RateError
from .hashing import HashSpec, hash_evaluate
from .measures import CrossoverPair, capacity_one_private, capacity_two_private

PRIVACY_MODES = ("one", "two")


@dataclass(frozen=True)
class ProtocolParams:
    """All protocol tunables plus the derived lengths.

    Instances from derive_params satisfy the achievability constraints
    (positive rate, beta2 > beta1 > 0).  The explicit constructor below
    bypasses the rate formula for adversarial or edge-case studies and
    marks the instance accordingly.
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

    def __post_init__(self):
        if self.privacy not in PRIVACY_MODES:
            raise RateError(f"privacy must be one of {PRIVACY_MODES}, got {self.privacy!r}")
        if self.n < 1:
            raise RateError(f"n must be >= 1, got {self.n}")
        if self.commit_bits < 1:
            raise RateError(f"commit_bits must be >= 1, got {self.commit_bits}")
        if self.challenge_bits < 1:
            raise RateError(f"challenge_bits must be >= 1, got {self.challenge_bits}")
        if self.commit_bits > self.n or self.challenge_bits > self.n:
            raise DimensionError(
                f"hash output lengths must not exceed n = {self.n}, got "
                f"commit_bits = {self.commit_bits}, "
                f"challenge_bits = {self.challenge_bits}"
            )
        if self.alpha1 <= 0:
            raise RateError(f"alpha1 must be > 0, got {self.alpha1}")
        if self.privacy == "two" and self.coupling != "independent":
            raise CouplingError(
                "two-privacy mode is analyzed only for independent coupling"
            )

    def to_config(self) -> dict:
        cfg = {
            "n": self.n,
            "p": self.pq.p,
            "q": self.pq.q,
            "privacy": self.privacy,
            "alpha1": self.alpha1,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "rate": self.rate,
            "commit_bits": self.commit_bits,
            "challenge_bits": self.challenge_bits,
            "coupling": self.coupling,
            "achievable": self.achievable,
        }
        if self.coupling_r is not None:
            cfg["r"] = self.coupling_r
        return cfg


def derive_params(n: int, pq: CrossoverPair, privacy: str, alpha1: float,
                  beta1: float, beta2: float,
                  coupling: str = "independent",
                  coupling_r: Optional[float] = None) -> ProtocolParams:
    """Rate and lengths from the achievability formulas.

    R = C - beta2 with C the capacity for the privacy mode; commit
    string length floor(n R); challenge length floor(n beta1).  Fails
    if the rate or either length underflows, or beta2 <= beta1.
    """
    if privacy not in PRIVACY_MODES:
        raise RateError(f"privacy must be one of {PRIVACY_MODES}, got {privacy!r}")
    if beta1 <= 0 or beta2 <= 0:
        raise RateError("beta1 and beta2 must be positive")
    if beta2 <= beta1:
        raise RateError(f"need beta2 > beta1, got beta1={beta1}, beta2={beta2}")
    if privacy == "two" and coupling != "independent":
        raise CouplingError("two-privacy mode requires independent coupling")
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


def _check_channel(params: ProtocolParams, channel: WiretapChannel):
    """The channel must be the params' own: p, q, coupling and any set r."""
    if (not math.isclose(channel.p, params.pq.p) or not math.isclose(channel.q, params.pq.q)
            or channel.coupling != params.coupling
            or (params.coupling_r is not None
                and not math.isclose(channel.r, params.coupling_r, abs_tol=1e-15))):
        raise CouplingError(f"channel ({channel.coupling}, p={channel.p}, q={channel.q}, "
                            f"r={channel.r}) does not match the params")


def _commit_draws(params: ProtocolParams, channel: WiretapChannel,
                  rng: np.random.Generator):
    """Every random draw of the commit phase, as uint8 arrays.

    Returns (x, nb, ne, g_seed, e_seed): Alice's word, Bob's and Eve's
    noise, and the challenge and extractor seeds.  Streams are rng's
    three children: Alice's (x, then the extractor seed), Bob's (the
    challenge seed) and the channel's (the noise pair).  This fixes the
    stream contract of commit_phase; callers that work on arrays call
    it directly after checking the channel once.
    """
    n = params.n
    alice_rng, bob_rng, channel_rng = rng.spawn(3)

    def uniform_bits(stream, size):
        return stream.integers(0, 2, size=size, dtype=np.uint8)

    x = uniform_bits(alice_rng, n)                                 # C1
    nb, ne = _noise_pair(channel, n, channel_rng)
    g_seed = uniform_bits(bob_rng, n + params.challenge_bits - 1)  # C2
    e_seed = uniform_bits(alice_rng, n + params.commit_bits - 1)   # C4
    return x, nb, ne, g_seed, e_seed


def commit_phase(params: ProtocolParams, c: BitVector,
                 channel: WiretapChannel, rng: np.random.Generator) -> SessionState:
    """Run the four commit steps and return all three views.

    Party randomness comes from three child streams of rng: Alice's
    (x and the extractor seed), Bob's (the challenge seed), and the
    channel noise.  The private streams never enter the transcript.
    """
    if len(c) != params.commit_bits:
        raise DimensionError(
            f"commit string length {len(c)} != commit_bits {params.commit_bits}"
        )
    _check_channel(params, channel)
    x_bits, nb, ne, g_seed, e_seed = _commit_draws(params, channel, rng)

    x = BitVector(x_bits)
    y, z = BitVector(x_bits ^ nb), BitVector(x_bits ^ ne)
    challenge = HashSpec(params.n, params.challenge_bits, BitVector(g_seed))
    g_bar = hash_evaluate(challenge, x)                    # C3
    extractor = HashSpec(params.n, params.commit_bits, BitVector(e_seed))
    pad = c ^ hash_evaluate(extractor, x)

    transcript = Transcript(challenge=challenge, challenge_value=g_bar,
                            extractor=extractor, pad=pad)
    return SessionState(
        alice_view=AliceView(c=c, x=x, transcript=transcript),
        bob_view=BobView(y=y, transcript=transcript),
        eve_view=EveView(z=z, transcript=transcript),
    )


def list_membership(x: BitVector, y: BitVector, params: ProtocolParams) -> bool:
    """Reveal condition (i): n(p - alpha1) <= d_H(x, y) <= n(p + alpha1).

    The band endpoints stay real; the integer distance is compared
    against them directly, with no rounding.
    """
    if len(x) != len(y):
        raise DimensionError(f"length mismatch {len(x)} vs {len(y)}")
    d = x.hamming_distance(y)
    n, p, a = params.n, params.pq.p, params.alpha1
    return n * (p - a) <= d <= n * (p + a)


def bob_test(bob_view: BobView, transcript: Transcript,
             claim: RevealClaim, params: ProtocolParams) -> TestResult:
    """Bob's reveal test; rejects with the first failed condition.

    The protocol parameters are public configuration, agreed before the
    run, hence the explicit argument rather than a view field.
    """
    if len(claim.x_tilde) != len(bob_view.y):
        raise DimensionError("claimed x length does not match the block length")
    if len(claim.c_tilde) != len(transcript.pad):
        raise DimensionError("claimed commit string length does not match the pad")
    if not list_membership(claim.x_tilde, bob_view.y, params):
        return TestResult(accepted=False, failed_condition=1)
    if hash_evaluate(transcript.challenge, claim.x_tilde) != transcript.challenge_value:
        return TestResult(accepted=False, failed_condition=2)
    if claim.c_tilde != transcript.pad ^ hash_evaluate(transcript.extractor, claim.x_tilde):
        return TestResult(accepted=False, failed_condition=3)
    return TestResult(accepted=True)


def honest_run(params: ProtocolParams, channel: WiretapChannel,
               rng: np.random.Generator):
    """Full honest commit + reveal; returns (accepted, session).

    An honest reveal claim is (c, x), so conditions (ii) and (iii) hold
    identically and the run is rejected exactly when the channel pushed
    d_H(x, y) out of the distance band.
    """
    c = BitVector.random(rng, params.commit_bits)
    session = commit_phase(params, c, channel, rng)
    claim = RevealClaim(c_tilde=session.alice_view.c, x_tilde=session.alice_view.x)
    result = bob_test(session.bob_view, session.transcript, claim, params)
    return result.accepted, session


_REQUIRED = object()

# JSON type accepted for each config value type; bool is not a number here
_JSON_TYPES = {int: "an integer", float: "a number", bool: "true or false",
               str: "a string", dict: "an object", list: "a list"}


def config_field(block: dict, key: str, kind: type, where: str, default=_REQUIRED):
    """block[key], checked to be a JSON value of the given type.

    A missing key returns default, or raises ConfigError when there is
    none; so does a value of another type.  Where the default is None an
    explicit null counts as missing.  Integers count as numbers (and come
    back as floats), booleans count as neither.
    """
    if key not in block or (default is None and block[key] is None):
        if default is _REQUIRED:
            raise ConfigError(f"{where} is missing {key!r}")
        return default
    value = block[key]
    if kind is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    elif kind is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ConfigError(f"{where}.{key} must be {_JSON_TYPES[kind]}, got {value!r}")
    return float(value) if kind is float else value


_PARAM_FIELDS = {
    "n", "p", "q", "privacy", "alpha1", "beta1", "beta2", "rate",
    "commit_bits", "challenge_bits", "coupling", "r", "achievable",
}


def params_from_config(cfg: dict) -> ProtocolParams:
    """Inverse of ProtocolParams.to_config.

    Raises ConfigError for a block that is not an object, has a field
    ProtocolParams.to_config never writes, lacks a field the params
    need, or has a field of the wrong JSON type.  `rate`, and the slacks
    of explicit params, are outputs and are not read.
    """
    if not isinstance(cfg, dict):
        raise ConfigError(f"params must be an object, got {cfg!r}")
    unknown = set(cfg) - _PARAM_FIELDS
    if unknown:
        raise ConfigError(f"unknown params fields: {sorted(unknown)}")

    def field(key, kind, default=_REQUIRED):
        return config_field(cfg, key, kind, "params", default)

    pq = CrossoverPair(field("p", float), field("q", float))
    common = dict(
        n=field("n", int), pq=pq, privacy=field("privacy", str),
        alpha1=field("alpha1", float),
        coupling=field("coupling", str, "independent"),
        coupling_r=field("r", float, None),
    )
    if field("achievable", bool, True):
        return derive_params(beta1=field("beta1", float), beta2=field("beta2", float),
                             **common)
    return explicit_params(challenge_bits=field("challenge_bits", int),
                           commit_bits=field("commit_bits", int), **common)


def session_to_config(session: SessionState, params: ProtocolParams,
                      include_y: bool = True, include_z: bool = True,
                      include_secrets: bool = True) -> dict:
    """JSON-ready transcript document.

    Hex fields encode bit vectors MSB-first, zero-padded to a byte
    boundary.  y/z are the parties' channel outputs; x/c are Alice's
    secrets, included so a stored honest session can be replayed
    through bob_test.
    """
    t = session.transcript
    doc = {
        "params": params.to_config(),
        "G": t.challenge.to_config(),
        "g_bar": t.challenge_value.to_hex(),
        "Ext": t.extractor.to_config(),
        "Q": t.pad.to_hex(),
    }
    if include_y:
        doc["y"] = session.bob_view.y.to_hex()
    if include_z:
        doc["z"] = session.eve_view.z.to_hex()
    if include_secrets:
        doc["x"] = session.alice_view.x.to_hex()
        doc["c"] = session.alice_view.c.to_hex()
    return doc


def session_from_config(doc: dict):
    """Rebuild (params, transcript, bob_view?, claim?) from a document.

    Returns a dict with whatever the document contained; replay needs
    at least y plus the stored secrets x and c.  The hash dimensions must
    match the params (G: n -> challenge_bits, Ext: n -> commit_bits), or
    ConfigError is raised.
    """
    missing = {"params", "G", "g_bar", "Ext", "Q"} - set(doc)
    if missing:
        raise ConfigError(f"session document is missing {sorted(missing)}")
    params = params_from_config(doc["params"])
    challenge = HashSpec.from_config(doc["G"], "G")
    extractor = HashSpec.from_config(doc["Ext"], "Ext")
    for name, spec, out_bits in (("G", challenge, params.challenge_bits),
                                 ("Ext", extractor, params.commit_bits)):
        if (spec.input_bits, spec.output_bits) != (params.n, out_bits):
            raise ConfigError(
                f"transcript {name} maps {spec.input_bits} -> {spec.output_bits} bits, "
                f"but the params need {params.n} -> {out_bits}"
            )
    transcript = Transcript(
        challenge=challenge,
        challenge_value=BitVector.from_hex(doc["g_bar"], challenge.output_bits),
        extractor=extractor,
        pad=BitVector.from_hex(doc["Q"], extractor.output_bits),
    )
    out = {"params": params, "transcript": transcript}
    if "y" in doc:
        out["bob_view"] = BobView(y=BitVector.from_hex(doc["y"], params.n),
                                  transcript=transcript)
    if "z" in doc:
        out["eve_view"] = EveView(z=BitVector.from_hex(doc["z"], params.n),
                                  transcript=transcript)
    if "x" in doc and "c" in doc:
        out["claim"] = RevealClaim(
            c_tilde=BitVector.from_hex(doc["c"], params.commit_bits),
            x_tilde=BitVector.from_hex(doc["x"], params.n),
        )
    return out
