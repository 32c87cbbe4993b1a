"""Commitment over binary symmetric broadcast wiretap channels.

A desk-scale simulator and analysis toolkit: capacity formulas and
converse bounds, Toeplitz universal hashing, coupled channel noise
simulation, the one-round commit/reveal protocol, and estimators for
its soundness, concealment, binding and eavesdropper secrecy under the
1-privacy and 2-privacy adversary models.
"""

from .bits import BitVector
from .measures import (
    CrossoverPair,
    binary_convolution,
    binary_entropy,
    capacity_one_private,
    capacity_two_private,
    rate_bound_one_private,
    rate_bound_two_private,
)
from .hashing import HashSpec, hash_evaluate, lhl_bound, sample_hash
from .channel import (
    WiretapChannel,
    degradation_check,
    eve_degrade,
    make_channel,
    transmit,
)
from .protocol import (
    ProtocolParams,
    RevealClaim,
    SessionState,
    bob_test,
    commit_phase,
    derive_params,
    explicit_params,
    honest_run,
    list_membership,
    session_from_config,
    session_to_config,
)
from .adversary import (
    ConfusableSet,
    SecurityReport,
    binding_attack,
    concealment_exact,
    concealment_monte_carlo,
    enumerate_confusables,
    estimate_soundness,
    wilson_interval,
)
from .harness import (
    ExperimentConfig,
    ResultTable,
    run_capacity_grid,
    run_experiment,
    run_replay,
)
from .rng import make_rng

__version__ = "0.1.0"

__all__ = [
    "BitVector",
    "ConfusableSet",
    "CrossoverPair",
    "ExperimentConfig",
    "HashSpec",
    "ProtocolParams",
    "ResultTable",
    "RevealClaim",
    "SecurityReport",
    "SessionState",
    "WiretapChannel",
    "binary_convolution",
    "binary_entropy",
    "binding_attack",
    "bob_test",
    "capacity_one_private",
    "capacity_two_private",
    "commit_phase",
    "concealment_exact",
    "concealment_monte_carlo",
    "degradation_check",
    "derive_params",
    "enumerate_confusables",
    "estimate_soundness",
    "eve_degrade",
    "explicit_params",
    "hash_evaluate",
    "honest_run",
    "lhl_bound",
    "list_membership",
    "make_channel",
    "make_rng",
    "rate_bound_one_private",
    "rate_bound_two_private",
    "run_capacity_grid",
    "run_experiment",
    "run_replay",
    "sample_hash",
    "session_from_config",
    "session_to_config",
    "transmit",
    "wilson_interval",
]
