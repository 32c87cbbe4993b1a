"""Exception hierarchy shared across the package."""


class WiretapCommitError(Exception):
    """Base class for all package errors."""


class DomainError(WiretapCommitError, ValueError):
    """A numeric argument lies outside its mathematical domain."""


class DimensionError(WiretapCommitError, ValueError):
    """Inconsistent bit-vector or hash dimensions."""


class CouplingError(WiretapCommitError, ValueError):
    """Requested channel noise coupling is infeasible."""


class RateError(WiretapCommitError, ValueError):
    """Derived commitment rate is non-positive or lengths underflow."""


class ScaleError(WiretapCommitError, ValueError):
    """Exhaustive computation requested beyond its tractable size."""


class ConfigError(WiretapCommitError, ValueError):
    """Malformed or invalid experiment configuration."""
