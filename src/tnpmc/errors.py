"""Exception hierarchy shared across the package."""


class TnpmcError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(TnpmcError):
    """Operator or state dimensions are inconsistent."""


class NonHermitianInput(TnpmcError):
    """A matrix required to be Hermitian violates the tolerance."""


class NonFiniteState(TnpmcError):
    """An integration or stepping produced NaN/inf entries."""


class SingularMap(TnpmcError):
    """A dynamical map cannot be inverted reliably (condition number too large)."""


class NegativeProbability(TnpmcError):
    """A jump probability is negative and reverse jumps are disabled."""


class StepTooLarge(TnpmcError):
    """The time step violates the small-step guard of the jump scheme."""


class ZeroNorm(TnpmcError):
    """A state norm fell below the representable threshold."""


class NegativeSource(TnpmcError):
    """An inhomogeneous source term has an eigenvalue below tolerance."""


class NoSourceState(TnpmcError):
    """No candidate source state exists in the ensemble snapshot for a reverse jump."""


class CountLedgerError(TnpmcError):
    """The ensemble's total count disagrees with the events a step or source drew."""


class EmptyDecomposition(TnpmcError):
    """An initial-state decomposition has no components."""


class InvalidParameter(TnpmcError):
    """A model or run parameter is out of its valid range."""


class CutoffLeakage(TnpmcError):
    """The truncated Fock space leaks population above the allowed threshold."""


class ConfigError(TnpmcError):
    """A run configuration fails schema validation."""
