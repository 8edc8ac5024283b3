"""Exception types shared across the package."""

__all__ = [
    "HlqrError",
    "NonStabilizable",
    "IterationDiverged",
    "UnstableMatrix",
    "UnstableClosedLoop",
    "NotALaplacian",
    "InvalidDecomposition",
    "DimensionMismatch",
    "Infeasible",
    "RankDeficient",
    "NoConvergence",
    "StateBlowup",
    "InvalidConfig",
]


class HlqrError(Exception):
    """Base class for all package errors."""


class NonStabilizable(HlqrError):
    """No stabilizing solution or gain could be found."""


class IterationDiverged(HlqrError):
    """An iterative solver failed to contract its residual."""


class UnstableMatrix(HlqrError):
    """A matrix required to be Hurwitz is not."""


class UnstableClosedLoop(HlqrError):
    """A closed loop required to be stable is not."""


class NotALaplacian(HlqrError):
    """Matrix fails the Laplacian invariants."""


class InvalidDecomposition(HlqrError):
    """Cluster assignment is not a valid partition of the agent set."""


class DimensionMismatch(HlqrError):
    """Operands have inconsistent shapes."""


class Infeasible(HlqrError):
    """No decomposition satisfies the constraints."""


class RankDeficient(HlqrError):
    """A least-squares regressor does not have full column rank."""


class NoConvergence(HlqrError):
    """Iteration limit reached before the tolerance was met."""


class StateBlowup(HlqrError):
    """Simulated state left the guard region (unstable gain or over-excitation)."""


class InvalidConfig(HlqrError):
    """Scenario or experiment configuration is malformed."""
