"""Exception types shared across the package."""


class OrbitLabError(Exception):
    """Base class for numerical / domain errors raised by orbitlab."""


class DegenerateCoordinate(OrbitLabError):
    """A coordinate chart was evaluated on (or too close to) its excluded set."""


class BudgetOverflow(OrbitLabError):
    """Requested norm budget exceeds the range where exact enumeration is supported."""


class NonConvergence(OrbitLabError):
    """An iterative reduction failed to terminate; input is numerically invalid."""


class ExactHit(OrbitLabError):
    """The target lies exactly on the orbit; the decay exponent is +infinity.

    Carries the witnessing record on the ``record`` attribute.
    """

    def __init__(self, message, record=None):
        super().__init__(message)
        self.record = record


class InsufficientData(OrbitLabError):
    """Too few usable points for a statistically meaningful estimate."""


class InjectivityUnverified(UserWarning):
    """The empirical injectivity probe for a target box found overlapping translates."""
