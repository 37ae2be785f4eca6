"""Exception types shared across the package."""


class InvalidSystemError(ValueError):
    """A channel model violates its structural invariants."""


class SpecFileError(ValueError):
    """A system-spec document failed to parse or validate."""


class BudgetExceededError(RuntimeError):
    """An enumeration exceeded the fixed work budget ``maxent.LEVEL_BUDGET``."""


class EstimatorError(RuntimeError):
    """A numerical estimator produced self-contradictory evidence."""
