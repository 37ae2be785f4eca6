"""Exception types shared across the package."""


class InvalidSystemError(ValueError):
    """A channel model violates its structural invariants."""


class SpecFileError(ValueError):
    """A system-spec document failed to parse or validate."""


class BudgetExceededError(RuntimeError):
    """An enumeration exceeded the fixed work budget ``spectrum.LEVEL_BUDGET``,
    or a draw the memory budget ``sampler.SAMPLE_BUDGET``.

    ``spectrum`` is set by ``weight_spectrum``: every weight its sweep popped
    before the cut, exact up to the last of them, or None if only the root."""

    spectrum = None


class EstimatorError(RuntimeError):
    """A numerical estimator produced self-contradictory evidence."""
