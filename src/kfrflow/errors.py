"""Exception types shared across the package."""


class CapabilityError(RuntimeError):
    """An operation needs information the target does not provide (e.g. scores)."""


class NumericalStabilityError(RuntimeError):
    """A linear solve or particle update failed numerically.

    Carries the time-step index when raised inside a stepping loop so that
    failures can be attributed to a specific point of the schedule.
    """

    def __init__(self, message, step=None):
        if step is not None:
            message = f"step {step}: {message}"
        super().__init__(message)
        self.step = step


class NonFiniteStateError(NumericalStabilityError, ValueError):
    """Particle coordinates went non-finite: a blow-up, and an invalid value."""
